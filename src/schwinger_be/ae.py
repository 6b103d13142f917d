"""Amplitude-estimation query models and a classical adaptive simulator.

The quantum side is abstracted to its measurement statistics: applying k
Grover iterations to the prepared state and measuring the projector yields
one with probability sin^2((2k+1) arcsin(omega)).  The adaptive estimator
drives those statistics with exponentially growing depths and exact
binomial (Clopper-Pearson) confidence intervals, tallying one query to each
reflection per iteration plus one per shot for preparation/measurement.

Two closed forms accompany the simulator: the Hoeffding baseline for
depth-0 sampling, and the worst-case query count of the Chebyshev scheme,
ceil((5.874534/eps) ln(2.08 ln(2/eps))).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betaincinv

from .model import ModelParams, OutOfRangeError, vacuum_persistence


def hoeffding_queries(eps: float, delta: float) -> int:
    """Depth-0 sampling count from Hoeffding's inequality."""
    if not 0 < eps < 1 or not 0 < delta < 1:
        raise OutOfRangeError("eps and delta must be in (0,1)")
    return math.ceil(math.log(2 / delta) / (2 * eps * eps))


def chebae_query_formula(eps: float) -> int:
    """Worst-case total query count of Chebyshev amplitude estimation."""
    if not 0 < eps < 1:
        raise OutOfRangeError("eps must be in (0,1)")
    return math.ceil(5.874534 / eps * math.log(2.08 * math.log(2 / eps)))


def grover_outcome(omega: float, k: int, rng: np.random.Generator) -> int:
    """One measurement after k Grover iterations: Bernoulli(sin^2((2k+1)t))."""
    if not 0 <= omega <= 1:
        raise OutOfRangeError("omega must be in [0,1]")
    if k < 0:
        raise ValueError("depth must be nonnegative")
    p = math.sin((2 * k + 1) * math.asin(omega)) ** 2
    return int(rng.random() < p)


@dataclass(frozen=True)
class AERunStats:
    q_psi: int
    q_pi: int
    estimate: float
    true_amplitude: float
    succeeded: bool
    n_rounds: int
    n_shots: int
    seed: int

    @property
    def total_queries(self) -> int:
        return self.q_psi + self.q_pi


def _clopper_pearson(ones: int, n: int, alpha: float) -> tuple[float, float]:
    lo = 0.0 if ones == 0 else float(betaincinv(ones, n - ones + 1, alpha / 2))
    hi = 1.0 if ones == n else float(betaincinv(ones + 1, n - ones,
                                                1 - alpha / 2))
    return lo, hi


_HALF_PI = math.pi / 2
SHOTS_PER_ROUND = 8  # measurements at one depth before the interval update
MAX_ROUNDS = 10_000  # rounds after which a run stops and reports its interval


def _quadrant(x: float) -> int:
    return int(x / _HALF_PI)


def _find_next_k(k: int, lo: float, hi: float) -> int:
    """Largest depth whose (2k+1)-fold interval stays in one monotonic
    branch of sin^2; keeps the current depth if no larger one qualifies."""
    width = hi - lo
    if width <= 0:
        return k
    k_cap = int((_HALF_PI / width - 1) / 2)
    for k_new in range(k_cap, k, -1):
        big = 2 * k_new + 1
        if _quadrant(big * lo) == _quadrant(big * hi * (1 - 1e-12)):
            return k_new
    return k


def simulate_adaptive_ae(omega: float, eps: float, delta: float,
                         seed: int) -> AERunStats:
    """Estimate ``omega`` to within eps with confidence 1-delta.

    Grid studies use omega in [0.05, 0.95] (matching the published violin
    range); the boundary values still terminate, converging one-sidedly.
    Each level pools its shots into one exact binomial interval at
    delta/levels, and intervals across levels intersect.
    """
    if not 0 <= omega <= 1:
        raise OutOfRangeError("omega must be in [0,1]")
    if not 0 < eps < 1 or not 0 < delta < 1:
        raise OutOfRangeError("eps and delta must be in (0,1)")
    rng = np.random.default_rng(seed)
    levels = max(8, math.ceil(math.log2(_HALF_PI / (2 * eps))) + 2)
    alpha = delta / levels
    theta = math.asin(omega)

    lo, hi = 0.0, _HALF_PI
    k = 0
    ones = shots = 0
    q = 0  # per-reflection tally
    n_rounds = n_shots = 0
    while (math.sin(hi) - math.sin(lo)) / 2 > eps and n_rounds < MAX_ROUNDS:
        k_new = _find_next_k(k, lo, hi)
        if k_new > k:
            k, ones, shots = k_new, 0, 0
        big = 2 * k + 1
        p = math.sin(big * theta) ** 2
        ones += int(rng.binomial(SHOTS_PER_ROUND, p))
        shots += SHOTS_PER_ROUND
        n_shots += SHOTS_PER_ROUND
        q += SHOTS_PER_ROUND * (k + 1)
        n_rounds += 1
        p_lo, p_hi = _clopper_pearson(ones, shots, alpha)
        quad = _quadrant(big * lo)
        base = (quad // 2) * math.pi
        if quad % 2 == 0:  # increasing branch
            x_lo = base + math.asin(math.sqrt(p_lo))
            x_hi = base + math.asin(math.sqrt(p_hi))
        else:
            x_lo = base + math.pi - math.asin(math.sqrt(p_hi))
            x_hi = base + math.pi - math.asin(math.sqrt(p_lo))
        lo = max(lo, x_lo / big)
        hi = min(hi, x_hi / big)
        if hi < lo:  # numerically crossed; collapse to the midpoint
            lo = hi = (lo + hi) / 2
    estimate = (math.sin(lo) + math.sin(hi)) / 2
    return AERunStats(
        q_psi=q, q_pi=q, estimate=float(estimate), true_amplitude=omega,
        succeeded=abs(estimate - omega) <= eps,
        n_rounds=n_rounds, n_shots=n_shots, seed=seed)


def end_to_end_vpa(params: ModelParams, t: float, eps: float, delta: float,
                   seed: int) -> AERunStats:
    """Estimate |G(t)| by amplitude estimation against the exact dynamics
    oracle, using half the error budget for estimation (the evolution half
    is exact here, mirroring the split of the end-to-end analysis)."""
    omega = abs(vacuum_persistence(params, t))
    stats = simulate_adaptive_ae(min(omega, 1.0), eps / 2, delta, seed)
    if stats.succeeded:
        assert abs(stats.estimate - omega) <= eps
    return stats

