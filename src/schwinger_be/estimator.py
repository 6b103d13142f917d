"""Closed-form T-count and qubit-count formulas, and end-to-end estimates.

The formula layer mirrors the construction layer one-to-one: every
subroutine builder has one cost expression here, and the full
block-encoding, time-evolution, and vacuum-persistence estimates compose
them exactly the way the circuits compose.  The leaf prices (rotations,
reflections, comparators, subtractors, swaps, SELECTs) are the functions of
:mod:`schwinger_be.circuit` that its gate tally calls.  As a builder applies
its control gate by gate through ``subroutines._control``, a controlled
closed form is the uncontrolled one plus the increments ``_control``
defines: controlled UNIs, reflections one qubit wider and phase rotations
split in two; and a second subtraction in place of a flag Toffoli.  The
full encoding's error budget is one number, ``error_share``, which
``blockenc`` reads as well, as the SELECT gates read ``select_terms``
and every caller reads ``check_encoding_size``, the encoding's one size
rule.  Logs appear ceiled, as in the per-rotation price.

All T counts are reals (the rotation-synthesis constant C is irrational);
``ResourceReport.of`` ceils them into ``t_count`` by the rule the gate
tally uses and keeps the raw value as ``t_real``.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .circuit import (C_ROT, ResourceReport, cswap_cost, ineq_cost,
                      reflection_cost, rotation_cost, rotation_log_cost,
                      sub_cost, unary_iteration_cost)
from .model import (ModelParams, OutOfRangeError, benchmark_params,
                    normalization)

DEFAULT_T_RATE = 1e6  # T gates per second for runtime conversion


@dataclass(frozen=True)
class FactorTwoDecomposition:
    """M = 2**z * r with r odd."""
    input: int
    z: int
    r: int


def factor_two(m: int) -> FactorTwoDecomposition:
    if m < 1:
        raise ValueError("factor_two requires a positive integer")
    z, r = 0, m
    while r % 2 == 0:
        r //= 2
        z += 1
    return FactorTwoDecomposition(m, z, r)


def clog2(x) -> int:
    """Ceiling log2 for integers or reals (exact for powers of two)."""
    if isinstance(x, int):
        return (x - 1).bit_length()
    return math.ceil(math.log2(x))


# -- subroutine closed forms (match the builders gate for gate) --------------


def uni_cost(m: int, eps: float, controlled: bool = False) -> float:
    ft = factor_two(m)
    l = clog2(ft.r)
    t = 2 * rotation_log_cost(2 / eps) + 12 * l + 2 * C_ROT - 4
    if controlled:
        t += 4 * ft.z + 4 * l + 12
    return t


def _ps_cost(n: int, eps: float, controlled: bool, odd: bool) -> float:
    """P_S1 (even) or P_S2 (odd): two UNIs, the complement swap and its
    branch; the controlled form uncomputes the complement with a second
    subtraction in place of the uncontrolled success Toffoli."""
    m = n // 2 if odd else -(-n // 2)
    b, c = clog2(m), int(controlled)
    return (uni_cost(m, eps / 2, controlled)
            + uni_cost(m if odd else m - 1, eps / 2, controlled)
            + (1 + c) * sub_cost(b) + ineq_cost(b + 1)
            + cswap_cost(b, controlled) + 4 * (1 - c))


def ps1_cost(n: int, eps: float, controlled: bool = False) -> float:
    return _ps_cost(n, eps, controlled, odd=False)


def ps2_cost(n: int, eps: float, controlled: bool = False) -> float:
    return _ps_cost(n, eps, controlled, odd=True)


def ps3_prime_cost(n: int, eps: float, controlled: bool = False) -> float:
    # controlled: one UNI and the flag Toffoli become controlled; the chain
    # prices that Toffoli at its plain cost, as its own controls are zero
    # whenever the outer control is off
    return (uni_cost(n, eps / 3, controlled)
            + 2 * uni_cost(n, eps / 3, False) + ineq_cost(clog2(n)) + 4)


def ps3_cost(n: int, eps: float, controlled: bool = False) -> float:
    b, c = clog2(n), int(controlled)
    return (ps3_prime_cost(n, 6 * eps / 20, controlled)
            + 2 * ps3_prime_cost(n, 6 * eps / 20, False)
            + 2 * rotation_cost(eps / 20)
            + reflection_cost(2 * b + 3 + c) + 2 * reflection_cost(b + 3 + c))


def p1_cost(n: int, eps: float) -> float:
    return (ps1_cost(n, 4 * eps / 39, True)
            + ps2_cost(n, 4 * eps / 39, True)
            + ps3_cost(n, 20 * eps / 39, True)
            + uni_cost(n - 1, 2 * eps / 39, True)
            + uni_cost(n, 2 * eps / 39, True)
            + 7 * rotation_cost(eps / 39) + 44)


def p1_ancillas(n: int) -> tuple[int, int]:
    """(reusable, unreusable) ancilla counts of the coefficient preparation."""
    np_, npp = -(-n // 2), n // 2
    lp = clog2(factor_two(np_).r)
    kp = clog2(factor_two(np_ - 1).r)
    lpp = clog2(factor_two(npp).r)
    b = clog2(n)
    reusable = max(2 * lp + 2 * kp + 1, 4 * lpp + 1, 2 * b) + 2
    unreusable = max(2 * clog2(np_) + clog2(np_ - 1), 3 * clog2(npp)) + 4
    return reusable, unreusable


def amplification_rounds(delta: float) -> int:
    """Smallest odd d >= sqrt(2) ln(2/sqrt(delta))."""
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0,1)")
    d = math.ceil(math.sqrt(2) * math.log(2 / math.sqrt(delta)))
    return d + 1 if d % 2 == 0 else max(d, 1)


def p2_cost(n: int, eps: float, delta: float,
            controlled: bool = False) -> float:
    # controlled: each phase rotation is split in two at eps/(2d), the
    # Hadamard layer doubly controlled and the success flag a Toffoli
    b, d, k = clog2(n), amplification_rounds(delta), 1 + int(controlled)
    rot = rotation_cost(eps / (k * d))
    return ((d - 1) / 2 * (2 * k * rot + ineq_cost(b) + 8 * b
                           + reflection_cost(b + 1))
            + (k * rot + 2 * ineq_cost(b) + 4 * k * b + sub_cost(b)
               + sub_cost(b) + 4 * (k - 1)))


def p2_ancillas(n: int) -> int:
    return 6 * clog2(n)


#: the encoding's five SELECTs as (term kind, control count)
SELECT_VARIANTS = frozenset({("xx", 3), ("yy", 3), ("z", 2), ("z2", 3),
                             ("z2", 4)})


def select_terms(kind: str, n: int) -> int:
    """Term count L of a SELECT on N sites: N-1 hopping pairs, N Z sites."""
    return n - 1 if kind in ("xx", "yy") else n


def check_select_variant(kind: str, controls: int) -> None:
    """Raise ``ValueError`` unless (kind, controls) is a SELECT_VARIANT."""
    if (kind, controls) not in SELECT_VARIANTS:
        raise ValueError(f"unsupported SELECT variant ({kind}, {controls} controls)")


def select_cost(kind: str, n: int, controls: int) -> int:
    """One of the encoding's SELECTs on N sites, priced by
    ``unary_iteration_cost`` over its ``select_terms``."""
    check_select_variant(kind, controls)
    return unary_iteration_cost(select_terms(kind, n), controls)


# -- block-encoding / evolution / end-to-end ----------------------------------


#: Smallest N of the encoding: the domain its closed forms were written and
#: checked for.  No construction needs it: the gate-level P_S3's bound
#: ``subroutines.ps3_amplitude(N)`` > 1/2 holds from N = 6.  N is even.
MIN_SITES = 8


def check_encoding_size(n: int) -> None:
    """Raise ``OutOfRangeError`` unless the encoding is defined at N = n."""
    if n < MIN_SITES:
        raise OutOfRangeError(f"the block encoding needs N >= {MIN_SITES}")


def block_encoding_ancillas(n: int) -> int:
    return p2_ancillas(n) + p1_ancillas(n)[1] + 2


def _encoding_report(t: float, n: int, system: int) -> ResourceReport:
    """Report of T count ``t`` on ``system`` qubits plus the encoding's
    ancillas, of which P1's junk and two more are unreusable."""
    junk = p1_ancillas(n)[1] + 2
    anc = block_encoding_ancillas(n)
    return ResourceReport.of(t, anc - junk, junk, system + anc)


def error_share(eps: float, alpha: float) -> float:
    """The equal share e1 = eps / (14 alpha_S) of block error eps.

    P1's synthesis error, P2's synthesis error and P2's amplification
    residual delta each get e1; they enter the block error as
    2 e1 + 4 e1 + 8 e1 = eps / alpha_S.  The encoding's closed form, its
    assembly and its verification all take their errors from here."""
    return eps / (14 * alpha)


def _priceable(eps: float, alpha: float) -> bool:
    """Whether the closed forms price block error eps: its share e1, P2's
    amplification residual, lies in (0, 1), and e1/(2d), the encoding's
    smallest rotation error, is a normal float, so clog2(1/error) is finite."""
    e1 = error_share(eps, alpha)
    tiny = e1 / (2 * amplification_rounds(e1)) if 0 < e1 < 1 else 0.0
    return tiny >= sys.float_info.min


def block_encoding_cost(params: ModelParams, eps: float) -> ResourceReport:
    """Full block-encoding cost: four controlled prefix preparations, two
    coefficient preparations, five controlled SELECTs, one reflection."""
    n = params.n_sites
    check_encoding_size(n)
    alpha = normalization(params).alpha_s
    if not _priceable(eps, alpha):
        raise OutOfRangeError(f"eps = {eps:.6g} is outside (0, 14 alpha_S = "
                              f"{14 * alpha:.6g}) or too small to price")
    b = clog2(n)
    e1 = error_share(eps, alpha)
    t = (4 * p2_cost(n, e1, e1, True)
         + 2 * p1_cost(n, e1)
         + select_cost("xx", n, 3) + select_cost("yy", n, 3)
         + select_cost("z", n, 2) + select_cost("z2", n, 3)
         + select_cost("z2", n, 4)
         + reflection_cost(b + 3))
    return _encoding_report(t, n, n + 2 * b + 3)


def evolution_rounds(alpha: float, t: float, eps: float) -> int:
    """Smallest even r >= 2*alpha*|t| + 3 ln(9/eps)."""
    bound = 2 * alpha * abs(t) + 3 * math.log(9 / eps)
    if not math.isfinite(bound):  # 9/eps overflows below eps = 5e-308
        raise OutOfRangeError(f"t = {t:.6g} and eps = {eps:.6g} give no "
                              "finite round count")
    r = math.ceil(bound)
    return r + 1 if r % 2 == 1 else r


def evolution_cost(params: ModelParams, t: float,
                   eps: float) -> ResourceReport:
    """T cost of a unit-normalized block-encoding of exp(-iHt)."""
    n = params.n_sites
    check_encoding_size(n)
    if not 0 < eps < 1:
        raise OutOfRangeError("eps must be in (0,1)")
    b = clog2(n)
    if t == 0:
        return ResourceReport.of(0.0, 0, 0, n + 2 * b + 5)
    alpha = normalization(params).alpha_s
    be_eps = eps / (3 * abs(t))  # out of range for too long or short a t
    if not _priceable(be_eps, alpha):
        raise OutOfRangeError(f"t = {t:.6g} is out of the closed forms' range")
    r = evolution_rounds(alpha, t, eps)
    chs = block_encoding_cost(params, be_eps).t_real
    phase_ratio = 18 * (2 * r + 1) / eps
    if not math.isfinite(phase_ratio):
        raise OutOfRangeError(f"eps = {eps:.6g} is too small to price")
    lg = rotation_log_cost(phase_ratio)
    t_total = (r * (3 * chs + 12 * lg + 24 * b + 12 * C_ROT + 24)
               + 3 * chs + 6 * lg + 40 * b + 6 * C_ROT + 120)
    if not math.isfinite(t_total):
        raise OutOfRangeError(f"t = {t:.6g} is out of the closed forms' range")
    return _encoding_report(t_total, n, n + 2 * b + 5)


#: Empirical average reflection-query total of the adaptive amplitude
#: estimation at (eps, delta) = (0.005, 0.05); each query to the state
#: reflection costs two time evolutions.
AE_TOTAL_QUERIES = 2000
VPA_EVOLUTION_EPS = 0.005


def vpa_ancillas(n: int) -> int:
    b = clog2(n)
    return max(n + 2 * b + 3, block_encoding_ancillas(n))


def vpa_cost(params: ModelParams, t: float) -> ResourceReport:
    """End-to-end T count for estimating |G(t)| to 0.01 with confidence 0.95.

    2000 reflection queries on average; a state reflection costs two
    evolution calls plus one (N+2b+5)-qubit reflection, a projector
    reflection costs one such reflection.
    """
    n = params.n_sites
    b = clog2(n)
    ct = evolution_cost(params, t, VPA_EVOLUTION_EPS).t_real
    t_total = AE_TOTAL_QUERIES * (ct + 4 * n + 8 * b + 12)
    if not math.isfinite(t_total):
        raise OutOfRangeError(f"t = {t:.6g} is out of the closed forms' range")
    return ResourceReport.of(t_total, vpa_ancillas(n), 0, logical_qubits(n))


def logical_qubits(n: int) -> int:
    """Logical-qubit count of the end-to-end run: system plus encoding
    ancillas plus the amplitude-estimation working ancillas."""
    b = clog2(n)
    return n + 2 * b + 5 + vpa_ancillas(n)


@dataclass(frozen=True)
class EstimateRow:
    n_sites: int
    wt: float
    epsilon: float
    t_count: float
    runtime_days: float
    ancilla: int
    logical_qubits: int


TABLE3_N = (16, 32, 64, 128, 256)
TABLE3_WT = (1.0, 10.0, 100.0)


def table3(n_values=TABLE3_N, wt_values=TABLE3_WT,
           rate: float = DEFAULT_T_RATE) -> list[EstimateRow]:
    """End-to-end estimates over the benchmark grid (eps = 0.01 total)."""
    if not (n_values and wt_values) or not 0 < rate < math.inf:
        raise OutOfRangeError("empty grid, or a rate not finite and positive")
    rows = []
    for n in n_values:
        params = benchmark_params(n)
        for wt in wt_values:
            t = wt / params.w
            rep = vpa_cost(params, t)
            rows.append(EstimateRow(
                n_sites=n, wt=wt, epsilon=0.01,
                t_count=rep.t_real,
                runtime_days=rep.t_real / rate / 86400.0,
                ancilla=rep.ancilla_reusable,
                logical_qubits=rep.total_qubits))
    return rows


@dataclass(frozen=True)
class PhysicalEstimate:
    p_phys: float
    code_distance: int
    logical_qubits: int
    physical_qubits: int


def physical_qubits(t_count: float, n_logical: int,
                    p_phys: float) -> PhysicalEstimate:
    """Surface-code footprint: smallest odd distance d with
    0.1 (100 p)^((d+1)/2) < 1/M, M = 100 T, then 4 * N_tot * 2 d^2."""
    if not 0 < p_phys < 0.01:
        raise OutOfRangeError("p_phys must be in (0, 0.01): the logical "
                              "error rate no longer falls with distance")
    if not t_count > 0:  # also NaN; ln(10/M) needs M > 0
        raise OutOfRangeError(f"T count must be > 0, got {t_count:.6g}")
    m_gates = 100.0 * t_count
    if not math.isfinite(m_gates):  # 1/M = 0: no distance would do
        raise OutOfRangeError(f"T count {t_count:.6g} is too large to price")

    def too_short(d):
        return 0.1 * (100 * p_phys) ** ((d + 1) / 2) >= 1.0 / m_gates
    # (d+1)/2 > ln(10/M) / ln(100 p); the steps mend the logs' rounding
    k = math.log(10.0 / m_gates) / math.log(100 * p_phys)
    d = 2 * math.ceil(max(k, 1)) - 1
    while d > 1 and not too_short(d - 2):
        d -= 2
    while too_short(d):
        d += 2
    return PhysicalEstimate(
        p_phys=p_phys, code_distance=d, logical_qubits=n_logical,
        physical_qubits=4 * n_logical * 2 * d * d)
