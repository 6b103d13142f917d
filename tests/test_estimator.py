import hashlib
import math
import random
import sys

import pytest

from schwinger_be import estimator as est
from schwinger_be.model import benchmark_params, normalization

# Published end-to-end table (T counts and runtimes at one T gate per
# microsecond).  The strict 3-significant-figure comparison lives in the
# acceptance suite; here the implementation is pinned to stay within 1% of
# every published cell, which is the reproduction band the displayed
# formulas achieve (see the acceptance test for the full analysis).
PUBLISHED_T = {
    (16, 1): 9.11e9, (16, 10): 7.77e10, (16, 100): 8.25e11,
    (32, 1): 3.00e10, (32, 10): 3.25e11, (32, 100): 3.83e12,
    (64, 1): 1.88e11, (64, 10): 2.19e12, (64, 100): 2.54e13,
    (128, 1): 1.60e12, (128, 10): 1.72e13, (128, 100): 1.97e14,
    (256, 1): 1.41e13, (256, 10): 1.61e14, (256, 100): 1.82e15,
}


def test_factor_two():
    ft = est.factor_two(16)
    assert (ft.z, ft.r) == (4, 1)
    ft = est.factor_two(15)
    assert (ft.z, ft.r) == (0, 15)
    assert est.factor_two(12).r == 3
    with pytest.raises(ValueError):
        est.factor_two(0)


def test_decompositions_at_n16():
    # N'=N''=8, (eta,L)=(4,1) for N, (mu,K)=(0,15) for N-1
    assert est.factor_two(8).z == 3
    assert est.factor_two(7) == est.FactorTwoDecomposition(7, 0, 7)


def test_block_encoding_ancilla_expression():
    # 6b + max(2 ceil(lg N') + ceil(lg(N'-1)), 3 ceil(lg N'')) + 6
    assert est.block_encoding_ancillas(16) == 6 * 4 + max(2 * 3 + 3, 3 * 3) + 6


def test_block_encoding_cost_monotone_in_precision():
    p = benchmark_params(16)
    assert (est.block_encoding_cost(p, 1e-4).t_real
            > est.block_encoding_cost(p, 1e-2).t_real)


def test_block_encoding_rejects():
    with pytest.raises(ValueError):
        est.block_encoding_cost(benchmark_params(16), -1.0)
    with pytest.raises(ValueError):
        est.block_encoding_cost(benchmark_params(4), 1e-2)


def test_evolution_rounds_example():
    # N=16, wt=1 (t=0.4), eps=0.005, alpha=63: smallest even >= 72.9
    alpha = normalization(benchmark_params(16)).alpha_s
    r = est.evolution_rounds(alpha, 0.4, 0.005)
    assert r == 74
    assert r % 2 == 0
    assert r >= 2 * alpha * 0.4


def test_evolution_zero_time():
    rep = est.evolution_cost(benchmark_params(16), 0.0, 0.005)
    assert rep.t_count == 0


def test_evolution_roughly_linear_in_time():
    p = benchmark_params(16)
    t1 = est.evolution_cost(p, 4.0, 0.005).t_real
    t2 = est.evolution_cost(p, 8.0, 0.005).t_real
    assert t2 / t1 == pytest.approx(2.0, rel=0.05)


def test_vpa_cost_structure():
    # T = 2000 (C_time + 4N + 8b + 12); the reflection subcost is 4nu-8
    # with nu = N + 2b + 5
    n, b = 16, 4
    p = benchmark_params(n)
    ct = est.evolution_cost(p, 0.4, est.VPA_EVOLUTION_EPS).t_real
    rep = est.vpa_cost(p, 0.4)
    assert rep.t_real == pytest.approx(2000 * (ct + 4 * n + 8 * b + 12))
    nu = n + 2 * b + 5
    assert 4 * nu - 8 == 4 * n + 8 * b + 12


def test_table3_within_one_percent_of_published():
    rows = est.table3()
    assert len(rows) == 15
    worst = 0.0
    for r in rows:
        pub = PUBLISHED_T[(r.n_sites, int(r.wt))]
        rel = abs(r.t_count - pub) / pub
        worst = max(worst, rel)
        assert rel < 0.010, (r.n_sites, r.wt, r.t_count, pub)
        assert r.runtime_days == pytest.approx(r.t_count / 86400e6)
    assert worst < 0.0095


def test_table3_regression_pin():
    # freeze the faithfully-evaluated values so formula regressions surface
    rows = {(r.n_sites, int(r.wt)): r.t_count for r in est.table3()}
    assert rows[(16, 1)] == pytest.approx(9.12845028e9, rel=1e-8)
    assert rows[(128, 10)] == pytest.approx(1.72432665e13, rel=1e-8)
    assert rows[(256, 100)] == pytest.approx(1.81748358e15, rel=1e-8)


def test_t_count_monotone_over_grid():
    rows = est.table3()
    by_wt, by_n = {}, {}
    for r in rows:
        by_wt.setdefault(r.wt, []).append((r.n_sites, r.t_count))
        by_n.setdefault(r.n_sites, []).append((r.wt, r.t_count))
    for vals in list(by_wt.values()) + list(by_n.values()):
        ts = [t for _, t in sorted(vals)]
        assert all(a < b for a, b in zip(ts, ts[1:]))


def test_physical_qubits_headline():
    # N=64, wt=10: published 2.19e12 T gates; about 9e5 physical qubits at
    # p=1e-3 (distance 27) and about 2e5 at p=1e-4
    nl = est.logical_qubits(64)
    pe = est.physical_qubits(2.19e12, nl, 1e-3)
    assert pe.code_distance == 27
    assert pe.physical_qubits == pytest.approx(9e5, rel=0.2)
    pe2 = est.physical_qubits(2.19e12, nl, 1e-4)
    assert pe2.physical_qubits == pytest.approx(2e5, rel=0.2)
    assert pe.code_distance % 2 == 1


def test_physical_qubits_monotone_in_error_rate():
    nl = est.logical_qubits(64)
    d1 = est.physical_qubits(1e12, nl, 1e-3).code_distance
    d2 = est.physical_qubits(1e12, nl, 1e-4).code_distance
    assert d2 <= d1


def test_physical_qubits_distance_validity():
    nl = est.logical_qubits(64)
    pe = est.physical_qubits(2.19e12, nl, 1e-3)
    m = 100 * 2.19e12
    p_l = 0.1 * (100 * 1e-3) ** ((pe.code_distance + 1) / 2)
    assert p_l < 1 / m
    p_l_prev = 0.1 * (100 * 1e-3) ** ((pe.code_distance - 1) / 2)
    assert p_l_prev >= 1 / m


def test_physical_qubits_rejects_threshold():
    with pytest.raises(ValueError):
        est.physical_qubits(1e12, 100, 0.01)
    with pytest.raises(ValueError):
        est.physical_qubits(1e12, 100, 0.02)


@pytest.mark.parametrize("t_count", [0.0, -5.0, math.nan])
def test_physical_qubits_rejects_nonpositive_t_count(t_count):
    # refused before ln(10/M), which 0 would divide by zero and -5 would
    # take of a negative number; NaN falls under the same rule, not under
    # "too large to price"
    with pytest.raises(est.OutOfRangeError, match="must be > 0"):
        est.physical_qubits(t_count, 10, 1e-3)


def _distance_by_search(t_count, p_phys):
    """The smallest odd distance, found by trying d = 1, 3, 5, ..."""
    d = 1
    while 0.1 * (100 * p_phys) ** ((d + 1) / 2) >= 1.0 / (100.0 * t_count):
        d += 2
    return d


def test_physical_qubits_distance_matches_search():
    # powers of ten put (d+1)/2 = ln(10/M)/ln(100 p) on an integer, where
    # the logarithms' rounding decides; the random points cover the rest
    grid = [(10.0 ** j, 10.0 ** -k) for j in range(0, 301, 3)
            for k in range(3, 10)]
    rng = random.Random(5)
    grid += [(10 ** rng.uniform(0, 300), 10 ** rng.uniform(-12, -2.005))
             for _ in range(300)]
    for t, p in grid:
        assert (est.physical_qubits(t, 10, p).code_distance
                == _distance_by_search(t, p)), (t, p)


def test_physical_qubits_near_threshold():
    # p just below 1%: the distance runs to millions (the search above,
    # run to the end, gives the same 6143631)
    p = benchmark_params(64)
    t = est.vpa_cost(p, 10.0 / p.w).t_real
    d = est.physical_qubits(t, est.logical_qubits(64), 0.0099999).code_distance
    assert d == 6_143_631
    for dd, ok in ((d, True), (d - 2, False)):
        assert (0.1 * (100 * 0.0099999) ** ((dd + 1) / 2)
                < 1 / (100 * t)) == ok


def test_logical_qubit_interpretation():
    # system + encoding width + estimation ancillas
    n, b = 64, 6
    anc = max(n + 2 * b + 3, est.block_encoding_ancillas(n))
    assert est.logical_qubits(n) == n + 2 * b + 5 + anc


def test_out_of_range_rules():
    p = benchmark_params(16)
    for call in (lambda: est.table3((), (1.0,)),
                 lambda: est.table3((16,), ()),
                 lambda: est.table3((16,), (1.0,), rate=math.nan),
                 lambda: est.table3((16,), (1.0,), rate=math.inf),
                 lambda: est.vpa_cost(benchmark_params(6), 1.0),
                 lambda: est.evolution_cost(p, 1.0, 1.0),
                 lambda: est.block_encoding_cost(p, 0.0),
                 lambda: est.block_encoding_cost(p, 14 * 63.0),
                 lambda: est.physical_qubits(1e12, 100, 0.01),
                 lambda: est.physical_qubits(1e307, 100, 1e-3)):
        with pytest.raises(est.OutOfRangeError):
            call()


@pytest.mark.parametrize("n", [8, 16, 256])
def test_costs_are_finite_or_refused(n):
    # over the times and errors where the closed forms start to overflow,
    # each cost is a finite count or an OutOfRangeError, never an overflow
    p = benchmark_params(n)
    alpha = normalization(p).alpha_s
    refused = set()
    for k in range(270, 309):
        for label, call in (
                ("be", lambda: est.block_encoding_cost(p, 10.0 ** -k)),
                ("evo", lambda: est.evolution_cost(p, 10.0 ** k, 0.005)),
                ("vpa", lambda: est.vpa_cost(p, 10.0 ** k)),
                ("phys", lambda: est.physical_qubits(
                    est.vpa_cost(p, 10.0 ** k).t_real, 100, 1e-3))):
            try:
                rep = call()
            except est.OutOfRangeError:
                refused.add((label, k))
                continue
            t = rep.physical_qubits if label == "phys" else rep.t_real
            assert math.isfinite(t)
    # the costs price |t| = 1e290 and refuse every time from 1e300 on
    assert not {("evo", 290), ("vpa", 290)} & refused
    assert all(("evo", k) in refused for k in range(300, 309))
    # the refused block errors are those whose P2 rotation error e1/(2d),
    # e1 = eps/(14 alpha_S), falls below the smallest normal float
    for k in range(270, 309):
        e1 = 10.0 ** -k / (14 * alpha)
        tiny = e1 / (2 * est.amplification_rounds(e1))
        assert (("be", k) in refused) == (tiny < sys.float_info.min)
    for t in (math.inf, -math.inf, math.nan):
        with pytest.raises(est.OutOfRangeError):
            est.evolution_cost(p, t, 0.005)


@pytest.mark.parametrize("n", [8, 16, 256])
def test_evolution_errors_are_finite_or_refused(n):
    # down to the subnormal evolution errors, where 9/eps and the phase
    # estimation's 18 (2r + 1)/eps overflow, each cost is finite or refused
    p = benchmark_params(n)
    for t in (1e-10, 1e-3, 1.0):
        for k in range(270, 324):
            try:
                rep = est.evolution_cost(p, t, 10.0 ** -k)
            except est.OutOfRangeError:
                continue
            assert math.isfinite(rep.t_real)
    with pytest.raises(est.OutOfRangeError):
        est.evolution_cost(benchmark_params(16), 1e-10, 1e-305)


def _closed_form_grid():
    """(name, value) of every closed form over a fixed grid: odd and even n,
    both controls, several errors and amplification deltas, and the
    end-to-end reports at system sizes the block encoding accepts."""
    sizes = list(range(3, 40)) + [64, 127, 128, 256, 1024, 4096]
    errors = (0.5, 1e-2, 3e-5, 1e-9, 7.3e-13)
    for n in [1, 2] + sizes:
        for eps in errors:
            for c in (False, True):
                yield f"uni({n},{eps},{c})", est.uni_cost(n, eps, c)
    for n in sizes:
        yield f"p1_ancillas({n})", est.p1_ancillas(n)
        yield f"block_encoding_ancillas({n})", est.block_encoding_ancillas(n)
        for eps in errors:
            yield f"p1({n},{eps})", est.p1_cost(n, eps)
            for c in (False, True):
                yield f"ps1({n},{eps},{c})", est.ps1_cost(n, eps, c)
                yield f"ps2({n},{eps},{c})", est.ps2_cost(n, eps, c)
                yield f"ps3'({n},{eps},{c})", est.ps3_prime_cost(n, eps, c)
                yield f"ps3({n},{eps},{c})", est.ps3_cost(n, eps, c)
                for delta in (0.9, 0.05, 1e-2, 1e-7):
                    yield (f"p2({n},{eps},{delta},{c})",
                           est.p2_cost(n, eps, delta, c))
        for kind, controls in sorted(est.SELECT_VARIANTS):
            yield (f"select({kind},{n},{controls})",
                   est.select_cost(kind, n, controls))
    for n in (8, 10, 16, 64, 128):
        p = benchmark_params(n)
        for eps in (1.0, 1e-2, 1e-6):
            yield f"block({n},{eps})", est.block_encoding_cost(p, eps)
        for t in (0.0, 0.4, 25.0):
            yield f"evolution({n},{t})", est.evolution_cost(p, t, 0.005)
            yield f"vpa({n},{t})", est.vpa_cost(p, t)


#: sha256 of the grid's reprs; any change to a closed form's value, down to
#: the last bit of a float, changes it
CLOSED_FORM_DIGEST = (
    "1e3ec3b92396f84e1c122651d70ffeb941b11a9193f56a8649bdaae065f3392b")


def test_closed_form_digest():
    h = hashlib.sha256()
    for name, value in _closed_form_grid():
        h.update(f"{name} = {value!r}\n".encode())
    assert h.hexdigest() == CLOSED_FORM_DIGEST


# -- the abstract's claims ------------------------------------------------------


def test_abstract_claims_on_the_closed_forms():
    """alpha_S = O(N^3), T = O(N + log^2(N/eps)) with the five SELECTs as
    the whole linear part, and about 10^13 T at (N, wt) = (128, 10).
    Measured on this scan (N = 2^3 .. 2^24, benchmark parameters):
    alpha_S / N^3 is 10.24 j/24 at N = 8 and j/24 (1 + 4.5e-7) at 2^24;
    the slope (T(N) - T(N/2)) / (N/2) at 2^24 is 20.00153, 20.00173 and
    20.00203 for eps = 1e-2, 1e-6, 1e-12, and at most 20.029 from 2^20 on;
    (T - SELECTs) / log2^2(1/e1) runs from 70.26 down to 30.05 (1e-2),
    39.30 to 27.50 (1e-6) and 28.52 to 25.18 (1e-12); table3 gives
    1.7243e13 at (128, 10)."""
    sizes = [1 << k for k in range(3, 25)]
    j24 = benchmark_params(8).j / 24
    cubic = [normalization(benchmark_params(n)).alpha_s / n ** 3 / j24
             for n in sizes]
    assert 10.2 < cubic[0] < 10.25
    assert all(1 < c < d for c, d in zip(cubic[1:], cubic))  # falls to 1
    assert cubic[-1] < 1 + 5e-7
    for eps in (1e-2, 1e-6, 1e-12):
        t, ratios = [], []
        for n in sizes:
            p = benchmark_params(n)
            e1 = est.error_share(eps, normalization(p).alpha_s)
            t.append(est.block_encoding_cost(p, eps).t_real)
            selects = sum(est.select_cost(kind, n, c)
                          for kind, c in est.SELECT_VARIANTS)
            ratios.append((t[-1] - selects) / math.log2(1 / e1) ** 2)
        slopes = [(b - a) / (n / 2) for a, b, n in zip(t, t[1:], sizes[1:])]
        assert all(20 < s < 20.03 for s in slopes[-5:]), (eps, slopes)
        assert slopes[-1] < 20.0025, (eps, slopes)
        assert 24 < min(ratios) and max(ratios) < 71, (eps, ratios)
        assert ratios[-1] < 31 and ratios[-1] < ratios[0], (eps, ratios)
    (row,) = est.table3((128,), (10.0,))
    assert f"{row.t_count:.3g}" == "1.72e+13"
