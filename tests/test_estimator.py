import math
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
