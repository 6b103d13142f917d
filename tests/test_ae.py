import hashlib
import math

import numpy as np
import pytest

from schwinger_be import ae
from schwinger_be.model import OutOfRangeError, benchmark_params


def test_hoeffding_published_point():
    assert ae.hoeffding_queries(0.005, 0.05) == 73778


def test_hoeffding_formula_point():
    # eps=0.5, delta=2/e^2: ceil(ln(e^2) / (2 * 0.25)) = 4
    assert ae.hoeffding_queries(0.5, 2 / math.e ** 2) == 4


def test_hoeffding_quadratic_scaling():
    q1 = ae.hoeffding_queries(0.01, 0.05)
    q2 = ae.hoeffding_queries(0.005, 0.05)
    assert q2 / q1 == pytest.approx(4.0, rel=1e-3)


def test_chebae_formula():
    assert ae.chebae_query_formula(0.005) == 2964
    expect = math.ceil(5.874534 / 0.5 * math.log(2.08 * math.log(4)))
    assert ae.chebae_query_formula(0.5) == expect
    grid = [0.5, 0.1, 0.05, 0.01, 0.005]
    vals = [ae.chebae_query_formula(e) for e in grid]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_determinism_under_seed():
    a = ae.simulate_adaptive_ae(0.3, 0.005, 0.05, 42)
    b = ae.simulate_adaptive_ae(0.3, 0.005, 0.05, 42)
    assert a == b
    c = ae.simulate_adaptive_ae(0.3, 0.005, 0.05, 43)
    assert c != a


def test_query_tally_alternation():
    for seed in range(20):
        r = ae.simulate_adaptive_ae(0.4, 0.01, 0.05, seed)
        assert r.q_psi == r.q_pi


def test_large_eps_is_cheap():
    runs = [ae.simulate_adaptive_ae(0.5, 0.2, 0.05, s) for s in range(50)]
    assert np.mean([r.total_queries for r in runs]) < 100


def test_small_grid_statistics():
    # fast smoke version of the acceptance grid
    fails = 0
    totals = []
    for i, om in enumerate((0.2, 0.5, 0.8)):
        runs = [ae.simulate_adaptive_ae(om, 0.005, 0.05, 9_000 + 977 * i + r)
                for r in range(120)]
        fails += sum(not r.succeeded for r in runs)
        totals.append(np.mean([r.total_queries for r in runs]))
    assert fails / 360 <= 0.05 + 3 * math.sqrt(0.05 * 0.95 / 360)
    for t in totals:
        assert 1000 <= t <= 4000


@pytest.mark.parametrize("omega", [1e-4, 1e-3, 1e-2, 0.05])
def test_coverage_at_table3_amplitudes(omega):
    # |G(t)| at Table 3's cells lies far below the [0.05, 0.95] grid; the
    # runs there must keep the coverage and the query budget
    eps, delta, n = 0.005, 0.05, 400
    runs = [ae.simulate_adaptive_ae(omega, eps, delta, 52_000 + r)
            for r in range(n)]
    fails = sum(not r.succeeded for r in runs)
    assert fails / n <= delta + 3 * math.sqrt(delta * (1 - delta) / n)
    assert 1000 <= np.mean([r.total_queries for r in runs]) <= 4000


def test_chebae_formula_upper_bounds_typical_runs():
    # the worst-case closed form should dominate typical adaptive totals;
    # a violation is reported softly (schedule review), not asserted hard
    q_est = ae.chebae_query_formula(0.005)
    runs = [ae.simulate_adaptive_ae(0.5, 0.005, 0.05, s) for s in range(50)]
    over = [r.total_queries / 2 for r in runs if r.q_psi > q_est]
    if over:
        import warnings
        warnings.warn(f"adaptive schedule exceeded the worst-case formula "
                      f"on {len(over)} of 50 runs")
    assert np.mean([r.q_psi for r in runs]) < q_est


def test_rejects_bad_args():
    with pytest.raises(ValueError):
        ae.simulate_adaptive_ae(1.5, 0.01, 0.05, 0)
    with pytest.raises(ValueError):
        ae.simulate_adaptive_ae(0.5, 0.0, 0.05, 0)


def test_end_to_end_vpa_small_n():
    p = benchmark_params(4)
    ok = 0
    for seed in range(200):
        r = ae.end_to_end_vpa(p, 0.4, 0.01, 0.05, seed)
        ok += r.succeeded
        if r.succeeded:
            assert abs(r.estimate - r.true_amplitude) <= 0.01
    assert ok / 200 >= 0.95


def test_end_to_end_vpa_t_zero_boundary():
    # omega = 1: the estimator must terminate and land in [0.99, 1]
    p = benchmark_params(4)
    r = ae.end_to_end_vpa(p, 0.0, 0.01, 0.05, 5)
    assert r.true_amplitude == pytest.approx(1.0)
    assert 0.99 <= r.estimate <= 1.0 + 1e-12


def test_vpa_budget_split():
    # the estimation call receives exactly half the end-to-end budget
    p = benchmark_params(4)
    r = ae.end_to_end_vpa(p, 0.4, 0.01, 0.05, 11)
    direct = ae.simulate_adaptive_ae(r.true_amplitude, 0.005, 0.05, 11)
    assert r.q_psi == direct.q_psi and r.estimate == direct.estimate


def test_out_of_range_rules():
    for call in (lambda: ae.simulate_adaptive_ae(math.nan, 0.01, 0.05, 0),
                 lambda: ae.simulate_adaptive_ae(0.5, 0.01, 1.0, 0),
                 lambda: ae.simulate_adaptive_ae(0.5, math.nan, 0.05, 0),
                 lambda: ae.hoeffding_queries(0.01, 0.0),
                 lambda: ae.chebae_query_formula(1.0)):
        with pytest.raises(OutOfRangeError):
            call()


def test_clopper_pearson_matches_beta_ppf():
    # the interval reads the Beta quantiles from betaincinv; scipy.stats'
    # beta.ppf is the reference, and the floats must agree exactly
    from scipy.stats import beta
    for n in range(8, 137, 16):
        for ones in range(n + 1):
            for alpha in (0.05 / 8, 0.05 / 12):
                lo = 0.0 if ones == 0 else beta.ppf(alpha / 2, ones,
                                                    n - ones + 1)
                hi = 1.0 if ones == n else beta.ppf(1 - alpha / 2, ones + 1,
                                                    n - ones)
                assert ae._clopper_pearson(ones, n, alpha) == (lo, hi)


def _seeded_runs(order=1):
    grid = [(omega, eps, delta, seed)
            for omega in (0.0, 1e-4, 0.05, 0.3, 0.95, 1.0)
            for eps, delta in ((0.005, 0.05), (0.02, 0.1))
            for seed in range(5)]
    runs = {args: ae.simulate_adaptive_ae(*args) for args in grid[::order]}
    return [runs[args] for args in grid]


def test_adaptive_ae_digest():
    # every field of 60 seeded runs, bit for bit, boundary amplitudes
    # included; the CLI artifacts round the estimate to 12 digits
    digest = hashlib.sha256(repr(_seeded_runs()).encode()).hexdigest()
    assert digest == ("e98b595a03631f9f38770ba2e4eb826c"
                      "5574ef5ce1a1ae5148fd5aad442c2dc2")


def test_runs_do_not_depend_on_interval_cache():
    ae._clopper_pearson.cache_clear()
    cold = _seeded_runs()
    misses = ae._clopper_pearson.cache_info().misses
    warm = _seeded_runs()
    assert ae._clopper_pearson.cache_info().misses == misses
    assert _seeded_runs(order=-1) == warm == cold
