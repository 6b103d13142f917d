"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints a single [PASS]/[FAIL] line.  Criterion 1 compares every
published T count and runtime at 3 significant figures.  Under that
comparison one cell, (N=16, wt=1), is self-inconsistent: T=9.11e9 needs
T < 9.115e9, but 0.106 days needs T >= 9.1152e9.  The test finds such cells
from the published pairs and there asks T to match one of the two figures;
every other cell must match both.  At the runtime's printed precision a
second cell, (N=256, wt=100), is self-inconsistent as well (20990 days needs
T < 1.8140e15, T=1.82e15 needs T >= 1.815e15), but at 3 figures it is not.
The remaining 10 mismatching cells, all within 0.86%, stay open until the
paper's full text, with its cost formulas, is in the repository.
"""
import math

import numpy as np
import pytest

from schwinger_be import ae
from schwinger_be import blockenc as be
from schwinger_be import estimator as est
from schwinger_be import subroutines as sub
from schwinger_be.model import benchmark_params, build_hamiltonian, to_dense
from schwinger_be.model import exact_evolution, particle_density, vacuum_persistence
from schwinger_be.simulate import (check_basis_permutation, project_success,
                                   register_weights, simulate_statevector)
from test_blockenc import chebyshev_square, unitary_dilation

PUBLISHED = {
    (16, 1): (9.11e9, 0.106), (16, 10): (7.77e10, 0.899),
    (16, 100): (8.25e11, 9.55),
    (32, 1): (3.00e10, 0.347), (32, 10): (3.25e11, 3.76),
    (32, 100): (3.83e12, 44.3),
    (64, 1): (1.88e11, 2.18), (64, 10): (2.19e12, 25.3),
    (64, 100): (2.54e13, 294),
    (128, 1): (1.60e12, 18.5), (128, 10): (1.72e13, 200),
    (128, 100): (1.97e14, 2276),
    (256, 1): (1.41e13, 163), (256, 10): (1.61e14, 1864),
    (256, 100): (1.82e15, 20990),
}


def sig3(x: float) -> float:
    e = math.floor(math.log10(abs(x)))
    return round(x, -e + 2)


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))


# The published runtimes are the T counts at 10^6 T gates per second.
T_PER_DAY = 1e6 * 86400.0


def sig3_interval(x: float) -> tuple[float, float]:
    """The values v with sig3(v) == sig3(x), up to the rounding at the two
    ends; exact while x's three-figure mantissa exceeds 1.00, as in every
    published cell."""
    c = sig3(x)
    half = 0.5 * 10.0 ** (math.floor(math.log10(abs(c))) - 2)
    return c - half, c + half


def consistent_t(pub_t: float, pub_d: float):
    """The T interval whose count and runtime both match the published pair
    at 3 significant figures, or None where no T does."""
    t_lo, t_hi = sig3_interval(pub_t)
    d_lo, d_hi = sig3_interval(pub_d)
    lo, hi = max(t_lo, d_lo * T_PER_DAY), min(t_hi, d_hi * T_PER_DAY)
    return (lo, hi) if lo < hi else None


def test_criterion_1_table3_reproduction():
    rows = {(r.n_sites, int(r.wt)): r for r in est.table3()}
    lines, bad, unattainable, worst = [], [], [], 0.0
    for key, (pub_t, pub_d) in sorted(PUBLISHED.items()):
        r = rows[key]
        rel = (r.t_count - pub_t) / pub_t
        worst = max(worst, abs(rel))
        mt = sig3(r.t_count) == sig3(pub_t)
        md = sig3(r.runtime_days) == sig3(pub_d)
        span = consistent_t(pub_t, pub_d)
        if span is None:
            # no T matches both figures; matching either is the most possible
            unattainable.append(key)
            ok_cell = mt or md
            need = "no T matches both"
        else:
            mid = (span[0] + span[1]) / 2
            assert sig3(mid) == sig3(pub_t)
            assert sig3(mid / T_PER_DAY) == sig3(pub_d)
            ok_cell = mt and md
            need = f"needs T in [{span[0]:.5e}, {span[1]:.5e}]"
        if not ok_cell:
            bad.append(key)
        lines.append(f"  N={key[0]:4d} wt={key[1]:4d}  "
                     f"T={r.t_count:.3e} pub={pub_t:.2e} {'ok' if mt else 'X '}"
                     f"  days={r.runtime_days:.4g} pub={pub_d} "
                     f"{'ok' if md else 'X '}  rel={rel:+.3%}  {need}")
    ok = not bad
    _report("criterion 1 (end-to-end table, 3 significant figures)", ok,
            f"{15 - len(bad)}/15 cells match, worst deviation {worst:.3%}; "
            f"no T matches both published figures of {unattainable}")
    assert ok, (
        "3-significant-figure reproduction of the published table fails on "
        f"{len(bad)} cells: {bad}\n" + "\n".join(lines) + "\n"
        f"No T matches both the published T count and runtime of "
        f"{unattainable}; there T must match one of them.  Every other cell "
        "must match both.  Worst deviation from the published T count: "
        f"{worst:.3%}.")


def test_criterion_2_physical_qubits():
    p = benchmark_params(64)
    rep = est.vpa_cost(p, 10.0 / p.w)
    nl = est.logical_qubits(64)
    hi = est.physical_qubits(rep.t_real, nl, 1e-3)
    lo = est.physical_qubits(rep.t_real, nl, 1e-4)
    ok_hi = abs(hi.physical_qubits - 9e5) / 9e5 <= 0.20
    ok_lo = abs(lo.physical_qubits - 2e5) / 2e5 <= 0.20
    _report("criterion 2 (physical qubits)", ok_hi and ok_lo,
            f"p=1e-3: {hi.physical_qubits:.3g} (d={hi.code_distance}), "
            f"p=1e-4: {lo.physical_qubits:.3g} (d={lo.code_distance})")
    assert ok_hi and ok_lo
    assert hi.code_distance == 27


@pytest.mark.parametrize("n", [8, 10])
def test_criterion_3_block_encoding_correctness(n):
    p = benchmark_params(n)
    exact = be.verify(p, 0.0)
    budgeted = be.verify(p, 1e-2)
    ok = exact.measured_error <= 1e-10 and budgeted.measured_error <= 1e-2
    _report(f"criterion 3 (block encoding, N={n})", ok,
            f"exact error {exact.measured_error:.2e}, budgeted "
            f"{budgeted.measured_error:.2e} <= 1e-2")
    assert exact.measured_error <= 1e-10
    assert budgeted.passed and budgeted.measured_error <= 1e-2


def _profile_error(circ, target):
    psi = project_success(simulate_statevector(circ), circ)
    w = register_weights(psi, circ, circ.metadata["output"])
    t = np.zeros_like(w)
    t[:len(target)] = target
    t /= t.sum()
    return float(np.max(np.abs(w / w.sum() - t)))


def test_criterion_4_subroutine_suite():
    worst = 0.0
    # uniform preparation, both regimes, up to N=16
    for n in (3, 5, 6, 7, 12, 15, 16):
        circ, _ = sub.uni(n, 1e-10 if n < 8 else 1e-6)
        worst = max(worst, _profile_error(circ, np.ones(n)))
    # weighted index preparations
    for n in (8, 16):
        circ, _ = sub.p_s1(n, 1e-6)
        prof = np.array([k if k % 2 == 0 else 0 for k in range(n)], float)
        worst = max(worst, _profile_error(circ, prof))
        circ, _ = sub.p_s2(n, 1e-6)
        prof = np.array([k if k % 2 == 1 else 0 for k in range(n)], float)
        worst = max(worst, _profile_error(circ, prof))
        circ, _ = sub.p_s3(n, 1e-6)
        worst = max(worst, _profile_error(circ, np.arange(float(n)) ** 2))
    ok_states = worst < 1e-8
    # arithmetic, exhaustive to 8 bits
    ok_arith = True
    for s in range(2, 9):
        ok_arith &= check_basis_permutation(
            sub.arithmetic("ineq", s)[0],
            lambda v: {"out": v["out"] ^ (v["a"] <= v["b"])}).ok
        mod = 1 << s
        ok_arith &= check_basis_permutation(
            sub.arithmetic("sub", s)[0],
            lambda v: {"b": (v["a"] - v["b"]) % mod}).ok
        ok_arith &= check_basis_permutation(
            sub.arithmetic("una", s)[0],
            lambda v: {"z": v["z"] ^ ((1 << v["a"].bit_length()) - 1)}).ok
    # tallies equal the closed forms on the non-degenerate grid
    ok_tally = True
    for n in (12, 20, 24):
        for eps in (1e-2, 1e-4):
            for ctl in (False, True):
                pairs = [
                    (sub.uni(n, eps, ctl, short_circuit=False)[1],
                     est.uni_cost(n, eps, ctl)),
                    (sub.p_s1(n, eps, ctl, short_circuit=False)[1],
                     est.ps1_cost(n, eps, ctl)),
                    (sub.p_s2(n, eps, ctl, short_circuit=False)[1],
                     est.ps2_cost(n, eps, ctl)),
                    (sub.p_s3(n, eps, ctl, short_circuit=False)[1],
                     est.ps3_cost(n, eps, ctl)),
                    (sub.p2(n, eps, 1e-3, ctl)[1],
                     est.p2_cost(n, eps, 1e-3, ctl)),
                ]
                if not ctl:
                    pairs.append((sub.p1(benchmark_params(n), eps,
                                         short_circuit=False)[1],
                                  est.p1_cost(n, eps)))
                for rep, formula in pairs:
                    ok_tally &= abs(rep.t_real - formula) < 1e-9
    ok = ok_states and ok_arith and ok_tally
    _report("criterion 4 (subroutine suite)", ok,
            f"worst state deviation {worst:.2e}, arithmetic "
            f"{'ok' if ok_arith else 'FAIL'}, tallies "
            f"{'match' if ok_tally else 'FAIL'}")
    assert ok_states and ok_arith and ok_tally


def test_criterion_5_chebyshev_squaring():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.choice([2, 4, 8]))
        h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (h + h.conj().T) / 2
        h /= np.linalg.norm(h, 2) * float(rng.uniform(1.0, 3.0))
        u = unitary_dilation(h)
        blk = chebyshev_square(u, 1).matrix
        worst = max(worst, np.linalg.norm(blk - (2 * h @ h - np.eye(dim)), 2))
    ok = worst < 1e-12
    _report("criterion 5 (squaring identity, 100 seeds)", ok,
            f"worst residual {worst:.2e}")
    assert ok


def test_criterion_6_ae_statistics():
    assert ae.hoeffding_queries(0.005, 0.05) == 73778
    assert ae.chebae_query_formula(0.005) == 2964
    eps, delta, runs = 0.005, 0.05, 1000
    fail_total = 0
    means = {}
    for i, om in enumerate([round(0.1 * k, 1) for k in range(1, 10)]):
        stats = [ae.simulate_adaptive_ae(om, eps, delta,
                                         31_000 + 100_000 * i + r)
                 for r in range(runs)]
        fail_total += sum(not s.succeeded for s in stats)
        means[om] = float(np.mean([s.total_queries for s in stats]))
    n_total = 9 * runs
    slack = 3 * math.sqrt(delta * (1 - delta) / n_total)
    fail_rate = fail_total / n_total
    ok_fail = fail_rate <= delta + slack
    ok_mean = all(1000 <= m <= 4000 for m in means.values())
    _report("criterion 6 (amplitude estimation statistics)",
            ok_fail and ok_mean,
            f"failure rate {fail_rate:.4f} <= {delta}+{slack:.4f}, "
            f"mean queries {min(means.values()):.0f}..{max(means.values()):.0f}")
    assert ok_fail, (fail_rate, delta + slack)
    assert ok_mean, means


def test_criterion_7_dynamics_oracle():
    p4 = benchmark_params(4)
    g0 = vacuum_persistence(p4, 0.0)
    ok_g0 = g0 == 1.0 + 0.0j
    ok_bound = all(abs(vacuum_persistence(p4, float(t))) <= 1 + 1e-12
                   for t in np.linspace(0, 6, 25))
    # independent matrix-exponential oracle
    from scipy.linalg import expm
    h = to_dense(build_hamiltonian(p4), include_shift=True).matrix
    worst = 0.0
    for t in (0.4, 1.0, 2.5):
        u1 = exact_evolution(p4, t).matrix
        u2 = expm(-1j * h * t)
        worst = max(worst, float(np.max(np.abs(u1 - u2))))
    ok_dual = worst < 1e-8
    ok_nu = particle_density(p4, 0.0) == pytest.approx(0.0, abs=1e-12)
    ok = ok_g0 and ok_bound and ok_dual and ok_nu
    _report("criterion 7 (dynamics oracle)", ok,
            f"G(0)={g0}, evolution cross-oracle deviation {worst:.2e}")
    assert ok
