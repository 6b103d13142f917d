import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from schwinger_be import model as M


def _add_string(h: np.ndarray, n: int, ps: M.PauliString) -> None:
    dim = 1 << n
    idx = np.arange(dim)
    img = idx.copy()
    phase = np.ones(dim, dtype=complex)
    for site, letter in enumerate(ps.letters):
        if letter == "I":
            continue
        bitpos = 1 << (n - 1 - site)
        bit = (idx & bitpos) != 0
        if letter == "X":
            img ^= bitpos
        elif letter == "Y":
            img ^= bitpos
            phase = phase * np.where(bit, -1j, 1j)
        else:  # Z
            phase = phase * np.where(bit, -1.0, 1.0)
    h[img, idx] += ps.coefficient * phase


def eq13_dense(p):
    """Independent oracle: the qubit Hamiltonian built directly from its
    defining sum (cumulative-charge square + hopping + staggered mass)."""
    n = p.n_sites
    dim = 1 << n
    idx = np.arange(dim)
    z = np.stack([1.0 - 2 * ((idx >> (n - 1 - i)) & 1) for i in range(n)])
    h = np.zeros((dim, dim), dtype=complex)
    th = p.theta / (2 * math.pi)
    diag = np.zeros(dim)
    for nn in range(n - 1):
        a = np.sum([(z[i] + (-1) ** i) / 2 for i in range(nn + 1)], axis=0) + th
        diag += p.j * a * a
    h += np.diag(diag)
    for i in range(n - 1):
        for pauli in ("X", "Y"):
            _add_string(h, n, M.PauliString(p.w / 2, "".join(
                pauli if k in (i, i + 1) else "I" for k in range(n))))
    for i in range(n):
        _add_string(h, n, M.PauliString(p.mass / 2 * (-1) ** i, "".join(
            "Z" if k == i else "I" for k in range(n))))
    return h


def test_params_validation():
    with pytest.raises(ValueError):
        M.ModelParams(3, 0.2, 0.1, 1.0, math.pi)
    with pytest.raises(ValueError):
        M.ModelParams(4, -0.2, 0.1, 1.0, math.pi)
    with pytest.raises(ValueError):
        M.ModelParams(4, 0.2, -0.1, 1.0, math.pi)
    p = M.benchmark_params(16)
    assert p.w == pytest.approx(2.5)
    assert p.j == pytest.approx(0.1)


def test_build_hamiltonian_n2_structure():
    # expanded by hand for N=2: one hopping pair each, two mass strings,
    # no even ladder, one odd ladder string at J(1/2 + theta/2pi), one
    # (shifted) squared string
    p = M.benchmark_params(2)
    t = M.build_hamiltonian(p)
    assert len(t.xx) == 1 and t.xx[0].coefficient == pytest.approx(1.25)
    assert t.xx[0].letters == "XX"
    assert len(t.yy) == 1
    assert [ps.coefficient for ps in t.z] == pytest.approx([0.05, -0.05])
    assert t.z_even == ()
    assert len(t.z_odd) == 1
    assert t.z_odd[0].coefficient == pytest.approx(0.1)
    assert t.z_odd[0].letters == "ZI"
    assert len(t.z_squared) == 1


def test_coefficient_classes():
    t = M.build_hamiltonian(M.benchmark_params(10))
    th = 0.5  # theta/2pi at theta=pi
    assert all(ps.coefficient == pytest.approx(0.1 * th) for ps in t.z_even)
    assert all(ps.coefficient == pytest.approx(0.1 * (0.5 + th))
               for ps in t.z_odd)


def test_constant_shift_direct_summation():
    # direct summation oracle for the two scalar sums at N=16, theta=pi
    p = M.benchmark_params(16)
    t = M.build_hamiltonian(p)
    sq = 0.1 / 8 * sum(l * l for l in range(1, 16))
    cc = 0.1 * sum((0.5 * (1 + (-1) ** (n - 1)) / 2 + 0.5) ** 2
                   for n in range(1, 16))
    assert sq == pytest.approx(15.5)
    assert t.constant_shift == pytest.approx(sq + cc)


def test_g_zero_kills_electric_terms():
    p = M.ModelParams(8, 0.2, 0.1, 0.0, math.pi)
    t = M.build_hamiltonian(p)
    assert t.z_even == () and t.z_odd == () and t.z_squared == ()
    assert t.constant_shift == 0.0


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_decomposition_identity(n):
    # dense(defining form) = dense(six groups) + constant_shift * I
    p = M.benchmark_params(n)
    t = M.build_hamiltonian(p)
    diff = eq13_dense(p) - M.to_dense(t).matrix
    target = t.constant_shift * np.eye(1 << n)
    assert np.max(np.abs(diff - target)) < 1e-12


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_norm_dominated_by_alpha(n):
    p = M.benchmark_params(n)
    hmod = M.to_dense(M.build_hamiltonian(p)).matrix
    assert np.linalg.norm(hmod, 2) <= M.normalization(p).alpha_s + 1e-12


def test_hermiticity_of_groups():
    p = M.benchmark_params(6)
    t = M.build_hamiltonian(p)
    for group in (t.xx, t.yy, t.z, t.z_even, t.z_odd, t.z_squared):
        h = np.zeros((64, 64), dtype=complex)
        for ps in group:
            _add_string(h, 6, ps)
        assert np.allclose(h, h.conj().T)


def test_normalization_n16():
    nc = M.normalization(M.benchmark_params(16))
    assert nc.alpha_s1 == 56
    assert nc.alpha_s2 == 64
    assert nc.alpha_s3 == 1240
    assert nc.alpha_s == pytest.approx(63.0)


def test_normalization_n2():
    nc = M.normalization(M.benchmark_params(2))
    assert (nc.alpha_s1, nc.alpha_s2, nc.alpha_s3) == (0, 1, 1)


def test_normalization_closed_forms_equal_the_sums():
    # the sums over l in 1..N-1 that the closed forms replace
    for n in list(range(2, 2002, 2)) + [1 << 20]:
        nc = M.normalization(M.benchmark_params(n))
        assert (nc.alpha_s1, nc.alpha_s2, nc.alpha_s3) == (
            float(sum(range(2, n, 2))), float(sum(range(1, n, 2))),
            float(sum(l * l for l in range(1, n)))), n


def test_alpha_cubic_growth():
    # doubling N multiplies the 1-norm by about 8 once the squared ladder
    # dominates
    alphas = [M.normalization(M.benchmark_params(n)).alpha_s
              for n in (8, 16, 32, 64, 128)]
    ratios = [b / a for a, b in zip(alphas, alphas[1:])]
    assert ratios[-1] == pytest.approx(8.0, rel=0.15)
    assert all(r1 < r2 for r1, r2 in zip(ratios, ratios[1:]))


def test_dense_limit_guard():
    for n in (14, 16):
        with pytest.raises(ValueError):
            M.to_dense(M.build_hamiltonian(M.benchmark_params(n)))


def test_observables_refuse_past_dense_limit_before_allocating():
    # at N=16 the 2^N Z-sign table that finds the sector would take 8 MiB
    tracemalloc.start()
    try:
        for fn in (M.vacuum_persistence, M.particle_density):
            with pytest.raises(ValueError, match="sector limit"):
                fn(M.benchmark_params(16), 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_evolution_properties():
    p = M.benchmark_params(4)
    u0 = M.exact_evolution(p, 0.0).matrix
    assert np.allclose(u0, np.eye(16), atol=1e-12)
    u1 = M.exact_evolution(p, 0.3).matrix
    u2 = M.exact_evolution(p, 0.7).matrix
    u12 = M.exact_evolution(p, 1.0).matrix
    assert np.max(np.abs(u1 @ u2 - u12)) < 1e-10
    assert np.max(np.abs(u1 @ u1.conj().T - np.eye(16))) < 1e-10


def test_vacuum_persistence_basics():
    p = M.benchmark_params(4)
    assert M.vacuum_persistence(p, 0.0) == pytest.approx(1.0 + 0j)
    for t in np.linspace(0, 5, 21):
        assert abs(M.vacuum_persistence(p, float(t))) <= 1 + 1e-12


def test_vacuum_persistence_short_time_slope():
    # G(t) = 1 - i <vac|H|vac> t + O(t^2)
    p = M.benchmark_params(2)
    h = M.to_dense(M.build_hamiltonian(p), include_shift=True).matrix
    v = M.vacuum_index(2)
    expect = h[v, v].real
    t = 1e-4
    g = M.vacuum_persistence(p, t)
    slope = -g.imag / t
    assert slope == pytest.approx(expect, abs=1e-6)


def test_g_conjugation_symmetry():
    p = M.benchmark_params(4)
    for t in (0.3, 1.1, 2.7):
        assert M.vacuum_persistence(p, -t) == pytest.approx(
            np.conj(M.vacuum_persistence(p, t)), abs=1e-12)


def heisenberg_density(p, t):
    """nu(t) with each Z_n conjugated by the full unitary and read at the
    vacuum, independent of the library's evolved-vacuum path."""
    n = p.n_sites
    u = M.exact_evolution(p, t).matrix
    v = M.vacuum_index(n)
    total = 0.0
    for site in range(n):
        zdiag = 1 - 2 * ((np.arange(1 << n) >> (n - 1 - site)) & 1)
        zt = u.conj().T @ (zdiag[:, None] * u)
        total += (-1) ** site * float(zt[v, v].real) + 1
    return total / (2 * n)


def test_particle_density():
    p = M.benchmark_params(4)
    assert M.particle_density(p, 0.0) == pytest.approx(0.0, abs=1e-12)
    for t in np.linspace(0.0, 3.0, 7):
        nu = M.particle_density(p, float(t))
        assert -1e-12 <= nu <= 1 + 1e-12
    for t in (0.4, 1.3):
        assert M.particle_density(p, t) == pytest.approx(
            heisenberg_density(p, t), abs=1e-10)


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_observables_match_full_unitary_column(n):
    p = M.benchmark_params(n)
    v = M.vacuum_index(n)
    idx = np.arange(1 << n)
    stagger = np.array([(-1) ** s for s in range(n)])
    z = 1 - 2 * ((idx[:, None] >> (n - 1 - np.arange(n))) & 1)
    for t in (-1.3, 0.0, 0.4, 2.5):
        psi = M.exact_evolution(p, t).matrix[:, v]
        nu = float(np.sum(stagger * ((np.abs(psi) ** 2) @ z) + 1)) / (2 * n)
        assert abs(M.vacuum_persistence(p, t) - psi[v]) < 1e-13
        assert abs(M.particle_density(p, t) - nu) < 1e-13
    assert M.vacuum_persistence(p, 0.0) == 1 + 0j
    assert abs(M.particle_density(p, 0.0)) <= 1e-12


def test_out_of_range_rules():
    for kw in (dict(n_sites=3), dict(n_sites=0), dict(spacing=0.0),
               dict(spacing=math.nan), dict(mass=-0.1)):
        with pytest.raises(M.OutOfRangeError):
            M.ModelParams(**{"n_sites": 4, **M.BENCHMARK, **kw})
    p = M.benchmark_params(14)
    for call in (lambda: M.to_dense(M.build_hamiltonian(p)),
                 lambda: M.exact_evolution(p, 0.0)):
        with pytest.raises(M.OutOfRangeError, match="dense limit"):
            call()
    with pytest.raises(M.OutOfRangeError, match="sector limit"):
        M.vacuum_persistence(M.benchmark_params(16), 0.3)


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_sector_matrix_is_the_dense_block(n):
    terms = M.build_hamiltonian(M.benchmark_params(n))
    basis, h = M.sector_hamiltonian(terms)
    full = M.to_dense(terms, include_shift=True).matrix
    ones = [bin(i).count("1") for i in range(1 << n)]
    assert list(basis) == [i for i in range(1 << n) if ones[i] == n // 2]
    assert h.dtype == float
    assert np.array_equal(full[np.ix_(basis, basis)], h)
    rest = np.setdiff1d(np.arange(1 << n), basis)
    assert not np.any(full[np.ix_(rest, basis)])
    assert not np.any(full[np.ix_(basis, rest)])


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_to_dense_is_the_sum_of_every_string(n):
    # the reference adds every string, the Z ones too, through _add_string
    terms = M.build_hamiltonian(M.ModelParams(n_sites=n, spacing=0.3,
                                              mass=0.2, coupling=1.1,
                                              theta=0.7))
    h = np.zeros((1 << n, 1 << n), dtype=complex)
    for ps in terms.xx + terms.yy + terms.diagonal:
        _add_string(h, n, ps)
    assert np.array_equal(M.to_dense(terms).matrix, h)
    h += terms.constant_shift * np.eye(1 << n)
    assert np.array_equal(M.to_dense(terms, include_shift=True).matrix, h)


def test_observables_at_t0_run_no_eigendecomposition():
    p = M.ModelParams(n_sites=10, spacing=0.2, mass=0.4, coupling=1.0,
                      theta=0.3)
    misses = M._sector_eig.cache_info().misses
    assert M.vacuum_observables(p, 0.0) == (1 + 0j, 0.0)
    assert M.vacuum_persistence(p, 0.0) == 1 + 0j
    assert M.particle_density(p, 0.0) == 0.0
    assert M._sector_eig.cache_info().misses == misses


def test_sector_observables_n12():
    p = M.benchmark_params(12)
    assert M.particle_density(p, 0.0) == 0.0
    for t in (0.3, 1.7, 4.0):
        psi = M._evolved_vacuum(p, t)[0]
        assert abs(np.linalg.norm(psi) - 1) < 1e-12
        g = M.vacuum_persistence(p, t)
        assert abs(g) <= 1 + 1e-12
        assert abs(M.vacuum_persistence(p, -t) - np.conj(g)) < 1e-14


def test_charge_check_refuses_unpaired_hopping():
    terms = M.build_hamiltonian(M.benchmark_params(6))
    broken = replace(terms, yy=(replace(terms.yy[0], coefficient=0.3),)
                     + terms.yy[1:])
    with pytest.raises(ValueError, match="conserve the charge"):
        M.sector_hamiltonian(broken)
    offdiagonal = replace(terms, z=(M.PauliString(0.1, "XIIIII"),))
    with pytest.raises(ValueError, match="conserve the charge"):
        M.sector_hamiltonian(offdiagonal)
    with pytest.raises(ValueError, match="conserve the charge"):
        M.to_dense(broken)
    with pytest.raises(ValueError, match="conserve the charge"):
        M.to_dense(offdiagonal)
