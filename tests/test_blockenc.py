import math

import numpy as np
import pytest

from schwinger_be import blockenc as be
from schwinger_be import estimator as est
from schwinger_be.model import ModelParams, benchmark_params, normalization


def test_error_budget_chain():
    alpha = 63.0
    bud = be.ErrorBudget.default(1e-2, alpha)
    assert bud.eps1 == bud.eps2 == bud.delta == pytest.approx(1e-2 / (14 * alpha))
    assert bud.bound(alpha) == pytest.approx(1e-2)


def test_spec_validation():
    with pytest.raises(ValueError):
        be.BlockEncodingSpec(alpha=-1.0, ancilla_width=3, epsilon=0.1)


def test_assemble_spec_and_width():
    p = benchmark_params(16)
    _, spec, rep = be.assemble(p, 1e-3)
    assert spec.ancilla_width == 2 * 4 + 3
    assert spec.alpha == pytest.approx(63.0)


@pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 256])
@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
def test_assemble_tally_equals_closed_form(n, eps):
    p = benchmark_params(n)
    _, _, rep = be.assemble(p, eps)
    formula = est.block_encoding_cost(p, eps)
    assert rep.t_real == pytest.approx(formula.t_real)
    assert rep.total_qubits == formula.total_qubits


def test_assemble_checks_n_and_eps():
    # the encoding, like its closed-form cost, needs even N >= 8 and eps > 0
    for n in (4, 6):
        with pytest.raises(ValueError):
            be.assemble(benchmark_params(n), 1e-2)
    with pytest.raises(ValueError):
        be.assemble(benchmark_params(8), 0.0)


def test_exact_verify_tally_matches_formula():
    rec = be.verify(benchmark_params(8), 0.0)
    assert rec.t_count_tally == pytest.approx(rec.t_count_formula, rel=1e-12)


def test_chebyshev_square_trivial_cases():
    # H = Z: perfect encoding via one-qubit dilation, block is the identity
    z = np.diag([1.0, -1.0]).astype(complex)
    u = be.unitary_dilation(z)
    blk = be.chebyshev_square(u, 1)
    assert np.allclose(blk.matrix, np.eye(2), atol=1e-12)
    # H = 0: block is -I
    u0 = be.unitary_dilation(np.zeros((2, 2)))
    blk0 = be.chebyshev_square(u0, 1)
    assert np.allclose(blk0.matrix, -np.eye(2), atol=1e-12)


def test_chebyshev_square_random_dilations():
    rng = np.random.default_rng(7)
    for _ in range(100):
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = (h + h.conj().T) / 2
        h /= np.linalg.norm(h, 2) * (1 + rng.uniform(0.01, 1.0))
        u = be.unitary_dilation(h)
        blk = be.chebyshev_square(u, 1, tol=1e-12)
        assert np.linalg.norm(blk.matrix - (2 * h @ h - np.eye(4)), 2) < 1e-12


def test_chebyshev_square_rejects_nonunitary():
    bad = be.DenseOperator(2, np.eye(4) * 0.5)
    with pytest.raises(ValueError):
        be.chebyshev_square(bad, 1)


@pytest.mark.parametrize("n", [8, 10])
def test_semantic_block_exact(n):
    p = benchmark_params(n)
    block = be.semantic_block(p)
    diff = be.h_mod_dense(p) - block
    assert np.linalg.norm(diff, 2) < 1e-10
    assert np.allclose(block, block.conj().T, atol=1e-12)


def test_semantic_block_delta_bound():
    p = benchmark_params(8)
    alpha = normalization(p).alpha_s
    delta = 1e-3
    block = be.semantic_block(p, be.ErrorBudget(0.0, 0.0, delta))
    err = np.linalg.norm(be.h_mod_dense(p) - block, 2)
    assert err <= 8 * delta * alpha


def test_semantic_block_pure_hopping():
    p = ModelParams(n_sites=8, spacing=0.2, mass=0.0, coupling=0.0, theta=0.0)
    block = be.semantic_block(p)
    assert np.linalg.norm(be.h_mod_dense(p) - block, 2) < 1e-12


def test_g_zero_degenerate_branches():
    # with no coupling the ladder branches carry zero weight and the block
    # reduces to (kinetic + mass)
    p = ModelParams(n_sites=8, spacing=0.2, mass=0.1, coupling=0.0,
                    theta=math.pi)
    from schwinger_be.subroutines import branch_weights
    wts = branch_weights(p)
    assert wts["zeven"] == wts["zodd"] == wts["zsq"] == 0
    assert np.linalg.norm(be.h_mod_dense(p) - be.semantic_block(p), 2) < 1e-12


def test_spectral_containment():
    p = benchmark_params(8)
    alpha = normalization(p).alpha_s
    vals = np.linalg.eigvalsh(be.semantic_block(p) / alpha)
    assert vals.min() >= -1 - 1e-12 and vals.max() <= 1 + 1e-12


def test_verify_semantic():
    p = benchmark_params(8)
    rec = be.verify(p, 1e-2)
    assert rec.passed and rec.measured_error <= 1e-2
    assert rec.t_count_formula == pytest.approx(rec.t_count_tally)
    rec0 = be.verify(p, 0.0)
    assert rec0.passed and rec0.measured_error < 1e-10
    js = rec.to_json()
    assert '"schema_version": 1' in js and '"measured_error"' in js


def test_verify_budget_soundness_grid():
    for n in (8, 10):
        for eps in (1e-1, 1e-2):
            p = benchmark_params(n)
            rec = be.verify(p, eps)
            alpha = normalization(p).alpha_s
            bud = be.ErrorBudget.default(eps, alpha)
            assert rec.measured_error <= bud.bound(alpha) <= eps + 1e-15


#: the benchmark point, a massive point off theta = pi, and free hopping
PARAM_POINTS = (dict(spacing=0.2, mass=0.1, coupling=1.0, theta=math.pi),
                dict(spacing=0.2, mass=0.3, coupling=1.0, theta=1.1),
                dict(spacing=0.2, mass=0.0, coupling=0.0, theta=0.0))


@pytest.mark.parametrize("point", range(len(PARAM_POINTS)))
@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_verify_row_sum_equals_spectral_norm(n, point):
    # semantic verify takes the row-sum norm; the difference is diagonal,
    # so that equals the spectral norm bit for bit
    p = ModelParams(n_sites=n, **PARAM_POINTS[point])
    alpha = normalization(p).alpha_s
    for eps in (0.0, 1e-3, 1e-2, 1e-1):
        budget = (be.ErrorBudget.default(eps, alpha) if eps > 0
                  else be.ErrorBudget.exact())
        diff = be.h_mod_dense(p) - be.semantic_block(p, budget)
        assert not np.any(diff - np.diag(np.diag(diff)))
        assert be.verify(p, eps).measured_error == np.linalg.norm(diff, 2)


def test_verify_semantic_limit():
    with pytest.raises(ValueError):
        be.verify(benchmark_params(12), 1e-2)


def test_fragment_past_simulator_refused_early():
    # N=40 would need 2^40 basis columns; the qubit count is checked first
    for n in (10, 40):
        with pytest.raises(be.OutOfRangeError, match="simulation limit"):
            be.fragment_error(benchmark_params(n))
        with pytest.raises(be.OutOfRangeError):
            be.verify(benchmark_params(n), 1e-2, mode="full-statevector")


def test_fragment_matches_semantic():
    # gate-level statevector extraction of the hopping+mass encoding agrees
    # with the dense target at N=4, cross-checking the semantic evaluator
    err = be.fragment_error(benchmark_params(4))
    assert err < 1e-10
    rec = be.verify(benchmark_params(4), 1e-2, mode="full-statevector")
    assert rec.measured_error < 1e-10 and rec.passed


def test_fragment_exact_at_22_qubits():
    # N=6: 22 qubits and 64 columns, within reach because the simulator
    # works on the support of each column's state
    circ, _ = be.fragment_circuit(benchmark_params(6))
    assert circ.n_qubits == 22
    assert be.fragment_error(benchmark_params(6)) <= 1e-10


def test_verify_eps_domain():
    # the default budget's delta eps/(14 alpha_S) must stay below 1, and an
    # eps too small to price is refused at the costing
    p = benchmark_params(8)
    wall = 14 * normalization(p).alpha_s
    for eps in (math.nan, math.inf, -math.inf, -1e-3, wall, 1e9, 1e-310):
        with pytest.raises(be.OutOfRangeError):
            be.verify(p, eps)
    assert be.verify(p, 0.99 * wall).n_sites == 8


def test_fragment_refuses_small_n_before_building():
    p = benchmark_params(2)
    with pytest.raises(be.OutOfRangeError, match="N >= 4"):
        be.fragment_error(p)
    with pytest.raises(be.OutOfRangeError):
        be.verify(p, 1e-2, mode="full-statevector")
    assert be.verify(benchmark_params(4), 1e-2,
                     mode="full-statevector").passed


def test_one_out_of_range_error():
    from schwinger_be import ae, model
    assert be.OutOfRangeError is model.OutOfRangeError
    assert est.OutOfRangeError is ae.OutOfRangeError is model.OutOfRangeError
    assert issubclass(model.OutOfRangeError, ValueError)
