"""Full block-encoding assembly, Chebyshev squaring, and verification.

The assembled circuit is a composite-node list (each node carries its exact
closed-form cost), because the complete construction's ancilla footprint is
far beyond statevector reach even at N=8.  Verification therefore runs on
two other paths:

* a semantic evaluator that composes the encoded operators per the LCU
  wiring, with the prefix-map imperfection modeled by its (1-delta)
  contamination - mathematically identical to the circuit by construction;
* a full-statevector mode for the hopping+mass sub-encoding, which fits in
  a simulator and cross-checks the semantic path gate by gate.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict, replace

import numpy as np

from .circuit import Circuit, ResourceReport, count_resources
from .estimator import (block_encoding_cost, clog2, p1_ancillas, p1_cost,
                        p2_ancillas, p2_cost, select_cost, reflection_cost)
from .model import (DenseOperator, ModelParams, OutOfRangeError,
                    build_hamiltonian, to_dense, normalization, z_signs)
from .simulate import SIMULATION_LIMIT, _place, simulate_statevector
from .subroutines import _emit_uni, invert_gates


@dataclass(frozen=True)
class BlockEncodingSpec:
    alpha: float
    ancilla_width: int   # 2*ceil(log2 N) + 3
    epsilon: float

    def __post_init__(self):
        if self.alpha <= 0 or self.epsilon < 0:
            raise ValueError("alpha must be positive and epsilon nonnegative")


@dataclass(frozen=True)
class ErrorBudget:
    """Split of the block error: two coefficient-preparation synthesis
    errors and the amplification residual, chained as
    2*eps1 + 4*eps2 + 8*delta <= eps / alpha."""
    eps1: float
    eps2: float
    delta: float

    def bound(self, alpha: float) -> float:
        return (2 * self.eps1 + 4 * self.eps2 + 8 * self.delta) * alpha

    @staticmethod
    def default(eps: float, alpha: float) -> "ErrorBudget":
        x = eps / (14 * alpha)
        return ErrorBudget(eps1=x, eps2=x, delta=x)

    @staticmethod
    def exact() -> "ErrorBudget":
        return ErrorBudget(0.0, 0.0, 0.0)


def assemble(params: ModelParams, eps: float
             ) -> tuple[Circuit, BlockEncodingSpec, ResourceReport]:
    """Wire the encoding: coefficient preparation, four controlled prefix
    maps, the five controlled SELECTs, and the mid-circuit reflection that
    squares the prefix-sum block.  Nodes carry their closed-form costs; the
    report is ``block_encoding_cost``'s with the T count of the nodes."""
    formula = block_encoding_cost(params, eps)
    n = params.n_sites
    b = clog2(n)
    alpha = normalization(params).alpha_s
    e1 = eps / (14 * alpha)

    circ = Circuit()
    label = circ.add_register("label", 3)
    out = circ.add_register("out", b)
    ireg = circ.add_register("prefix", b)
    sys = circ.add_register("system", n)
    succ1 = circ.add_register("succ_p1", 1)
    succ2 = circ.add_register("succ_p2", 1)
    q1 = label[0]

    p1c = p1_cost(n, e1)
    cp2c = p2_cost(n, e1, e1, controlled=True)

    def node(kind_label, cost, qubits, anc_r=0, anc_u=0):
        circ.add("COMPOSITE", qubits, cost_t=float(cost), label=kind_label,
                 anc_reusable=anc_r, anc_unreusable=anc_u)

    p1_r, p1_u = p1_ancillas(n)
    node("P1", p1c, label + out + (succ1[0],), anc_r=p1_r, anc_u=p1_u)
    node("SEL_XX.c3", select_cost("xx", n, 3), label + out + sys, anc_r=b)
    node("SEL_YY.c3", select_cost("yy", n, 3), label + out + sys, anc_r=b)
    node("SEL_Z.c2", select_cost("z", n, 2), label[:2] + out + sys, anc_r=b)
    node("cP2", cp2c, (q1,) + out + ireg + (succ2[0],), anc_r=p2_ancillas(n))
    node("SEL_Z2.c3", select_cost("z2", n, 3),
         (q1, succ1[0], succ2[0]) + ireg + sys, anc_r=b)
    node("cP2.dag", cp2c, (q1,) + out + ireg + (succ2[0],),
         anc_r=p2_ancillas(n))
    node("R0", reflection_cost(b + 3), ireg + label, anc_r=b + 1)
    node("cP2", cp2c, (q1,) + out + ireg + (succ2[0],), anc_r=p2_ancillas(n))
    node("SEL_Z2.c4", select_cost("z2", n, 4),
         (q1, label[1], succ1[0], succ2[0]) + ireg + sys, anc_r=b)
    node("cP2.dag", cp2c, (q1,) + out + ireg + (succ2[0],),
         anc_r=p2_ancillas(n))
    node("P1.dag", p1c, label + out + (succ1[0],), anc_r=p1_r)

    spec = BlockEncodingSpec(alpha=alpha, ancilla_width=2 * b + 3, epsilon=eps)
    tally = count_resources(circ)
    rep = replace(formula, t_count=tally.t_count, t_real=tally.t_real)
    circ.metadata["spec"] = spec
    circ.metadata["budget"] = ErrorBudget.default(eps, alpha)
    return circ, spec, rep


# -- Chebyshev squaring --------------------------------------------------------


def chebyshev_square(encoding: DenseOperator, anc_qubits: int,
                     tol: float = 1e-12) -> DenseOperator:
    """Block of U^dag (R0 x I) U for a unit-normalized encoding U of H.

    The reflection hits the ancilla register only, so the resulting block
    is the degree-2 Chebyshev map 2 H^2 - I; that identity is asserted.
    """
    u = encoding.matrix
    dim = u.shape[0]
    if dim != u.shape[1]:
        raise ValueError("encoding must be square")
    d_sys = dim >> anc_qubits
    if d_sys << anc_qubits != dim:
        raise ValueError("ancilla count does not divide the dimension")
    if not np.allclose(u @ u.conj().T, np.eye(dim), atol=1e-10):
        raise ValueError("encoding must be unitary")
    refl = -np.ones(dim)
    refl[:d_sys] = 1.0
    m = u.conj().T @ (refl[:, None] * u)
    block = m[:d_sys, :d_sys]
    h = u[:d_sys, :d_sys]
    target = 2 * h @ h - np.eye(d_sys)
    err = np.linalg.norm(block - target, 2)
    if err > tol:
        raise ValueError(f"squaring identity violated: ||block-(2H^2-I)|| = {err:.3e}")
    return DenseOperator(encoding.n_qubits - anc_qubits, block)


def unitary_dilation(h: np.ndarray) -> DenseOperator:
    """One-ancilla exact encoding [[H, S], [S, -H]] with S = sqrt(I - H^2)."""
    h = np.asarray(h, dtype=complex)
    vals, vecs = np.linalg.eigh(h)
    if np.max(np.abs(vals)) > 1 + 1e-12:
        raise ValueError("dilation requires ||H|| <= 1")
    s = (vecs * np.sqrt(np.clip(1 - vals ** 2, 0, None))) @ vecs.conj().T
    u = np.block([[h, s], [s, -h]])
    n = int(math.log2(h.shape[0])) + 1
    return DenseOperator(n, u)


# -- semantic evaluator ---------------------------------------------------------


def h_mod_dense(params: ModelParams) -> np.ndarray:
    """The encoded operator: the Hamiltonian minus its scalar shift,
    which is exactly the sum of the six term groups."""
    return to_dense(build_hamiltonian(params)).matrix


def _hopping_mass_dense(params: ModelParams) -> np.ndarray:
    """The XX, YY and single-Z groups of the encoded operator, the branches
    that every encoding here reproduces exactly."""
    terms = build_hamiltonian(params)
    return to_dense(replace(terms, z_even=(), z_odd=(), z_squared=())).matrix


def semantic_block(params: ModelParams,
                   budget: ErrorBudget | None = None) -> np.ndarray:
    """alpha_S <0|U|0> composed by LCU algebra.

    The hopping and mass branches are exact.  The three cumulative-Z
    branches see the prefix map's residual: each prefix block becomes
    (1-delta) M_n + delta I, and the squared branch squares that.
    """
    budget = budget or ErrorBudget.exact()
    n = params.n_sites
    dim = 1 << n
    delta = budget.delta
    out = _hopping_mass_dense(params)

    # diagonal cumulative-Z machinery
    prefix = np.cumsum(z_signs(n), axis=0)  # prefix[k] = sum_{i<=k} Z_i
    th = params.theta / (2 * math.pi)
    j = params.j
    diag = np.zeros(dim)
    for outer in range(1, n):
        m_n = (1 - delta) * prefix[outer - 1] / outer + delta
        coeff = j * th if outer % 2 == 0 else j * (0.5 + th)
        diag += coeff * outer * m_n
        diag += j / 8 * outer ** 2 * (2 * m_n ** 2 - 1)
    out += np.diag(diag)
    return out


@dataclass
class VerificationRecord:
    n_sites: int
    epsilon: float
    mode: str
    measured_error: float
    t_count_formula: float
    t_count_tally: float
    passed: bool

    def to_json(self) -> str:
        d = asdict(self)
        d["schema_version"] = 1
        return json.dumps(d, sort_keys=True)


SEMANTIC_LIMIT = 10


def verify(params: ModelParams, eps: float,
           mode: str = "semantic") -> VerificationRecord:
    """Measure || H_mod - alpha_S <0|U|0> || and compare to the target.

    The semantic mode takes the row-sum norm, which equals the spectral norm
    as the difference is diagonal.  The full-statevector mode measures only
    the hopping+mass fragment; the T counts are the full encoding's.  eps
    lies in [0, 14 alpha_S), where the budget's delta eps/(14 alpha_S) is
    below 1.  OutOfRangeError refuses eps outside it and N past the mode's
    limit before any work, and at the costing an eps too small to price
    (under 6.8e-303 at N=8, where 14 alpha_S is 305.9)."""
    n = params.n_sites
    alpha = normalization(params).alpha_s
    if not 0 <= eps < 14 * alpha:
        raise OutOfRangeError(f"eps must be nonnegative and below "
                              f"14 alpha_S = {14 * alpha:.6g}")
    if mode == "semantic":
        if n > SEMANTIC_LIMIT:
            raise OutOfRangeError(f"semantic verification limited to "
                                  f"N <= {SEMANTIC_LIMIT}")
        budget = (ErrorBudget.default(eps, alpha) if eps > 0
                  else ErrorBudget.exact())
        # diff is Hermitian, so its largest row sum bounds its spectral norm
        # from above and ``passed`` is never more lenient; both operands hold
        # the same hopping+mass matrix, so diff is diagonal and they are equal
        diff = h_mod_dense(params) - semantic_block(params, budget)
        measured = float(np.linalg.norm(diff, np.inf))
    elif mode == "full-statevector":
        measured = fragment_error(params)
    else:
        raise ValueError("mode must be 'semantic' or 'full-statevector'")
    if n >= 8:
        # eps = 0 (exact) is costed at a vanishing positive target
        eps_cost = eps if eps > 0 else 1e-18
        tally = assemble(params, eps_cost)[2].t_real
        formula = block_encoding_cost(params, eps_cost).t_real
    else:
        tally = formula = 0.0  # fragment sizes below the encoding's domain
    floor = 1e-10 * max(alpha, 1.0)
    return VerificationRecord(
        n_sites=n, epsilon=eps, mode=mode, measured_error=measured,
        t_count_formula=formula, t_count_tally=tally,
        passed=measured <= max(eps, floor))


# -- full-statevector fragment ----------------------------------------------------


def fragment_circuit(params: ModelParams) -> tuple[Circuit, float]:
    """Gate-level encoding of the hopping+mass fragment (three branches),
    small enough for exact statevector extraction."""
    n = params.n_sites
    b = clog2(n)
    w1 = params.w * (n - 1) / 2
    w3 = params.mass * n / 2
    alpha = 2 * w1 + w3

    circ = Circuit()
    l1, l2 = circ.add_register("label", 2)
    out = circ.add_register("out", b)
    sys = circ.add_register("system", n)

    prep0 = len(circ.gates)
    circ.add("RY", (l1,), angle=2 * math.atan2(math.sqrt(w3),
                                               math.sqrt(2 * w1)))
    circ.add("X", (l1,))
    circ.add("CH", (l1, l2))
    circ.add("X", (l1,))
    # branch-controlled uniform preparations
    circ.add("X", (l1,))
    u_hop = _emit_uni(circ, out, n - 1, 1e-12, ctrl=l1, tag="fr1",
                      keep_alive=True)
    circ.add("X", (l1,))
    u_mass = _emit_uni(circ, out, n, 1e-12, ctrl=l1, tag="fr2",
                       keep_alive=True)
    prep_gates = list(circ.gates[prep0:])

    circ.add("SEL_XX", (l1, l2) + out + sys, splits=(2, b), n_terms=n - 1,
             pattern=0b00, cost_t=0.0)
    circ.add("SEL_YY", (l1, l2) + out + sys, splits=(2, b), n_terms=n - 1,
             pattern=0b01, cost_t=0.0)
    circ.add("SEL_Z", (l1, l2) + out + sys, splits=(2, b), n_terms=n,
             pattern=0b10, cost_t=0.0)
    circ.extend(invert_gates(prep_gates))
    for h in (u_hop, u_mass):
        if h.cmp_name is not None:
            circ.release(h.cmp_name)
    circ.metadata["system"] = "system"
    return circ, alpha


def fragment_error(params: ModelParams) -> float:
    """|| (H_XX+H_YY+H_Z) - alpha <0|U|0> || for the gate-level fragment."""
    n = params.n_sites
    if n < 4:  # UNI(N-1) must fill the clog2(N)-qubit out register
        raise OutOfRangeError("the gate-level fragment needs N >= 4")
    circ, alpha = fragment_circuit(params)
    nq = circ.n_qubits
    if nq > SIMULATION_LIMIT:  # refuse before building 2^N basis columns
        raise OutOfRangeError(f"the fragment at N={n} has {nq} qubits, past "
                              f"the simulation limit {SIMULATION_LIMIT}")
    # basis index of each system value with every other qubit at zero
    sys_qubits = circ.registers["system"].qubits
    rows = [_place(nq, sys_qubits, v) for v in range(1 << n)]
    block = np.stack([simulate_statevector(circ, col)[rows] for col in rows],
                     axis=1)
    return float(np.linalg.norm(_hopping_mass_dense(params) - alpha * block,
                                 2))
