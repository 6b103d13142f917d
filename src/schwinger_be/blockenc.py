"""Full block-encoding costing and verification.

The complete construction's ancilla footprint is far beyond statevector
reach even at N=8, and it is not yet wired from gates: ``assemble`` lists
its twelve blocks in wiring order, each with its closed-form T cost.
Verification therefore runs on two other paths:

* a semantic evaluator that composes the encoded operators per the LCU
  wiring, with the prefix-map imperfection modeled by its (1-delta)
  contamination - mathematically identical to the circuit by construction;
* a full-statevector mode for the hopping+mass sub-encoding, which fits in
  a simulator and cross-checks the semantic path gate by gate.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .circuit import Circuit, ResourceReport, reflection_cost
from .estimator import (MIN_SITES, block_encoding_cost, clog2, error_share,
                        p1_cost, p2_cost, select_cost, select_terms)
from .model import (ModelParams, OutOfRangeError, build_hamiltonian, to_dense,
                    normalization, ordered_sum, z_diagonal, z_signs)
from .simulate import _place, block_amplitudes
from .subroutines import (BRANCH_LABELS, _emit_uni, branch_weights,
                          invert_gates, splitter_angle)


def assemble(params: ModelParams, eps: float
             ) -> tuple[list[tuple[str, float]], ResourceReport]:
    """The encoding's blocks in wiring order as (label, T cost) pairs, and
    ``block_encoding_cost``'s report with their sum, taken in that order,
    as its T count.  Every preparation gets the error share
    ``error_share(eps, alpha_S)``.  The blocks act on the registers label
    (3 qubits), out and prefix (clog2 N each), system (N) and the success
    flags succ_p1 and succ_p2, each listing its controls first, then a
    SELECT's address (R0 is the reflection that squares the prefix-sum
    block)::

        P1, P1.dag    label, out, succ_p1
        SEL_XX.c3     label; out; system (and SEL_YY.c3)
        SEL_Z.c2      label[0:2]; out; system
        cP2, cP2.dag  label[0]; out, prefix, succ_p2
        SEL_Z2.c3     label[0], succ_p1, succ_p2; prefix; system
        R0            prefix, label
        SEL_Z2.c4     label[0:2], succ_p1, succ_p2; prefix; system
    """
    formula = block_encoding_cost(params, eps)
    n = params.n_sites
    e1 = error_share(eps, normalization(params).alpha_s)
    p1c = p1_cost(n, e1)
    cp2c = p2_cost(n, e1, e1, controlled=True)
    blocks = [(label, float(cost)) for label, cost in (
        ("P1", p1c),
        ("SEL_XX.c3", select_cost("xx", n, 3)),
        ("SEL_YY.c3", select_cost("yy", n, 3)),
        ("SEL_Z.c2", select_cost("z", n, 2)),
        ("cP2", cp2c),
        ("SEL_Z2.c3", select_cost("z2", n, 3)),
        ("cP2.dag", cp2c),
        ("R0", reflection_cost(clog2(n) + 3)),
        ("cP2", cp2c),
        ("SEL_Z2.c4", select_cost("z2", n, 4)),
        ("cP2.dag", cp2c),
        ("P1.dag", p1c))]
    rep = ResourceReport.of(ordered_sum(cost for _, cost in blocks),
                            formula.ancilla_reusable,
                            formula.ancilla_unreusable, formula.total_qubits)
    return blocks, rep


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


def semantic_diagonal(params: ModelParams, delta: float,
                      zs: np.ndarray) -> np.ndarray:
    """The three cumulative-Z branches of alpha_S <0|U|0> on the basis
    states whose Z signs are the columns of ``zs``.  They see the prefix
    map's amplification residual ``delta`` (``error_share`` of the block
    error; 0 for the exact encoding): each prefix block becomes
    (1-delta) M_n + delta I, and the squared branch squares that."""
    prefix = np.cumsum(zs, axis=0)  # prefix[k] = sum_{i<=k} Z_i
    j = params.j
    diag = np.zeros(zs.shape[1])
    for outer in range(1, params.n_sites):
        m_n = (1 - delta) * prefix[outer - 1] / outer + delta
        diag += j * params.rung(outer) * outer * m_n
        diag += j / 8 * outer ** 2 * (2 * m_n ** 2 - 1)
    return diag


def semantic_block(params: ModelParams, delta: float = 0.0) -> np.ndarray:
    """alpha_S <0|U|0> composed by LCU algebra: the hopping and mass
    branches are exact, the cumulative-Z ones ``semantic_diagonal`` at
    residual ``delta``."""
    diag = semantic_diagonal(params, delta, z_signs(params.n_sites))
    return _hopping_mass_dense(params) + np.diag(diag)


@dataclass
class VerificationRecord:
    n_sites: int
    epsilon: float
    mode: str
    measured_error: float
    t_count_formula: float
    t_count_tally: float
    passed: bool


SEMANTIC_LIMIT = 16


def verify(params: ModelParams, eps: float,
           mode: str = "semantic") -> VerificationRecord:
    """Measure || H_mod - alpha_S <0|U|0> || and compare to the target.

    Both operators hold the same hopping+mass part, so their difference is
    diagonal and the semantic mode's spectral norm is the largest entry of
    the difference of the two diagonals: H_mod's Z strings against the
    mass strings plus ``semantic_diagonal`` at the residual
    ``error_share(eps, alpha_S)``.  No 2^N x 2^N matrix is built.
    The full-statevector mode measures only the hopping+mass fragment; the
    T counts are the full encoding's.  eps lies in [0, 14 alpha_S), where
    the share eps/(14 alpha_S) is below 1.  OutOfRangeError
    refuses eps outside it and N past the mode's limit before any work, and
    at the costing an eps too small to price (under 6.8e-303 at N=8, where
    14 alpha_S is 305.9)."""
    n = params.n_sites
    alpha = normalization(params).alpha_s
    if not 0 <= eps < 14 * alpha:
        raise OutOfRangeError(f"eps must be nonnegative and below "
                              f"14 alpha_S = {14 * alpha:.6g}")
    if mode == "semantic":
        if n > SEMANTIC_LIMIT:
            raise OutOfRangeError(f"semantic verification limited to "
                                  f"N <= {SEMANTIC_LIMIT}")
        delta = error_share(eps, alpha)  # 0 at eps = 0: the exact encoding
        terms = build_hamiltonian(params)
        zs = z_signs(n)
        # the same sums to_dense puts on the two diagonals: every Z string
        # for H_mod, the mass strings alone for the semantic side
        d_h = z_diagonal(terms.diagonal, zs)
        d_z = z_diagonal(terms.z, zs)
        measured = float(np.max(np.abs(
            d_h - (d_z + semantic_diagonal(params, delta, zs)))))
    elif mode == "full-statevector":
        measured = fragment_error(params)
    else:
        raise ValueError("mode must be 'semantic' or 'full-statevector'")
    if n >= MIN_SITES:
        # eps = 0 (exact) is costed at a vanishing positive target
        eps_cost = eps if eps > 0 else 1e-18
        tally = assemble(params, eps_cost)[1].t_real
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
    wts = branch_weights(params)
    alpha = wts["xx"] + wts["yy"] + wts["z"]

    circ = Circuit()
    l1, l2 = circ.add_register("label", 2)
    out = circ.add_register("out", b)
    sys = circ.add_register("system", n)

    prep0 = len(circ.gates)
    circ.add("RY", (l1,), angle=splitter_angle(wts["xx"] + wts["yy"],
                                               wts["z"]))
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

    # P1's labels without their top qubit, which is 0 on these branches
    for kind in ("xx", "yy", "z"):
        circ.add("SEL_" + kind.upper(), (l1, l2) + out + sys, splits=(2, b),
                 n_terms=select_terms(kind, n), pattern=BRANCH_LABELS[kind])
    circ.extend(invert_gates(prep_gates))
    for h in (u_hop, u_mass):
        if h.cmp_name is not None:
            circ.release(h.cmp_name)
    return circ, alpha


#: sites up to which the fragment is checked: its dense 2^N x 2^N block and
#: the block's 2-norm (an SVD) take about 0.7 s each at N = 10
FRAGMENT_SITE_LIMIT = 10


def fragment_error(params: ModelParams) -> float:
    """|| (H_XX+H_YY+H_Z) - alpha <0|U|0> || for the gate-level fragment.

    The 2^N columns of the block come from one sparse run
    (``block_amplitudes``).  N past ``FRAGMENT_SITE_LIMIT`` is refused
    before any work; ``block_amplitudes`` refuses a run past its index
    limit, which the fragment reaches only far beyond that (29 qubits and
    10 column bits at N = 10)."""
    n = params.n_sites
    if n < 4:  # UNI(N-1) must fill the clog2(N)-qubit out register
        raise OutOfRangeError("the gate-level fragment needs N >= 4")
    if n > FRAGMENT_SITE_LIMIT:  # refuse before building 2^N basis columns
        raise OutOfRangeError(f"the fragment at N={n} is past the simulation "
                              f"limit N <= {FRAGMENT_SITE_LIMIT}")
    circ, alpha = fragment_circuit(params)
    # basis index of each system value with every other qubit at zero
    sys_qubits = circ.registers["system"].qubits
    rows = [_place(circ.n_qubits, sys_qubits, v) for v in range(1 << n)]
    block = block_amplitudes(circ, rows, rows)
    return float(np.linalg.norm(_hopping_mass_dense(params) - alpha * block,
                                 2))
