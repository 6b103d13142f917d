import math

import numpy as np
import pytest

from schwinger_be import estimator as est
from schwinger_be import subroutines as sub
from schwinger_be.circuit import Circuit, Gate, count_resources, gate_cost
from schwinger_be.model import benchmark_params
from schwinger_be.simulate import (check_basis_permutation, project_success,
                                   register_weights, simulate_statevector)
from test_simulate import register_overlap

# sizes where every invoked uniform preparation has an odd factor >= 3, so
# the general construction is non-degenerate and tallies equal the closed
# forms exactly
GENERAL_N = [12, 20, 24]
EPS_GRID = [1e-2, 1e-4]


def success_weights(circ, reg="out", inp=None):
    psi = simulate_statevector(circ, inp)
    proj = project_success(psi, circ)
    w = register_weights(proj, circ, reg)
    return w / w.sum(), float(np.sum(np.abs(proj) ** 2))


# -- uniform superposition ----------------------------------------------------


@pytest.mark.parametrize("n", [3, 5, 6, 7, 12])
def test_uni_statevector(n):
    circ, _ = sub.uni(n, 1e-2)
    psi = project_success(simulate_statevector(circ), circ)
    b = max((n - 1).bit_length(), 1)
    target = np.zeros(1 << b, dtype=complex)
    target[:n] = 1 / math.sqrt(n)
    assert register_overlap(psi, circ, "idx", target) == pytest.approx(
        1.0, abs=1e-10)
    # the exact amplification round succeeds deterministically
    assert np.sum(np.abs(psi) ** 2) == pytest.approx(1.0, abs=1e-10)


def test_uni_power_of_two_short_circuit():
    circ, rep = sub.uni(4, 1e-2)
    assert rep.t_count == 0
    assert all(g.kind == "H" for g in circ.gates)


@pytest.mark.parametrize("n", [3, 6, 12, 20])
@pytest.mark.parametrize("eps", EPS_GRID)
@pytest.mark.parametrize("controlled", [False, True])
def test_uni_tally_matches_formula(n, eps, controlled):
    _, rep = sub.uni(n, eps, controlled=controlled, short_circuit=False)
    assert rep.t_real == pytest.approx(
        est.uni_cost(n, eps, controlled=controlled))


def test_uni_ancilla_table():
    # 2l reusable (comparator constant + outcome + comparator scratch),
    # one unreusable rotated flag
    _, rep = sub.uni(6, 1e-2)
    assert rep.ancilla_reusable == 2 * 2
    assert rep.ancilla_unreusable == 1


def test_uni_controlled_off_is_identity():
    circ, _ = sub.uni(6, 1e-2, controlled=True)
    psi = simulate_statevector(circ, 0)
    assert psi[0] == pytest.approx(1.0, abs=1e-12)


def test_uni_rejects_bad_args():
    with pytest.raises(ValueError):
        sub.uni(0, 1e-2)
    with pytest.raises(ValueError):
        sub.uni(4, 2.0)


# -- arithmetic ----------------------------------------------------------------


@pytest.mark.parametrize("s", [2, 4, 5, 8])
def test_ineq_exhaustive(s):
    circ, rep = sub.arithmetic("ineq", s)
    verdict = check_basis_permutation(
        circ, lambda v: {"out": v["out"] ^ (v["a"] <= v["b"])})
    assert verdict.ok and verdict.checked == 1 << (2 * s + 1)
    assert rep.t_count == 4 * s
    assert rep.ancilla_reusable == s - 1


@pytest.mark.parametrize("s", [2, 4, 6, 8])
def test_sub_exhaustive(s):
    circ, rep = sub.arithmetic("sub", s)
    mod = 1 << s
    verdict = check_basis_permutation(
        circ, lambda v: {"a": v["a"], "b": (v["a"] - v["b"]) % mod})
    assert verdict.ok
    assert rep.t_count == 4 * s - 4


def test_sub_example():
    # (9, 3) -> 6
    circ, _ = sub.arithmetic("sub", 4)
    from schwinger_be.simulate import circuit_index_map, reg_values
    out = circuit_index_map(circ, np.array([(9 << 4) | 3]))
    b = reg_values(out, circ.n_qubits, circ.registers["b"].qubits)
    assert int(b[0]) == 6


@pytest.mark.parametrize("s", [2, 4, 8])
def test_una_exhaustive(s):
    circ, rep = sub.arithmetic("una", s)
    verdict = check_basis_permutation(
        circ, lambda v: {"z": v["z"] ^ ((1 << v["a"].bit_length()) - 1)})
    assert verdict.ok
    assert rep.t_count == 4 * s - 4
    assert rep.ancilla_reusable == 2 * s


def test_una_example():
    # 0b0101 -> 0b0111 (zeros matching the leading zeros, ones after)
    circ, _ = sub.arithmetic("una", 4)
    from schwinger_be.simulate import circuit_index_map, reg_values
    out = circuit_index_map(circ, np.array([0b0101 << 4]))
    z = reg_values(out, 8, circ.registers["z"].qubits)
    assert int(z[0]) == 0b0111


@pytest.mark.parametrize("s,controlled,cost", [(4, False, 28), (4, True, 32),
                                               (8, False, 56)])
def test_cswap(s, controlled, cost):
    circ, rep = sub.arithmetic("cswap", s, controlled=controlled)
    assert rep.t_count == cost

    def ref(v):
        fire = v["ctrl"] == (0b11 if controlled else 1)
        return ({"a": v["b"], "b": v["a"]} if fire
                else {"a": v["a"], "b": v["b"]})

    assert check_basis_permutation(circ, ref).ok


def test_reflection_boundary():
    _, rep = sub.arithmetic("reflection", 2)
    assert rep.t_count == 0  # 4s-8 at s=2
    _, rep = sub.arithmetic("reflection", 5)
    assert rep.t_count == 12


def test_arithmetic_rejects():
    with pytest.raises(ValueError):
        sub.arithmetic("bogus", 4)
    with pytest.raises(ValueError):
        sub.arithmetic("ineq", 0)
    with pytest.raises(ValueError):
        sub.arithmetic("ineq", 4, controlled=True)


# -- the control table ------------------------------------------------------------

#: one gate of every kind that ``_control`` accepts, on qubits 1.. of a
#: five-qubit register whose qubit 0 is the control
CONTROL_CASES = [
    Gate("X", (1,)), Gate("CNOT", (1, 2)), Gate("H", (2,)),
    Gate("RY", (1,), angle=0.7, eps=1e-3, charged=False),
    Gate("RZ", (2,), angle=-0.4, eps=1e-5),
    Gate("MCX", (1, 2, 3)), Gate("MCX", (1, 2, 3, 4)),
    Gate("REFLECT", (1, 2, 3)),
    Gate("REFLECT", (1, 2, 3, 4), pattern=0b1010, width=6),
    Gate("PHASE0", (2, 3), angle=-1.3, pattern=0b01),
    Gate("PHASE0", (1, 2, 3), angle=0.9, eps=1e-3, width=4),
]


def _act(gate, state):
    circ = Circuit()
    circ.add_register("q", 5)
    circ.append(gate)
    return simulate_statevector(circ, state)


@pytest.mark.parametrize("gate", CONTROL_CASES,
                         ids=lambda g: f"{g.kind}{len(g.qubits)}")
def test_control_and_strip_roundtrip(gate):
    assert sub._control(gate, None) is gate
    cg = sub._control(gate, 0)
    assert cg.qubits == (0,) + gate.qubits
    (back,) = sub.strip_control([cg], 0)
    # an MCX on three qubits comes back named by its arity
    three = gate.kind == "MCX" and len(gate.qubits) == 3
    assert back.kind == ("TOFFOLI" if three else gate.kind)
    assert max(back.pattern, 0) == max(gate.pattern, 0)
    assert gate_cost(back) == gate_cost(gate)
    rng = np.random.default_rng(len(gate.qubits))
    psi = rng.normal(size=32) + 1j * rng.normal(size=32)
    assert np.allclose(_act(back, psi), _act(gate, psi), atol=1e-12)
    # with the control set, the controlled gate acts as ``gate`` does
    on = np.zeros(32, dtype=complex)
    on[16:] = psi[16:]
    assert np.allclose(_act(cg, on), _act(gate, on), atol=1e-12)


def test_control_rejects_unknown_kinds():
    with pytest.raises(ValueError):
        sub._control(Gate("CSWAP", (1, 2, 3), width=1), 0)
    # a controlled phase has no priced form with a second control
    with pytest.raises(ValueError):
        sub._control(sub._control(Gate("PHASE0", (1, 2)), 0), 3)
    # the control must be the first qubit of the gate it is stripped from
    with pytest.raises(ValueError):
        sub.strip_control([Gate("CNOT", (1, 0))], 0)


# -- sqrt-weight preparations ---------------------------------------------------


@pytest.mark.parametrize("n", [8, 16])
def test_ps1_profile(n):
    circ, _ = sub.p_s1(n, 1e-2)
    w, norm = success_weights(circ)
    target = np.zeros_like(w)
    target[2:n:2] = np.arange(2, n, 2)
    target /= target.sum()
    assert np.max(np.abs(w - target)) < 1e-10


@pytest.mark.parametrize("n", [8, 16])
def test_ps2_profile(n):
    circ, _ = sub.p_s2(n, 1e-2)
    w, norm = success_weights(circ)
    target = np.zeros_like(w)
    target[1:n:2] = np.arange(1, n, 2)
    target /= target.sum()
    assert np.max(np.abs(w - target)) < 1e-10
    assert norm == pytest.approx(1.0, abs=1e-10)  # post-selected mass


def test_ps1_general_mode_profile():
    circ, _ = sub.p_s1(12, 1e-2, short_circuit=False)
    w, _ = success_weights(circ)
    target = np.zeros_like(w)
    target[2:12:2] = np.arange(2, 12, 2)
    target /= target.sum()
    assert np.max(np.abs(w - target)) < 1e-10


@pytest.mark.parametrize("n", GENERAL_N)
@pytest.mark.parametrize("controlled", [False, True])
def test_ps1_ps2_tallies(n, controlled):
    for builder, formula in ((sub.p_s1, est.ps1_cost),
                             (sub.p_s2, est.ps2_cost)):
        _, rep = builder(n, 1e-3, controlled=controlled, short_circuit=False)
        assert rep.t_real == pytest.approx(
            formula(n, 1e-3, controlled=controlled))


# P_S2(8) emits no controlled reflection; the general N=12 builds emit four
@pytest.mark.parametrize("builder,n,short", [
    (sub.p_s1, 8, True), (sub.p_s2, 8, True),
    (sub.p_s1, 12, False), (sub.p_s2, 12, False)],
    ids=["p_s1", "p_s2", "p_s1-12-general", "p_s2-12-general"])
def test_ps_controlled_off_identity(builder, n, short):
    circ, _ = builder(n, 1e-2, controlled=True, short_circuit=short)
    psi = simulate_statevector(circ, 0)
    assert psi[0] == pytest.approx(1.0, abs=1e-12)


def test_ps_rejects_odd_n():
    with pytest.raises(ValueError):
        sub.p_s1(7, 1e-2)


# -- linear-weight preparation ----------------------------------------------------


def test_ps3_pre_amplification_amplitude():
    # closed form sqrt((N-1)N(2N-1)/6N^3) stays above 1/2 from N=8 on
    assert sub.ps3_amplitude(8) == pytest.approx(
        math.sqrt(7 * 8 * 15 / (6 * 512)))
    assert sub.ps3_amplitude(8) == pytest.approx(0.5229, abs=1e-4)
    assert sub.ps3_amplitude(8) > 0.5


def test_ps3_rejects_small_n():
    with pytest.raises(ValueError):
        sub.p_s3(6, 1e-2)


@pytest.mark.parametrize("n", [8, 16])
def test_ps3_profile(n):
    circ, _ = sub.p_s3(n, 1e-6)
    psi = project_success(simulate_statevector(circ), circ)
    w = register_weights(psi, circ, "out")
    w /= w.sum()
    target = np.arange(float(1 << (n - 1).bit_length())) ** 2
    target[n:] = 0
    target /= target.sum()
    assert np.max(np.abs(w - target)) < 1e-8
    # the success branch is a clean product: amplitudes proportional to n
    amp_target = np.arange(float(len(w)))
    amp_target[n:] = 0
    amp_target /= np.linalg.norm(amp_target)
    assert register_overlap(psi, circ, "out",
                            amp_target.astype(complex)) == pytest.approx(
        1.0, abs=1e-8)


def test_ps3_general_mode_profile():
    circ, _ = sub.p_s3(12, 1e-6, short_circuit=False)
    psi = project_success(simulate_statevector(circ), circ)
    w = register_weights(psi, circ, "out")
    w /= w.sum()
    target = np.arange(16.0) ** 2
    target[12:] = 0
    target /= target.sum()
    assert np.max(np.abs(w - target)) < 1e-8


@pytest.mark.parametrize("n", GENERAL_N)
@pytest.mark.parametrize("controlled", [False, True])
def test_ps3_tally(n, controlled):
    _, rep = sub.p_s3(n, 1e-3, controlled=controlled, short_circuit=False)
    assert rep.t_real == pytest.approx(
        est.ps3_cost(n, 1e-3, controlled=controlled))


def test_ps3_controlled_off_identity():
    circ, _ = sub.p_s3(8, 1e-4, controlled=True)
    psi = simulate_statevector(circ, 0)
    assert psi[0] == pytest.approx(1.0, abs=1e-10)


# -- prefix-uniform map -----------------------------------------------------------


def test_p2_round_count_example():
    # Delta = 1e-3: smallest odd >= sqrt(2) ln(2/sqrt(0.001)) ~ 5.88 -> 7
    assert est.amplification_rounds(1e-3) == 7
    circ, _ = sub.p2(8, 1e-6, 1e-3)
    assert circ.metadata["rounds"] == 7


def test_fixed_point_phase_schedule():
    alphas, betas = sub.fixed_point_phases(7, 1e-3)
    assert len(alphas) == 3
    assert np.allclose(betas, -alphas[::-1])
    with pytest.raises(ValueError):
        sub.fixed_point_phases(6, 1e-3)


def _p2_overlaps(n, eps, delta):
    circ, _ = sub.p2(n, eps, delta)
    nq = circ.n_qubits
    b = (n - 1).bit_length()
    from schwinger_be.simulate import reg_values
    idx = np.arange(1 << nq)
    outv = reg_values(idx, nq, circ.registers["out"].qubits)
    idxv = reg_values(idx, nq, circ.registers["idx"].qubits)
    overlaps = {}
    from schwinger_be.simulate import _place
    succ_bit = _place(nq, circ.registers["p2succ"].qubits, 1)
    for val in range(1, n):
        psi = simulate_statevector(
            circ, _place(nq, circ.registers["idx"].qubits, val))
        proj = project_success(psi, circ)
        # working registers are restored, so on the success branch only the
        # input, output, and success-flag registers carry support
        target = np.zeros(1 << nq, dtype=complex)
        base = _place(nq, circ.registers["idx"].qubits, val) | succ_bit
        for i in range(val):
            target[base | _place(nq, circ.registers["out"].qubits, i)] = \
                1 / math.sqrt(val)
        overlaps[val] = abs(np.vdot(target, proj)) ** 2
    return overlaps


def test_p2_overlap_guarantee():
    delta = 1e-3
    ov = _p2_overlaps(8, 1e-6, delta)
    for n_val, x in ov.items():
        assert x >= 1 - delta, (n_val, x)
    # power-of-two inputs are exact before amplification and stay so
    assert ov[1] == pytest.approx(1.0, abs=1e-9)
    assert ov[2] == pytest.approx(1.0, abs=1e-9)
    assert ov[4] == pytest.approx(1.0, abs=1e-9)


def test_p2_restores_working_registers():
    # no junk: projecting on success, the m and z registers read zero
    circ, _ = sub.p2(8, 1e-6, 1e-3)
    nq = circ.n_qubits
    from schwinger_be.simulate import _place, reg_values
    psi = simulate_statevector(
        circ, _place(nq, circ.registers["idx"].qubits, 5))
    proj = project_success(psi, circ)
    idx = np.arange(1 << nq)
    for reg in ("m", "z", "t"):
        vals = reg_values(idx, nq, circ.registers[reg].qubits)
        mass = np.sum(np.abs(proj[vals != 0]) ** 2)
        assert mass < 1e-18


@pytest.mark.parametrize("n", [8, 12, 20])
@pytest.mark.parametrize("controlled", [False, True])
def test_p2_tally(n, controlled):
    _, rep = sub.p2(n, 1e-4, 1e-3, controlled=controlled)
    assert rep.t_real == pytest.approx(
        est.p2_cost(n, 1e-4, 1e-3, controlled=controlled))


def test_p2_controlled_off_identity():
    circ, _ = sub.p2(8, 1e-4, 1e-2, controlled=True)
    nq = circ.n_qubits
    from schwinger_be.simulate import _place
    inp = _place(nq, circ.registers["idx"].qubits, 5)
    psi = simulate_statevector(circ, inp)
    assert psi[inp] == pytest.approx(1.0, abs=1e-10)


# -- SELECT ------------------------------------------------------------------------


def test_select_z_applies_signed_pauli():
    # address 2 applies (+1)^2 Z_2
    circ, _ = sub.select("z", 4, 2)
    nq = circ.n_qubits
    from schwinger_be.simulate import _place
    ctrl = circ.registers["ctrl"].qubits
    addr = circ.registers["addr"].qubits
    sys = circ.registers["system"].qubits
    base = _place(nq, ctrl, 0b11) | _place(nq, addr, 2)
    psi = simulate_statevector(circ, base | _place(nq, sys, 0b0000))
    assert psi[base] == pytest.approx(1.0)  # Z on |0>: +1
    inp = base | _place(nq, sys, 0b0010)  # site 2 occupied
    psi = simulate_statevector(circ, inp)
    assert psi[inp] == pytest.approx(-1.0)
    # odd address flips the overall sign
    base1 = _place(nq, ctrl, 0b11) | _place(nq, addr, 1)
    psi = simulate_statevector(circ, base1)
    assert psi[base1] == pytest.approx(-1.0)


def test_select_xx_and_yy():
    circ, _ = sub.select("xx", 4, 3)
    nq = circ.n_qubits
    from schwinger_be.simulate import _place
    base = (_place(nq, circ.registers["ctrl"].qubits, 0b111)
            | _place(nq, circ.registers["addr"].qubits, 1))
    psi = simulate_statevector(circ, base)
    out = base | _place(nq, circ.registers["system"].qubits, 0b0110)
    assert psi[out] == pytest.approx(1.0)
    circ, _ = sub.select("yy", 4, 3)
    psi = simulate_statevector(circ, base)
    assert psi[out] == pytest.approx(-1.0)  # Y x Y on |00> gives -|11>


def test_select_out_of_range_identity():
    circ, _ = sub.select("xx", 4, 3)
    nq = circ.n_qubits
    from schwinger_be.simulate import _place
    inp = (_place(nq, circ.registers["ctrl"].qubits, 0b111)
           | _place(nq, circ.registers["addr"].qubits, 3))  # >= N-1
    psi = simulate_statevector(circ, inp)
    assert psi[inp] == pytest.approx(1.0)


def test_select_control_pattern_off_identity():
    circ, _ = sub.select("z2", 4, 3)
    nq = circ.n_qubits
    from schwinger_be.simulate import _place
    inp = (_place(nq, circ.registers["ctrl"].qubits, 0b011)
           | _place(nq, circ.registers["addr"].qubits, 1)
           | _place(nq, circ.registers["system"].qubits, 0b0100))
    psi = simulate_statevector(circ, inp)
    assert psi[inp] == pytest.approx(1.0)


#: the SELECT prices as five separate rules, the reference for the one
#: unary-iteration rule 4(L-1) + 4(c-1) of ``select_cost``
SELECT_TABLE = {("xx", 3): lambda n: 4 * n,
                ("yy", 3): lambda n: 4 * n,
                ("z", 2): lambda n: 4 * n,
                ("z2", 3): lambda n: 4 * n + 4,
                ("z2", 4): lambda n: 4 * n + 8}


def test_select_costs():
    assert sub.select("xx", 16, 3)[1].t_count == 64
    assert sub.select("yy", 16, 3)[1].t_count == 64
    assert sub.select("z", 16, 2)[1].t_count == 64
    assert sub.select("z2", 16, 3)[1].t_count == 68
    assert sub.select("z2", 16, 4)[1].t_count == 72
    with pytest.raises(ValueError):
        sub.select("z", 16, 4)
    with pytest.raises(ValueError):
        sub.select("w", 16, 3)
    assert est.SELECT_VARIANTS == set(SELECT_TABLE)
    for (kind, controls), rule in SELECT_TABLE.items():
        for n in range(2, 4097):
            cost = est.select_cost(kind, n, controls)
            assert type(cost) is int and cost == rule(n), (kind, n, controls)
        # the gate is priced by circuit's rule from its own fields
        for n in (2, 3, *range(4, 4097, 2)):
            circ, rep = sub.select(kind, n, controls)
            (gate,) = circ.gates
            assert gate.n_terms == est.select_terms(kind, n) == (
                n - 1 if kind in ("xx", "yy") else n)
            assert rep.t_real == est.select_cost(kind, n, controls), (kind, n)


# -- coefficient preparation ---------------------------------------------------------


def test_p1_branch_weights_n8():
    from schwinger_be.subroutines import BRANCH_LABELS
    p = benchmark_params(8)
    circ, _ = sub.p1(p, 1e-2)
    psi = simulate_statevector(circ)
    w = register_weights(psi, circ, "label")
    wts = circ.metadata["weights"]
    alpha = sum(wts.values())
    for key, label in BRANCH_LABELS.items():
        assert w[label] == pytest.approx(wts[key] / alpha, abs=1e-10)
    # mass branch explicitly: (m N / 2) / alpha_S
    assert w[0b010] == pytest.approx((0.1 * 8 / 2) / alpha, abs=1e-10)
    assert w.sum() == pytest.approx(1.0, abs=1e-10)


def test_p1_branch_profiles_n8():
    p = benchmark_params(8)
    circ, _ = sub.p1(p, 1e-2)
    psi = simulate_statevector(circ)
    lab = circ.registers["label"].qubits
    cases = {0b000: np.array([1.0] * 7 + [0.0]),
             0b001: np.array([1.0] * 7 + [0.0]),
             0b010: np.array([1.0] * 8),
             0b100: np.array([0, 0, 2, 0, 4, 0, 6, 0], dtype=float),
             0b101: np.array([0, 1, 0, 3, 0, 5, 0, 7], dtype=float),
             0b110: np.arange(8.0) ** 2}
    for label, prof in cases.items():
        conds = [(lab[k], (label >> (2 - k)) & 1) for k in range(3)]
        circ.metadata["success"] = conds
        proj = project_success(psi, circ)
        w = register_weights(proj, circ, "out")
        assert np.max(np.abs(w / w.sum() - prof / prof.sum())) < 1e-10


@pytest.mark.parametrize("n", GENERAL_N)
def test_p1_tally(n):
    p = benchmark_params(n)
    _, rep = sub.p1(p, 1e-3, short_circuit=False)
    assert rep.t_real == pytest.approx(est.p1_cost(n, 1e-3))


#: T the default, short-circuited P1 saves on its closed form at every
#: power-of-two N from 8 to 256, by eps
P1_SHORT_CIRCUIT_SAVING = {1e-2: 1518.2415435290159, 1e-4: 2246.241543529016}


@pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 256])
@pytest.mark.parametrize("eps", EPS_GRID)
def test_closed_forms_at_table3_sizes(n, eps):
    # Table 3's sizes are powers of two, where the closed forms price
    # neither builder mode.  The general UNI charges 12 l - 4 for its
    # comparisons and reflection, -4 at l = 0, where the uncontrolled
    # one-qubit reflection costs 0; P_S3 holds eight such UNIs.
    def uni(controlled):
        return sub.uni(n, eps, controlled=controlled,
                       short_circuit=False)[1].t_real

    assert uni(False) == pytest.approx(est.uni_cost(n, eps) + 4)
    assert uni(True) == pytest.approx(est.uni_cost(n, eps, controlled=True))
    p, cost = benchmark_params(n), est.p1_cost(n, eps)
    assert sub.p1(p, eps, short_circuit=False)[1].t_real == pytest.approx(
        cost + 32)
    assert sub.p1(p, eps)[1].t_real == pytest.approx(
        cost - P1_SHORT_CIRCUIT_SAVING[eps])


def test_p1_formula_instantiates_at_n16():
    # closed form at N=16 with per-rotation ceiling
    val = est.p1_cost(16, 1e-2)
    b, bp, bpp = 4, 3, 3
    expect = (156 * math.ceil(math.log2(39 / 1e-2)) + 28 * b + 19 * bp
              + 19 * bpp + 8 * 4 + 4 * 0 + 4 * 3 + 4 * 0 + 8 * 3
              + 128 * 0 + 16 * 4 + 16 * 0 + 16 * 3 + 32 * 0
              + 39 * est.C_ROT + 104)
    assert val == pytest.approx(expect)


def test_p1_rejects_negative_branch_weight():
    from schwinger_be.model import normalization
    p = benchmark_params(8)
    bad = type(p)(n_sites=8, spacing=0.2, mass=0.1, coupling=1.0,
                  theta=-math.pi / 2)
    # alpha_S is defined there; only the preparation refuses the weight
    assert normalization(bad).weights["zeven"] < 0
    with pytest.raises(ValueError):
        sub.p1(bad, 1e-2)


def test_branch_weights_sum_to_alpha():
    """alpha_S is, bit for bit, the left-to-right sum of the six weights P1
    loads, in the order xx, yy, z, zeven, zodd, zsq."""
    from schwinger_be.model import BENCHMARK, ModelParams, normalization
    rng = np.random.default_rng(29)
    draws = rng.uniform((0.01, 0, 0, 0), (2, 3, 3, 7), (20, 4)).tolist()
    points = [BENCHMARK] + [dict(spacing=a, mass=m, coupling=g, theta=t)
                            for a, m, g, t in draws]
    for pt in points:
        for n in range(2, 4097, 2):
            p = ModelParams(n_sites=n, **pt)
            wts = sub.branch_weights(p)
            assert list(wts) == ["xx", "yy", "z", "zeven", "zodd", "zsq"]
            total = 0.0
            for w in wts.values():
                total += w
            assert normalization(p).alpha_s == total


# -- builder reports -----------------------------------------------------------------

# every builder returns the public tally of its own circuit, so the report a
# builder prints and count_resources of a loaded or rebuilt circuit agree
REPORT_CASES = {
    "uni": lambda: sub.uni(6, 1e-2, short_circuit=False),
    "uni_ctrl": lambda: sub.uni(12, 1e-3, True, short_circuit=False),
    "p_s1": lambda: sub.p_s1(12, 1e-3, short_circuit=False),
    "p_s1_ctrl": lambda: sub.p_s1(12, 1e-3, True, short_circuit=False),
    "p_s2": lambda: sub.p_s2(12, 1e-3, short_circuit=False),
    "p_s2_ctrl": lambda: sub.p_s2(12, 1e-3, True, short_circuit=False),
    "p_s3": lambda: sub.p_s3(8, 1e-3),
    "p_s3_ctrl": lambda: sub.p_s3(12, 1e-3, True, short_circuit=False),
    "p2": lambda: sub.p2(8, 1e-4, 1e-2),
    "p2_ctrl": lambda: sub.p2(12, 1e-3, 1e-3, True),
    "p1": lambda: sub.p1(benchmark_params(8), 1e-3),
    "p1_general": lambda: sub.p1(benchmark_params(12), 1e-3,
                                 short_circuit=False),
    "select_xx": lambda: sub.select("xx", 8, 3),
    "select_yy": lambda: sub.select("yy", 8, 3),
    "select_z": lambda: sub.select("z", 8, 2),
    "select_z2_3": lambda: sub.select("z2", 8, 3),
    "select_z2_4": lambda: sub.select("z2", 8, 4),
    "arith_ineq": lambda: sub.arithmetic("ineq", 5),
    "arith_sub": lambda: sub.arithmetic("sub", 5),
    "arith_una": lambda: sub.arithmetic("una", 5),
    "arith_cswap": lambda: sub.arithmetic("cswap", 5),
    "arith_ccswap": lambda: sub.arithmetic("cswap", 5, True),
    "arith_reflection": lambda: sub.arithmetic("reflection", 5),
}


@pytest.mark.parametrize("case", sorted(REPORT_CASES))
def test_builder_report_is_public_tally(case):
    circ, rep = REPORT_CASES[case]()
    assert count_resources(circ) == rep
