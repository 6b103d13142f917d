"""The statevector simulator against a reference evaluator.

The reference applies each gate to a dense vector through index arrays over
all 2^n amplitudes, as the package's simulator once did; it lives only here.
Random circuits of at most 12 qubits cover every gate kind the simulator
accepts, and every kernel is checked in both the sparse and the dense form.
"""
import math

import numpy as np
import pytest

from schwinger_be import backend, simulate
from schwinger_be.circuit import Circuit, Gate
from schwinger_be.simulate import (_MAT_1Q, _bit, _mask, _place, _ry, _rz,
                                   check_basis_permutation, gate_index_map,
                                   project_success, register_overlap,
                                   register_weights, simulate_statevector)
from schwinger_be.subroutines import arithmetic

# -- reference evaluator -------------------------------------------------------


def _ref_1q(state, mat, tbit, cmask=0, cval=0):
    idx = np.arange(state.shape[0])
    sel = ((idx & tbit) == 0) & ((idx & cmask) == cval)
    i0 = idx[sel]
    i1 = i0 | tbit
    x0 = state[i0]
    x1 = state[i1]
    state[i0] = mat[0, 0] * x0 + mat[0, 1] * x1
    state[i1] = mat[1, 0] * x0 + mat[1, 1] * x1


def _ref_phase(state, mask, val, phase):
    idx = np.arange(state.shape[0])
    state[(idx & mask) == val] *= phase


def _ref_select(state, g, n):
    nc, ba = g.splits
    ctrls = g.qubits[:nc]
    addr = g.qubits[nc:nc + ba]
    sys = g.qubits[nc + ba:]
    idx = np.arange(state.shape[0])
    cmask = _mask(n, ctrls)
    cval = _place(n, ctrls, g.pattern if g.pattern >= 0 else (1 << nc) - 1)
    amask = _mask(n, addr)
    for a in range(g.n_terms):
        sub = idx[((idx & cmask) == cval)
                  & ((idx & amask) == _place(n, addr, a))]
        if g.kind in ("SEL_XX", "SEL_YY"):
            b0, b1 = _bit(n, sys[a]), _bit(n, sys[a + 1])
            phase = 1.0
            if g.kind == "SEL_YY":
                phase = np.where(((sub & b0) != 0) == ((sub & b1) != 0),
                                 -1.0, 1.0)
            amps = state[sub] * phase
            state[sub] = 0.0
            state[sub ^ b0 ^ b1] = amps
        elif g.kind == "SEL_Z":
            b0 = _bit(n, sys[a])
            state[sub] *= np.where((sub & b0) != 0, -1.0, 1.0) * (-1.0) ** a
        else:
            b0 = _bit(n, sys[a])
            state[sub] *= np.where((sub & b0) != 0, -1.0, 1.0)


def _ref_gate(state, g, n):
    """Apply ``g`` to the dense ``state`` in place."""
    k = g.kind
    if k.startswith("SEL_"):
        _ref_select(state, g, n)
    elif k in ("REFLECT", "PHASE0"):
        mask = _mask(n, g.qubits)
        val = _place(n, g.qubits, g.pattern if g.pattern >= 0 else 0)
        if k == "REFLECT":
            state *= -1.0
            _ref_phase(state, mask, val, -1.0)
        else:
            _ref_phase(state, mask, val, np.exp(1j * g.angle))
    elif (perm := gate_index_map(g, n, np.arange(state.shape[0]))) is not None:
        out = np.empty_like(state)
        out[perm] = state
        state[:] = out
    elif k in ("RY", "RZ"):
        mat = _ry(g.angle) if k == "RY" else _rz(g.angle)
        _ref_1q(state, mat, _bit(n, g.qubits[0]))
    elif k in ("CRY", "CRZ", "CH"):
        mat = (_MAT_1Q["H"] if k == "CH"
               else _ry(g.angle) if k == "CRY" else _rz(g.angle))
        c, t = g.qubits
        _ref_1q(state, mat, _bit(n, t), _bit(n, c), _bit(n, c))
    elif k == "CZ":
        mask = _mask(n, g.qubits)
        _ref_phase(state, mask, mask, -1.0)
    else:
        _ref_1q(state, _MAT_1Q[k], _bit(n, g.qubits[0]))


def _ref_simulate(circ, vec):
    state = np.array(vec, dtype=complex)
    for g in circ.gates:
        _ref_gate(state, g, circ.n_qubits)
    return state


# -- random inputs ---------------------------------------------------------------

KINDS = ("H", "S", "T", "X", "Y", "Z", "RY", "RZ", "CNOT", "CZ", "SWAP",
         "CH", "CRY", "CRZ", "TOFFOLI", "MCX", "REFLECT", "PHASE0", "CSWAP",
         "CCSWAP", "INEQ", "SUB", "ADDC", "UNA", "SEL_XX", "SEL_YY", "SEL_Z",
         "SEL_Z2")
N_OPERANDS = {"CNOT": 2, "CZ": 2, "SWAP": 2, "CH": 2, "CRY": 2, "CRZ": 2,
              "TOFFOLI": 3}


def _random_gate(rng, kind, n):
    def pick(k):
        return tuple(int(q) for q in rng.choice(n, size=k, replace=False))

    angle = float(rng.uniform(0, 2 * math.pi))
    s = int(rng.integers(1, 4))
    if kind in ("REFLECT", "PHASE0"):
        w = int(rng.integers(1, 5))
        return Gate(kind, pick(w), angle=angle,
                    pattern=int(rng.integers(-1, 1 << w)))
    if kind == "MCX":
        return Gate(kind, pick(int(rng.integers(2, 6))))
    if kind in ("CSWAP", "CCSWAP"):
        nc = 1 if kind == "CSWAP" else 2
        return Gate(kind, pick(nc + 2 * s), width=s)
    if kind == "INEQ":
        sa, sb = (int(x) for x in rng.integers(1, 4, size=2))
        return Gate(kind, pick(sa + sb + 1), splits=(sa, sb), width=max(sa, sb))
    if kind in ("SUB", "UNA"):
        return Gate(kind, pick(2 * s), width=s)
    if kind == "ADDC":
        s = int(rng.integers(1, 6))
        return Gate(kind, pick(s), width=s, const=int(rng.integers(1, 1 << s)))
    if kind.startswith("SEL_"):
        nc, ba = int(rng.integers(0, 3)), int(rng.integers(1, 3))
        terms = int(rng.integers(1, (1 << ba) + 1))
        n_sys = terms + (kind in ("SEL_XX", "SEL_YY"))
        return Gate(kind, pick(nc + ba + n_sys), splits=(nc, ba),
                    n_terms=terms, pattern=int(rng.integers(-1, 1 << nc)),
                    cost_t=0.0)
    return Gate(kind, pick(N_OPERANDS.get(kind, 1)), angle=angle)


def _random_circuit(rng, n, depth):
    circ = Circuit()
    circ.add_register("q", n)
    for kind in rng.choice(KINDS, size=depth):
        circ.append(_random_gate(rng, str(kind), n))
    return circ


def _random_state(rng, n, support):
    vec = np.zeros(1 << n, dtype=complex)
    idx = rng.choice(1 << n, size=support, replace=False)
    vec[idx] = rng.normal(size=support) + 1j * rng.normal(size=support)
    return vec / np.linalg.norm(vec)


# -- tests -----------------------------------------------------------------------


def test_kernels_match_reference_in_both_forms():
    rng = np.random.default_rng(2024)
    for kind in KINDS:
        for _ in range(12):
            n = int(rng.integers(9, 12))
            g = _random_gate(rng, kind, n)
            vec = _random_state(rng, n, int(rng.integers(1, 1 << (n - 2))))
            want = vec.copy()
            _ref_gate(want, g, n)
            sparse = simulate._apply(backend.from_vector(vec, 1 << n), g, n)
            assert isinstance(sparse, backend.Sparse)
            assert np.all(np.diff(sparse.idx) > 0), kind
            assert np.all(np.abs(sparse.amp) > backend.DROP), kind
            dense = simulate._apply(vec.copy(), g, n)
            for got in (backend.to_vector(sparse, 1 << n), dense):
                assert np.max(np.abs(got - want)) <= 1e-12, (kind, g)


def _family_image(g, n, i):
    """Image of basis index ``i`` under an X- or swap-family gate, bit by
    bit from the gate's definition."""
    bits = [(i >> (n - 1 - q)) & 1 for q in range(n)]
    if g.kind in ("X", "CNOT", "TOFFOLI", "MCX"):
        *ctrls, t = g.qubits
        if all(bits[c] for c in ctrls):
            bits[t] ^= 1
    else:
        s = g.width or 1
        nc = {"SWAP": 0, "CSWAP": 1, "CCSWAP": 2}[g.kind]
        a, b = g.qubits[nc:nc + s], g.qubits[nc + s:nc + 2 * s]
        if all(bits[c] for c in g.qubits[:nc]):
            for qa, qb in zip(a, b):
                bits[qa], bits[qb] = bits[qb], bits[qa]
    return sum(v << (n - 1 - q) for q, v in enumerate(bits))


def test_family_index_maps_match_bitwise_definition():
    # the reference evaluator above uses gate_index_map itself, so the
    # X and swap families are checked here against their definitions
    rng = np.random.default_rng(11)
    for kind in ("X", "CNOT", "TOFFOLI", "MCX", "SWAP", "CSWAP", "CCSWAP"):
        for _ in range(8):
            n = int(rng.integers(8, 10))
            g = _random_gate(rng, kind, n)
            idx = np.arange(1 << n, dtype=np.int64)
            want = [_family_image(g, n, int(i)) for i in idx]
            assert gate_index_map(g, n, idx).tolist() == want, g


def test_sparse_and_dense_match_reference(monkeypatch):
    # three starts: a basis state (sparse, turns dense on the way), a random
    # dense vector (dense throughout), and a vector whose support sits at the
    # switch point, so a gate that widens it switches the form
    forms = []
    to_vector = backend.to_vector

    def spy(state, dim):
        forms.append(type(state).__name__)
        return to_vector(state, dim)

    monkeypatch.setattr(backend, "to_vector", spy)
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(9, 13))
        circ = _random_circuit(rng, n, 30)
        dim = 1 << n
        basis = int(rng.integers(dim))
        vec = np.zeros(dim, dtype=complex)
        vec[basis] = 1.0
        got = simulate_statevector(circ, basis)
        assert np.max(np.abs(got - _ref_simulate(circ, vec))) <= 1e-12

        vec = _random_state(rng, n, dim)
        forms.clear()
        got = simulate_statevector(circ, vec)
        assert forms == ["ndarray"]
        assert np.max(np.abs(got - _ref_simulate(circ, vec))) <= 1e-12

        edge = dim >> simulate.DENSE_SHIFT
        vec = _random_state(rng, n, edge)
        widen = Circuit()
        widen.add_register("q", n)
        widen.add("H", (int(rng.integers(n)),))
        widen.extend(circ.gates)
        forms.clear()
        got = simulate_statevector(widen, vec)
        assert forms == ["Sparse", "ndarray"]
        assert np.max(np.abs(got - _ref_simulate(widen, vec))) <= 1e-12


def test_simulator_keeps_input_and_checks():
    circ = Circuit()
    circ.add_register("q", 3)
    circ.add("H", (0,))
    vec = np.zeros(8, dtype=complex)
    vec[5] = 1.0
    simulate_statevector(circ, vec)
    assert vec[5] == 1.0 and np.count_nonzero(vec) == 1
    assert simulate_statevector(circ, -1)[7] == pytest.approx(-1 / math.sqrt(2))
    with pytest.raises(IndexError):
        simulate_statevector(circ, 8)
    with pytest.raises(ValueError):
        simulate_statevector(circ, np.ones(4))
    circ.add("COMPOSITE", (0, 1), cost_t=1.0)
    with pytest.raises(ValueError):
        simulate_statevector(circ)


def _register_circuit():
    circ = Circuit()
    circ.add_register("a", 4)
    circ.add_register("r", 3)
    circ.add_register("b", 3)
    circ.registers["r"].qubits = (1, 5, 8)  # a register spread over the index
    circ.registers["a"].qubits = (0, 2, 3, 4)
    circ.registers["b"].qubits = (6, 7, 9)
    return circ


@pytest.mark.parametrize("support", [1024, 40])
def test_register_helpers_match_brute_force(support):
    rng = np.random.default_rng(support)
    circ = _register_circuit()
    n = circ.n_qubits
    state = _random_state(rng, n, support)
    target = rng.normal(size=8) + 1j * rng.normal(size=8)
    target /= np.linalg.norm(target)
    qs = circ.registers["r"].qubits
    weights = np.zeros(8)
    acc = {}
    for i in range(1 << n):
        v = sum(((i >> (n - 1 - q)) & 1) << (2 - k) for k, q in enumerate(qs))
        weights[v] += abs(state[i]) ** 2
        rest = i & ~_mask(n, qs)
        acc[rest] = acc.get(rest, 0) + np.conj(target[v]) * state[i]
    overlap = math.sqrt(sum(abs(x) ** 2 for x in acc.values()))
    assert np.allclose(register_weights(state, circ, "r"), weights,
                       rtol=0, atol=1e-12)
    assert register_overlap(state, circ, "r", target) == pytest.approx(
        overlap, abs=1e-12)

    conds = [("bit", 1, 1), ("bit", 6, 0)]
    want = state.copy()
    idx = np.arange(1 << n)
    want[((idx >> (n - 1 - 1)) & 1) != 1] = 0
    want[((idx >> (n - 1 - 6)) & 1) != 0] = 0
    got = project_success(state, circ, conds)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_permutation_check_samples_above_exhaustive_limit():
    circ, _ = arithmetic("ineq", 9)
    assert circ.n_qubits == 19 > simulate.EXHAUSTIVE_LIMIT
    verdict = check_basis_permutation(
        circ, lambda v: {"out": v["out"] ^ (v["a"] <= v["b"])})
    assert verdict.ok and not verdict.failures
    assert verdict.checked == simulate.PERMUTATION_SAMPLES == 4096
    # a reference that misses the comparison fails on about half the
    # samples; the check stops at the tenth
    wrong = check_basis_permutation(circ, lambda v: {"out": v["out"]})
    assert not wrong.ok
    assert len(wrong.failures) == simulate.MAX_FAILURES == 10
