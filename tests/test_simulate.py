"""The statevector simulator against a reference evaluator.

The reference applies each gate to a dense vector through index arrays over
all 2^n amplitudes, as the package's simulator once did; it lives only here.
Random circuits of at most 12 qubits cover every gate kind the simulator
accepts, and every kernel is checked in both the sparse and the dense form.
``register_overlap``, a helper that ``test_subroutines`` imports, lives here
too, checked against brute force.
"""
import math
import mmap
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from schwinger_be import backend, simulate
from schwinger_be.circuit import Circuit, Gate
from schwinger_be.simulate import (_MAT_1Q, _bit, _mask, _place, _ry, _rz,
                                   block_amplitudes, check_basis_permutation,
                                   gate_index_map, project_success,
                                   reg_values, register_weights,
                                   simulate_statevector)
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


def register_overlap(state: np.ndarray, circuit: Circuit, reg: str,
                     target: np.ndarray) -> float:
    """|<target (x) anything | state>| / ||state||.

    Equals 1 exactly when the register factors out in the target state.
    """
    n = circuit.n_qubits
    qs = circuit.registers[reg].qubits
    idx = np.flatnonzero(state)
    amp = state[idx]
    # conj(target_v) * amp summed per value of the other qubits
    _, rest = np.unique(idx & ~_mask(n, qs), return_inverse=True)
    proj = np.zeros(rest.max(initial=-1) + 1, dtype=complex)
    np.add.at(proj, rest, np.conj(target[reg_values(idx, n, qs)]) * amp)
    norm = np.linalg.norm(amp)
    return float(np.linalg.norm(proj) / norm) if norm > 0 else 0.0


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
                    n_terms=terms, pattern=int(rng.integers(-1, 1 << nc)))
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
            nz = np.flatnonzero(vec)
            sparse = simulate._apply(backend.Sparse(nz, vec[nz]), g, n)
            assert isinstance(sparse, backend.Sparse)
            assert np.all(np.diff(sparse.idx) > 0), kind
            assert np.all(np.abs(sparse.amp) > backend.DROP), kind
            dense = simulate._apply(vec.copy(), g, n)
            for got in (backend.to_vector(sparse, 1 << n), dense):
                assert np.max(np.abs(got - want)) <= 1e-12, (kind, g)


def test_one_qubit_kernels_agree_across_forms():
    # the sparse kernel updates each pair with the dense kernel's arithmetic,
    # and both forms multiply a PHASE0's phase by real parts, so the two
    # forms give the same bits, not only close amplitudes
    rng = np.random.default_rng(10)
    n = 10
    for kind in ("H", "X", "Y", "Z", "S", "T", "RY", "RZ", "CH", "CRY", "CRZ",
                 "PHASE0"):
        for support in (1, 2, 3, 5, 200):
            for _ in range(4):
                g = _random_gate(rng, kind, n)
                vec = _random_state(rng, n, support)
                nz = np.flatnonzero(vec)
                sparse = simulate._apply(backend.Sparse(nz, vec[nz]), g, n)
                dense = simulate._apply(vec.copy(), g, n)
                assert np.array_equal(backend.to_vector(sparse, 1 << n),
                                      dense), (g, support)


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
    # four starts: a basis state (sparse, turns dense on the way), a random
    # dense vector and a vector whose support sits at the switch point (both
    # dense throughout, as every vector input is), and a basis state whose
    # Hadamards widen the support to the switch point and then past it
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
        assert forms == ["ndarray"]
        assert np.max(np.abs(got - _ref_simulate(widen, vec))) <= 1e-12

        *spread, last = (int(q) for q in rng.permutation(n)[:n - 2])
        widen = Circuit()
        widen.add_register("q", n)
        for q in spread:
            widen.add("H", (q,))
        forms.clear()
        simulate_statevector(widen, basis)
        assert forms == ["Sparse"]  # 2^(n-3) amplitudes: at the switch point
        widen.add("H", (last,))
        widen.extend(circ.gates)
        forms.clear()
        got = simulate_statevector(widen, basis)
        assert forms == ["Sparse", "ndarray"]
        vec = np.zeros(dim, dtype=complex)
        vec[basis] = 1.0
        assert np.max(np.abs(got - _ref_simulate(widen, vec))) <= 1e-12


def _dense_gates(rng, kind, n):
    """Gates of ``kind`` on n qubits, and for kinds that allow it one over
    every qubit, whose dense view has no untouched axis (a 0-d view)."""
    gates = [_random_gate(rng, kind, n) for _ in range(2)]
    every = tuple(range(n))
    if kind == "MCX":
        gates.append(Gate(kind, every))
    elif kind == "ADDC":
        gates.append(Gate(kind, every, width=n,
                          const=int(rng.integers(1, 1 << n))))
        # index bits 2^0 and 2^1 untouched: the run below moves as rows
        gates.append(Gate(kind, (0, 2, n - 3), width=3, const=5))
    elif kind == "REFLECT":
        gates.append(Gate(kind, every, pattern=-1))
    return gates


def _at_each_block(monkeypatch, apply):
    """``apply()`` with ``backend.BLOCK`` at 1, 8 and past any state."""
    out = []
    for block in (1, 8, 1 << 30):
        monkeypatch.setattr(backend, "BLOCK", block)
        out.append(apply())
    return out


def _same_bits(states) -> bool:
    """All ``states`` equal bit for bit, signed zeros included."""
    return all(np.array_equal(x.view(np.uint64), states[0].view(np.uint64))
               for x in states)


def test_dense_kernels_do_not_depend_on_block_size(monkeypatch):
    # BLOCK 1 and 8 walk short rows in place; past any state, every short
    # row moves whole into a buffer and back
    rng = np.random.default_rng(12)
    for kind in KINDS:
        for n in range(9, 13):
            vec = _random_state(rng, n, 1 << n)
            for g in _dense_gates(rng, kind, n):
                got = _at_each_block(
                    monkeypatch, lambda: simulate._apply(vec.copy(), g, n))
                assert _same_bits(got), (g, n)
    # the kinds above have real or imaginary matrix entries, whose products
    # round alike in any numpy loop; a complex unitary does not.  On every
    # target bit, uncontrolled, with a control below and one above it, and
    # on a 0-d view: a target controlled by all the other qubits.
    u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    for n in range(9, 13):
        vec = _random_state(rng, n, 1 << n)
        for k in range(n):
            t = 1 << k
            below = 1 << int(rng.integers(k)) if k else 0
            above = 1 << int(rng.integers(k + 1, n)) if k < n - 1 else 0
            for cmask in {0, below, above, (1 << n) - 1 - t}:
                got = _at_each_block(
                    monkeypatch, lambda: backend.apply_1q_ctrl(
                        vec.copy(), u, t, cmask))
                want = vec.copy()
                _ref_1q(want, u, t, cmask, cmask)
                assert _same_bits(got), (n, k, cmask)
                assert np.max(np.abs(got[0] - want)) <= 1e-12


@pytest.mark.parametrize("kind", ["H", "ADDC", "SUB"])
def test_dense_kernels_past_one_block(monkeypatch, kind):
    # 17 qubits: eight blocks of the real BLOCK per state; SUB moves 12 or
    # 56 of its 16 or 64 settings, so its blocks do not divide the run axes
    n = 17
    assert (1 << n) >= 8 * backend.BLOCK
    rng = np.random.default_rng(17)
    vec = _random_state(rng, n, 1 << n)
    for g in (_random_gate(rng, kind, n) for _ in range(3)):
        blocked = simulate._apply(vec.copy(), g, n)
        monkeypatch.setattr(backend, "BLOCK", 1 << 30)
        whole = simulate._apply(vec.copy(), g, n)
        monkeypatch.undo()
        want = vec.copy()
        _ref_gate(want, g, n)
        assert np.array_equal(blocked, whole), g
        assert np.max(np.abs(blocked - want)) <= 1e-12, g


def test_simulator_keeps_input_and_checks():
    circ = Circuit()
    circ.add_register("q", 3)
    circ.add("H", (0,))
    vec = np.zeros(8, dtype=complex)
    vec[5] = 1.0
    simulate_statevector(circ, vec)
    assert vec[5] == 1.0 and np.count_nonzero(vec) == 1
    # the first gate reads a dense input and writes a fresh vector
    n = 16
    wide = Circuit()
    wide.add_register("q", n)
    wide.add("H", (3,))
    wide.add("X", (9,))
    wide.add("ADDC", (2, 5, 6, 7, 12), width=5, const=11)
    rng = np.random.default_rng(16)
    vec = _random_state(rng, n, 1 << n)
    keep = vec.copy()
    got = simulate_statevector(wide, vec)
    assert np.array_equal(vec, keep)
    assert np.max(np.abs(got - _ref_simulate(wide, keep))) <= 1e-12
    # a real vector is converted once, into a private copy that the gates
    # update in place: it peaks no higher than a complex vector does
    real = vec.real.copy()
    peaks = []
    for v in (real, vec):
        tracemalloc.start()
        try:
            got = simulate_statevector(wide, v)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert np.array_equal(real, keep.real) and np.array_equal(vec, keep)
    assert np.max(np.abs(simulate_statevector(wide, real) - _ref_simulate(
        wide, real.astype(complex)))) <= 1e-12
    assert peaks[0] <= peaks[1] + (1 << 16), peaks
    # a first gate of each dense family, writing every amplitude or not,
    # and no gate at all: the result is a fresh writeable vector
    for g in (Gate("CRY", (14, 3), angle=0.7), Gate("RY", (9,), angle=1.9),
              Gate("RZ", (12,), angle=0.4), Gate("CZ", (1, 15)),
              Gate("REFLECT", (0, 5, 13), pattern=-1),
              Gate("PHASE0", (4, 11), pattern=2, angle=0.9),
              Gate("SEL_YY", (1, 2, 6, 7, 10), splits=(1, 1), n_terms=2,
                   pattern=1),
              Gate("SEL_Z", (1, 2, 6), splits=(1, 1), n_terms=0),
              Gate("ADDC", (2, 5, 6, 7, 12), width=5, const=11),
              Gate("CNOT", (4, 8)), None):
        one = Circuit()
        one.add_register("q", n)
        if g is not None:
            one.append(g)
        got = simulate_statevector(one, vec)
        assert np.array_equal(vec, keep), g
        assert got.flags.writeable and not np.shares_memory(got, vec), g
        want = vec if g is None else simulate._apply(vec.copy(), g, n)
        assert np.array_equal(got, want), g
    # each kernel leaves a read-only dense state as it is and writes what
    # it writes in place into a fresh vector
    frozen = vec.view()
    frozen.flags.writeable = False
    t, c = _bit(n, 5), _bit(n, 2)
    for kernel, args in (
            (backend.apply_1q_ctrl, (_ry(0.3), t)),
            (backend.apply_1q_ctrl, (_ry(0.3), t, c)),
            (backend.apply_1q_ctrl, (_MAT_1Q["T"], t, c)),
            (backend.apply_phase_pattern, (0, 0, -1.0)),
            (backend.apply_phase_pattern, (t | c, c, np.exp(0.4j))),
            (backend.apply_permutation, (lambda i: i ^ t, t)),
            (backend.apply_permutation,
             (lambda i: i ^ (i & c) // c * t, c | t))):
        got = kernel(frozen, *args)
        assert np.array_equal(vec, keep), (kernel, args)
        assert got.flags.writeable and not np.shares_memory(got, vec)
        assert np.array_equal(got, kernel(vec.copy(), *args)), (kernel, args)
    # a basis index is an integer in 0 <= i < 2^n: no wrap, no truncation
    for start in (7, np.int64(7)):
        assert simulate_statevector(circ, start)[7] == pytest.approx(
            -1 / math.sqrt(2))
    for bad in (-1, 8, 1 << 40):
        with pytest.raises(ValueError, match="outside"):
            simulate_statevector(circ, bad)
    for bad in (2.9, 2.0, np.float64(0.0)):
        with pytest.raises(TypeError):
            simulate_statevector(circ, bad)
    with pytest.raises(ValueError):
        simulate_statevector(circ, np.ones(4))
    with pytest.raises(ValueError, match="unknown gate kind"):
        circ.add("COMPOSITE", (0, 1))  # no kind carries costs only


def _register_circuit():
    circ = Circuit()
    circ.add_register("a", 4)
    circ.add_register("r", 3)
    circ.add_register("b", 3)
    circ.registers["r"].qubits = (1, 5, 8)  # a register spread over the index
    circ.registers["a"].qubits = (0, 2, 3, 4)
    circ.registers["b"].qubits = (6, 7, 9)
    return circ


def _blank_circuit(n):
    circ = Circuit()
    circ.add_register("q", n)
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

    conds = [(1, 1), (6, 0)]
    want = state.copy()
    idx = np.arange(1 << n)
    want[((idx >> (n - 1 - 1)) & 1) != 1] = 0
    want[((idx >> (n - 1 - 6)) & 1) != 0] = 0
    circ.metadata["success"] = conds
    got = project_success(state, circ)
    assert np.max(np.abs(got - want)) <= 1e-12


def _mapped(vec) -> bool:
    """Whether ``vec`` is one of ``backend.zero_vector``'s page mappings."""
    return (isinstance(vec.base, memoryview)
            and isinstance(vec.base.obj, mmap.mmap))


def _heap_zeros(dim, support):
    return np.zeros(dim, dtype=complex)


def _check_result(got, want):
    """``got`` equals the ``np.zeros`` reference ``want`` bit for bit, is a
    writable C-contiguous vector and simulates as input like a plain copy."""
    assert np.array_equal(got, want)
    assert got.dtype == complex and got.flags.writeable
    assert got.flags.c_contiguous
    n = got.size.bit_length() - 1
    circ = Circuit()
    circ.add_register("q", n)
    circ.add("H", (3,))
    circ.add("CRY", (0, n - 1), angle=0.8)
    circ.add("ADDC", (1, 5, 7, 8), width=4, const=5)
    keep = got.copy()
    again = simulate_statevector(circ, got)
    assert np.array_equal(got, keep)
    assert np.array_equal(again, simulate_statevector(circ, keep))


def test_zero_vector_maps_sparse_vectors_past_the_huge_page_threshold():
    # 2^18 amplitudes are numpy's 4 MiB threshold; 2^10 of them are one
    # amplitude per 4 KiB page
    for n, support, mapped in ((17, 0, False), (18, 0, True),
                               (18, 1 << 10, True), (18, (1 << 10) + 1, False),
                               (20, 1 << 12, True), (20, 1 << 17, False)):
        vec = backend.zero_vector(1 << n, support)
        assert _mapped(vec) == mapped, (n, support)
        assert vec.shape == (1 << n,) and vec.dtype == complex
        assert vec.flags.writeable and vec.flags.c_contiguous
        assert not vec.any()


@pytest.mark.parametrize("n", [18, 20])
def test_sparse_result_matches_zeros_reference(monkeypatch, n):
    rng = np.random.default_rng(n)
    circ = Circuit()
    circ.add_register("q", n)
    for q in rng.permutation(n)[:5].tolist():
        circ.add("H", (q,))
    circ.add("RY", (n - 2,), angle=0.3)
    circ.add("ADDC", (2, 4, 6, 7, 11, 13), width=6, const=21)
    circ.add("CNOT", (0, n - 1))
    circ.add("CRY", (1, 9), angle=1.1)
    circ.add("PHASE0", (4, 8), pattern=1, angle=0.6)
    got = simulate_statevector(circ, 5)
    with monkeypatch.context() as m:
        m.setattr(backend, "zero_vector", _heap_zeros)
        want = simulate_statevector(circ, 5)
    assert _mapped(got) and not _mapped(want)
    assert 1 < np.count_nonzero(got) <= 1 << 7
    _check_result(got, want)


def test_project_success_matches_per_condition_projection(monkeypatch):
    rng = np.random.default_rng(31)
    # none, two, a repeated qubit, and a qubit asked for both values
    conflict = [(0, 0), (9, 1), (0, 1)]
    # 8 more qubits make 2^18 amplitudes, numpy's 4 MiB huge-page threshold
    for pad in (0, 8):
        circ = _register_circuit()
        if pad:
            circ.add_register("pad", pad)
        n = circ.n_qubits
        idx = np.arange(1 << n)
        for conds in ([], [(1, 1), (6, 0)], [(1, 1), (6, 0), (1, 1)],
                      conflict):
            circ.metadata["success"] = conds
            for support in (1 << n, 40):
                state = _random_state(rng, n, support)
                keep = state.copy()
                want = state.copy()
                for q, val in conds:
                    want[((idx >> (n - 1 - q)) & 1) != val] = 0
                got = project_success(state, circ)
                assert np.array_equal(state, keep)
                with monkeypatch.context() as m:
                    m.setattr(backend, "zero_vector", _heap_zeros)
                    heap = project_success(state, circ)
                assert np.array_equal(heap, want), conds
                # a quarter or more of 2^n amplitudes kept stay on the heap
                assert _mapped(got) == bool(pad and (support == 40
                                                     or conds is conflict))
                _check_result(got, heap)
                assert got.any() != (conds is conflict)


def test_project_success_conditions_on_every_qubit():
    # the conditions fix all three qubits, so one amplitude can be kept
    circ = _blank_circuit(3)
    rng = np.random.default_rng(5)
    state = _random_state(rng, 3, 8)
    for conds, kept in (([(0, 1), (1, 0), (2, 1)], 0b101),
                        ([(2, 0), (0, 0), (1, 0)], 0b000)):
        circ.metadata["success"] = conds
        want = np.zeros(8, dtype=complex)
        want[kept] = state[kept]
        assert np.array_equal(project_success(state, circ), want)


@pytest.mark.skipif(sys.platform != "linux",
                    reason="ru_maxrss is in KiB on Linux only")
def test_sparse_builder_state_grows_peak_memory_by_its_support():
    # p_s3(12) ends with 11 of 2^20 amplitudes nonzero.  Where numpy gets
    # 2 MiB pages, its vector from np.zeros faults in 16 MB of them and the
    # projection's 8 MB more
    script = """if True:
        import resource
        from schwinger_be.simulate import (project_success, register_weights,
                                           simulate_statevector)
        from schwinger_be.subroutines import p_s3
        circ, _ = p_s3(12, 1e-8, short_circuit=False)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        psi = project_success(simulate_statevector(circ), circ)
        register_weights(psi, circ, circ.metadata["output"])
        grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
        print(circ.n_qubits, grown)
    """
    src = str(Path(simulate.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    n_qubits, grown_kib = map(int, out)
    assert n_qubits == 20
    assert grown_kib <= 4 * 1024


def test_permutation_check_covers_registers_the_reference_leaves_out():
    # a stray X on the comparator's input register leaves "out" right
    for bits in (3, 9):
        circ, _ = arithmetic("ineq", bits)
        ref = lambda v: {"out": v["out"] ^ (v["a"] <= v["b"])}  # noqa: E731
        assert check_basis_permutation(circ, ref).ok
        top = circ.registers["a"].qubits[0]
        circ.add("X", (top,))
        verdict = check_basis_permutation(circ, ref)
        assert not verdict.ok
        assert len(verdict.failures) == simulate.MAX_FAILURES
        for vin, name, want, got in verdict.failures:
            assert name == "a" and want == vin["a"]
            assert got == vin["a"] ^ (1 << (bits - 1))


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


def test_permutation_failures_hold_python_ints():
    # the reference sees, and the failures record, plain ints per register
    circ, _ = arithmetic("sub", 3)
    seen = []

    def ref(v):
        seen.append(v)
        return {"b": v["b"] + 1}
    verdict = check_basis_permutation(circ, ref)
    assert not verdict.ok and len(verdict.failures) == simulate.MAX_FAILURES
    vin, name, want, got = verdict.failures[0]
    assert name == "b" and vin is seen[0]
    assert set(vin) == set(circ.registers)
    assert all(type(x) is int for x in (*vin.values(), want, got))
    assert got == (vin["a"] - vin["b"]) % 8


# -- the chunked permutation check against one pass over all indices -----------


def _unchunked_check(circuit, reference):
    """The permutation check as one pass: every index mapped, converted to
    Python ints and compared at once.  The reference for the chunked one."""
    n = circuit.n_qubits
    if n <= simulate.EXHAUSTIVE_LIMIT:
        idx = np.arange(1 << n, dtype=np.int64)
    else:
        rng = np.random.default_rng(simulate.PERMUTATION_SEED)
        idx = rng.integers(0, 1 << n, size=simulate.PERMUTATION_SAMPLES,
                           dtype=np.int64)
    out = simulate.circuit_index_map(circuit, idx)
    regs = {name: r.qubits for name, r in circuit.registers.items()}
    ins = [reg_values(idx, n, qs).tolist() for qs in regs.values()]
    outs = {name: reg_values(out, n, qs).tolist() for name, qs in regs.items()}
    cap = simulate.MAX_FAILURES
    failures = []
    for i, row in enumerate(zip(*ins)):
        vin = dict(zip(regs, row))
        result = reference(vin)
        for name, want in result.items():
            got = outs[name][i]
            if got != want:
                failures.append((vin, name, want, got))
                if len(failures) >= cap:
                    return simulate.PermutationVerdict(False, idx.size,
                                                       failures)
    left_out = [name for name in regs if name not in result]
    moved = (out ^ idx) & _mask(n, [q for r in left_out for q in regs[r]])
    for i in np.flatnonzero(moved)[:cap - len(failures)].tolist():
        vin = dict(zip(regs, (vals[i] for vals in ins)))
        failures.extend((vin, name, vin[name], outs[name][i])
                        for name in left_out if outs[name][i] != vin[name])
    del failures[cap:]
    return simulate.PermutationVerdict(not failures, idx.size, failures)


def _arith_refs(s):
    """The four arithmetic blocks' references at ``s`` bits."""
    mod = 1 << s
    return {
        "ineq": lambda v: {"out": v["out"] ^ (v["a"] <= v["b"])},
        "sub": lambda v: {"a": v["a"], "b": (v["a"] - v["b"]) % mod},
        "una": lambda v: {"z": v["z"] ^ ((1 << v["a"].bit_length()) - 1)},
        "cswap": lambda v: ({"a": v["b"], "b": v["a"]} if v["ctrl"] == 1
                            else {"a": v["a"], "b": v["b"]}),
    }


def _wrong_refs(s):
    """References that fail: on a few indices, on many, and by leaving out
    a register the circuit moves (alone, or after a few failures of their
    own that lie past the first left-out ones)."""
    mod = 1 << s
    top = mod - 1
    return {
        "ineq": [lambda v: {"out": v["out"] ^ (v["a"] < v["b"])}],
        "sub": [lambda v: {"b": (v["a"] - v["b"] - (v["a"] == top)) % mod},
                lambda v: {"b": v["b"]}],
        "una": [lambda v: {"a": v["a"]}],
        "cswap": [lambda v: {"a": v["b"] if v["ctrl"] == 1 else v["a"]},
                  lambda v: {"a": (v["b"] if v["ctrl"] == 1 else v["a"])
                             ^ (v["a"] == top and v["b"] == 1)}],
    }


def test_chunked_permutation_check_matches_one_pass(monkeypatch):
    # a chunk of 999 indices puts chunk edges between failures, and between
    # the reference's failures and the left-out registers'
    monkeypatch.setattr(simulate, "PERMUTATION_CHUNK", 999)
    kinds = 0
    for s in range(2, 10):  # 9 bits: the sampled branch
        for kind, ref in _arith_refs(s).items():
            circ, _ = arithmetic(kind, s)
            assert (circ.n_qubits > simulate.EXHAUSTIVE_LIMIT) == (s == 9)
            for r in (ref, *_wrong_refs(s)[kind]):
                got = check_basis_permutation(circ, r)
                assert got == _unchunked_check(circ, r), (kind, s)
                assert got.ok == (r is ref), (kind, s)
            kinds += s < 9
    assert kinds == 28


def test_permutation_check_memory_is_set_by_its_chunk():
    # 2^17 indices: as one pass, the lists of register values peaked at
    # 9 MiB; a chunk of 4096 indices holds a few hundred KiB
    circ, _ = arithmetic("cswap", 8)
    assert circ.n_qubits == simulate.EXHAUSTIVE_LIMIT
    tracemalloc.start()
    try:
        verdict = check_basis_permutation(circ, _arith_refs(8)["cswap"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.ok and verdict.checked == 1 << 17
    assert peak <= 2 << 20


# -- the columns of one sparse run ---------------------------------------------


def test_block_amplitudes_match_a_run_per_column():
    # every gate kind; inputs repeat and rows read anywhere.  A column run
    # alone may turn dense, where no amplitude is dropped, so the two agree
    # to rounding
    rng = np.random.default_rng(11)
    for _ in range(12):
        n = int(rng.integers(9, 12))
        circ = _random_circuit(rng, n, 30)
        inputs = rng.integers(1 << n, size=int(rng.integers(1, 7)))
        rows = rng.integers(1 << n, size=40)
        want = np.stack([simulate_statevector(circ, int(c))[rows]
                         for c in inputs], axis=1)
        got = block_amplitudes(circ, inputs, rows)
        assert got.shape == (40, inputs.size)
        assert np.max(np.abs(got - want)) <= 1e-12


def test_block_amplitudes_refuse_63_index_bits_before_any_work():
    wide = _blank_circuit(60)
    high = [(1 << 60) - 1, 0, 5, 1 << 59]  # 60 qubits and 2 column bits
    assert np.array_equal(block_amplitudes(wide, high, high), np.eye(4))
    # 39 qubits and 24 column bits: the 2^24 inputs would take 128 MiB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="simulation limit"):
            block_amplitudes(_blank_circuit(39), range(1 << 24),
                             range(1 << 24))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 16
