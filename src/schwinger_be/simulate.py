"""Exact evaluators for the circuit IR.

Two paths: a statevector simulator (rotations applied as exact matrices;
synthesis error lives only in the cost model), and a basis-permutation fast
path for arithmetic circuits, which maps integer basis indices directly and
never touches amplitudes.  Two helpers on them hold no intermediate as
large as the whole space:

* ``check_basis_permutation`` walks its indices in chunks of
  ``PERMUTATION_CHUNK``: each chunk is mapped through the circuit, read
  register by register, compared with the reference one index at a time,
  and checked on the registers the reference leaves out.  Its verdict does
  not depend on the chunk size.
* ``block_amplitudes`` extracts a block's columns from one sparse run: the
  inputs are numbered by column bits appended below the circuit's index
  bits, which no gate touches, so each amplitude gets the same
  floating-point operations as in its column's own run.  The state never
  turns dense, and the index may use up to ``INDEX_LIMIT`` bits.

The statevector simulator keeps a state in one of two forms (see
``backend``): sparse, as its support (the sorted indices of its nonzero
amplitudes, and those amplitudes), or dense, as all 2^n amplitudes.  A
basis-index input starts sparse and turns dense for the rest of the
circuit once the support holds more than ``2^n >> DENSE_SHIFT``
amplitudes; a vector input is simulated dense throughout, read-only to the
kernels, so its first gate writes a fresh vector.  Either way
it returns the dense vector.  A result whose support is at most one
amplitude per 4 KiB page comes from ``backend.zero_vector``, so past 4 MiB
it holds in memory only the pages its support touches; so does
``project_success``'s.

The switch point comes from the cost of the general one-qubit gate, the
dearest kernel in sparse form: it sorts and merges the pairs at about 50
to 170 ns per support entry (2^12 to 2^17 entries of a 20-qubit
state), where the cache-blocked dense kernel takes about 3 ns per amplitude
on average over the target qubit: 2 ns for index bits 2^12 and up, 3 to
5.5 ns for the bits below (one core of an Intel Xeon with AVX-512, numpy
2.4, 2^20 amplitudes; 4.8 ns before the short rows of the low bits moved
whole, 15 ns before the blocking).  Sparse is cheaper below about 2^n / 17
to 2^n / 57 entries.  ``DENSE_SHIFT = 3`` was set from the unblocked
kernel's 2^n / 6 and stays: moving it moves where ``DROP`` pruning applies,
which can change states in their last bits.  At 2^n / 8 the sparse form
(24 bytes an entry) uses 3 bytes per amplitude against 16.  Permutations
and phases never widen the support, so they do not move the switch.

Gates are simulated by family: a controlled kind is its base gate on the
last qubit (or the last two registers, of width ``g.width or 1``) where all
the leading qubits are 1.  So X/CNOT/TOFFOLI/MCX share one index map, the
swaps another, and H..RZ/CH/CRY/CRZ one call of the one-qubit kernel.

Qubit 0 is the most significant bit of the basis index, so a register's
value reads its qubits left to right.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import backend
from .circuit import Circuit, Gate, PERMUTATION_KINDS, SELECTS, UNCONTROLLED

SIMULATION_LIMIT = 24
#: dense from a support of more than 2^n >> DENSE_SHIFT (module docstring)
DENSE_SHIFT = 3

_SQ2 = 1 / math.sqrt(2)
_MAT_1Q = {
    "H": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "T": np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex),
}


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz(theta: float) -> np.ndarray:
    return np.array([[np.exp(-1j * theta / 2), 0],
                     [0, np.exp(1j * theta / 2)]], dtype=complex)


_ROTATION = {"RY": _ry, "RZ": _rz}


def _bit(n: int, q: int) -> int:
    return 1 << (n - 1 - q)


def _mask(n: int, qubits) -> int:
    m = 0
    for q in qubits:
        m |= _bit(n, q)
    return m


def _place(n: int, qubits, value: int) -> int:
    """Spread ``value`` (MSB-first over ``qubits``) into index-bit positions."""
    return _set_values(0, n, qubits, value)


def reg_values(idx: np.ndarray, n: int, qubits) -> np.ndarray:
    """Extract the register value from basis indices (vectorized)."""
    w = len(qubits)
    out = np.zeros_like(idx)
    for k, q in enumerate(qubits):
        out |= ((idx >> (n - 1 - q)) & 1) << (w - 1 - k)
    return out


def _set_values(idx: np.ndarray, n: int, qubits, values: np.ndarray) -> np.ndarray:
    w = len(qubits)
    out = idx & ~_mask(n, qubits)
    for k, q in enumerate(qubits):
        out |= ((values >> (w - 1 - k)) & 1) << (n - 1 - q)
    return out


def _una(a: np.ndarray) -> np.ndarray:
    """Ones from the most significant set bit of ``a`` downward."""
    bl = np.where(a > 0,
                  np.floor(np.log2(np.maximum(a, 1))).astype(np.int64) + 1, 0)
    return (1 << bl) - 1


def _all_set(idx, n: int, qubits):
    """1 where all of ``qubits`` are set in ``idx``, else 0."""
    fire = 1
    for q in qubits:
        fire = (idx >> (n - 1 - q)) & fire  # fire is 0 or 1 throughout
    return fire


def gate_index_map(g: Gate, n: int, idx: np.ndarray) -> np.ndarray | None:
    """Image of basis indices under a permutation gate; None if not one."""
    k = g.kind
    if k in ("X", "CNOT", "TOFFOLI", "MCX"):
        fire = _all_set(idx, n, g.qubits[:-1])
        return idx ^ (fire << (n - 1 - g.qubits[-1]))
    if k in ("SWAP", "CSWAP", "CCSWAP"):
        s = g.width or 1
        nc = len(g.qubits) - 2 * s
        fire = _all_set(idx, n, g.qubits[:nc])
        out = idx
        for a, b in zip(g.qubits[nc:nc + s], g.qubits[nc + s:]):
            diff = fire & ((idx >> (n - 1 - a)) ^ (idx >> (n - 1 - b)))
            out = out ^ (diff << (n - 1 - a)) ^ (diff << (n - 1 - b))
        return out
    if k == "INEQ":
        sa, sb = g.splits
        a = g.qubits[:sa]
        b = g.qubits[sa:sa + sb]
        out = g.qubits[sa + sb]
        va, vb = reg_values(idx, n, a), reg_values(idx, n, b)
        cond = (va <= vb).astype(idx.dtype)
        return idx ^ (cond << (n - 1 - out))
    if k == "SUB":
        s = g.width
        a, b = g.qubits[:s], g.qubits[s:2 * s]
        va, vb = reg_values(idx, n, a), reg_values(idx, n, b)
        return _set_values(idx, n, b, (va - vb) % (1 << s))
    if k == "ADDC":
        s = g.width
        v = reg_values(idx, n, g.qubits)
        return _set_values(idx, n, g.qubits, (v + g.const) % (1 << s))
    if k == "UNA":
        s = g.width
        a, z = g.qubits[:s], g.qubits[s:2 * s]
        va = reg_values(idx, n, a)
        vz = reg_values(idx, n, z)
        return _set_values(idx, n, z, vz ^ _una(va))
    return None


def _apply_select(state, g: Gate, n: int):
    """Each term ``a`` is a Pauli string controlled on the control pattern
    and on address ``a``: X X or Y Y on ``sys[a], sys[a+1]``, Z on ``sys[a]``
    (times (-1)^a for SEL_Z).  X X relabels |i> as |i ^ flip>, flip the two
    bits; Y Y is the same relabelling times -1 where the two bits agree."""
    nc, ba = g.splits
    ctrls = g.qubits[:nc]
    addr = g.qubits[nc:nc + ba]
    sys = g.qubits[nc + ba:]
    cmask = _mask(n, ctrls) | _mask(n, addr)
    cval = _place(n, ctrls, g.pattern if g.pattern >= 0 else (1 << nc) - 1)
    for a in range(g.n_terms):
        val = cval | _place(n, addr, a)
        if g.kind in ("SEL_XX", "SEL_YY"):
            flip = _bit(n, sys[a]) | _bit(n, sys[a + 1])
            state = backend.apply_permutation(
                state, lambda idx, val=val, flip=flip: idx ^ np.where(
                    (idx & cmask) == val, flip, 0), cmask | flip)
            if g.kind == "SEL_YY":
                for bits in (0, flip):
                    state = backend.apply_phase_pattern(
                        state, cmask | flip, val | bits, -1.0)
        elif g.kind in ("SEL_Z", "SEL_Z2"):
            b0 = _bit(n, sys[a])
            # an odd SEL_Z term flips the sign where its Z does not
            flip = g.kind == "SEL_Z" and a % 2
            state = backend.apply_phase_pattern(
                state, cmask | b0, val | (0 if flip else b0), -1.0)
        else:  # pragma: no cover
            raise ValueError(g.kind)
    return state


def _apply(state, g: Gate, n: int):
    """``g`` applied to ``state``; see ``backend._dst`` for a dense one."""
    k = g.kind
    if k in SELECTS:
        return _apply_select(state, g, n)
    if k in PERMUTATION_KINDS:
        return backend.apply_permutation(
            state, functools.partial(gate_index_map, g, n),
            _mask(n, g.qubits))
    if k in ("REFLECT", "PHASE0"):
        mask = _mask(n, g.qubits)
        val = _place(n, g.qubits, g.pattern if g.pattern >= 0 else 0)
        if k == "REFLECT":
            state = backend.apply_phase_pattern(state, 0, 0, -1.0)
            return backend.apply_phase_pattern(state, mask, val, -1.0)
        return backend.apply_phase_pattern(state, mask, val,
                                           np.exp(1j * g.angle))
    if k == "CZ":
        mask = _mask(n, g.qubits)
        return backend.apply_phase_pattern(state, mask, mask, -1.0)
    # a one-qubit kind: its base matrix on the last qubit, where all the
    # leading qubits (none for H .. RZ, one for CH, CRY, CRZ) are 1
    base = UNCONTROLLED.get(k, k)
    mat = _ROTATION[base](g.angle) if base in _ROTATION else _MAT_1Q[base]
    cmask = _mask(n, g.qubits[:-1])
    return backend.apply_1q_ctrl(state, mat, _bit(n, g.qubits[-1]), cmask)


def simulate_statevector(circuit: Circuit, input_state=None,
                         limit: int = SIMULATION_LIMIT) -> np.ndarray:
    """Exact amplitudes of ``circuit`` applied to a basis state or vector.

    A basis index (the default is 0) is simulated sparse while its support
    holds at most ``2^n >> DENSE_SHIFT`` amplitudes and dense from then on.
    A vector is simulated dense and left as it was: the first gate gets it
    read-only and writes a fresh vector, which the later gates update in
    place.  The result is a writeable dense vector either way.
    """
    n = circuit.n_qubits
    if n > limit:
        raise ValueError(f"{n} qubits exceeds the simulation limit {limit}")
    dim = 1 << n
    max_support = dim >> DENSE_SHIFT
    if input_state is None or np.isscalar(input_state):
        start = range(dim)[int(input_state or 0)]
        state = backend.Sparse(np.array([start], dtype=np.int64),
                               np.ones(1, dtype=complex))
    else:
        state = np.ascontiguousarray(input_state, dtype=complex).view()
        if state.shape != (dim,):
            raise ValueError("input state has wrong dimension")
        state.flags.writeable = False
    for g in circuit.gates:
        state = _apply(state, g, n)
        if isinstance(state, backend.Sparse) and state.idx.size > max_support:
            state = backend.to_vector(state, dim)
    state = backend.to_vector(state, dim)
    return state if state.flags.writeable else state.copy()  # no gate wrote


#: index bits a sparse run may use: an int64 index less its sign bit, and one
#: bit to spare so that no shift of a valid index overflows
INDEX_LIMIT = 62


def block_amplitudes(circuit: Circuit, inputs, rows) -> np.ndarray:
    """``<rows[r]| U |inputs[c]>`` for every output row r and basis input c,
    from one sparse run of the circuit U.

    Input c starts as the basis state ``inputs[c] << k | c``: k column bits,
    enough to number the inputs, sit below the circuit's index bits.  No gate
    touches them, so each gate acts on a column's entries exactly as in a
    run of that column alone, and every amplitude gets the same
    floating-point operations.  The state stays sparse throughout.  More
    than ``INDEX_LIMIT`` index bits are refused before any work.
    """
    n = circuit.n_qubits
    k = max(len(inputs) - 1, 0).bit_length()
    if n + k > INDEX_LIMIT:
        raise ValueError(f"{n} qubits and {k} column bits exceed the "
                         f"simulation limit of {INDEX_LIMIT} index bits")
    cols = np.arange(len(inputs), dtype=np.int64)
    state = backend._sorted(np.asarray(inputs, dtype=np.int64) << k | cols,
                            np.ones(cols.size, dtype=complex))
    for g in circuit.gates:
        state = _apply(state, g, n + k)
    keys = (np.asarray(rows, dtype=np.int64)[:, None] << k | cols).ravel()
    at = np.minimum(np.searchsorted(state.idx, keys), state.idx.size - 1)
    found = state.idx[at] == keys
    return np.where(found, state.amp[at], 0).reshape(len(rows), cols.size)


# -- basis-permutation verification ------------------------------------------


@dataclass
class PermutationVerdict:
    ok: bool
    checked: int
    failures: list = field(default_factory=list)


def circuit_index_map(circuit: Circuit, idx: np.ndarray) -> np.ndarray:
    n = circuit.n_qubits
    cur = idx
    for g in circuit.gates:
        if g.kind not in PERMUTATION_KINDS:
            raise ValueError(
                f"{g.kind} creates superpositions; basis-permutation check "
                f"requires X/CNOT/Toffoli/MultiControlledX/arithmetic gates")
        cur = gate_index_map(g, n, cur)
    return cur


#: qubit counts up to which every basis state is checked; above it, a fixed
#: seeded sample of PERMUTATION_SAMPLES states
EXHAUSTIVE_LIMIT = 17
PERMUTATION_SAMPLES = 4096
PERMUTATION_SEED = 7
MAX_FAILURES = 10  # failures after which a check stops
#: basis indices mapped and compared at a time, so a check holds no list or
#: array over the whole space (at 2^17 indices those took 9 MiB at once)
PERMUTATION_CHUNK = 1 << 12


def check_basis_permutation(circuit: Circuit,
                            reference) -> PermutationVerdict:
    """Confirm the circuit equals ``reference`` on computational basis states.

    ``reference`` maps a dict of register values to a dict of expected
    register values; the registers left out of its results (a reference
    returns the same registers at every input) must keep their values.  A
    failure is ``(inputs, register, expected, got)``: the reference's
    failures in index order, then the left-out registers' failures in index
    order, at most ``MAX_FAILURES`` in all.  Exhaustive up to
    ``EXHAUSTIVE_LIMIT`` qubits, sampled above; the indices are walked in
    chunks of ``PERMUTATION_CHUNK``.
    """
    n = circuit.n_qubits
    if n <= EXHAUSTIVE_LIMIT:
        total, sample = 1 << n, None
    else:
        rng = np.random.default_rng(PERMUTATION_SEED)
        sample = rng.integers(0, 1 << n, size=PERMUTATION_SAMPLES,
                              dtype=np.int64)
        total = sample.size
    regs = {name: r.qubits for name, r in circuit.registers.items()}
    failures, left = [], []  # the reference's; the left-out registers'
    for lo in range(0, total, PERMUTATION_CHUNK):
        hi = min(lo + PERMUTATION_CHUNK, total)
        idx = (np.arange(lo, hi, dtype=np.int64) if sample is None
               else sample[lo:hi])
        out = circuit_index_map(circuit, idx)
        # register values as Python ints, converted once per chunk
        ins = [reg_values(idx, n, qs).tolist() for qs in regs.values()]
        outs = {name: reg_values(out, n, qs).tolist()
                for name, qs in regs.items()}
        for i, row in enumerate(zip(*ins)):
            vin = dict(zip(regs, row))
            result = reference(vin)
            for name, want in result.items():
                got = outs[name][i]
                if got != want:
                    failures.append((vin, name, want, got))
                    if len(failures) >= MAX_FAILURES:
                        return PermutationVerdict(False, total, failures)
        # the registers left out, in one pass over the bits the circuit
        # moved; they come after every failure of the reference
        left_out = [name for name in regs if name not in result]
        moved = (out ^ idx) & _mask(n, [q for r in left_out for q in regs[r]])
        room = max(MAX_FAILURES - len(left), 0)
        for i in np.flatnonzero(moved)[:room].tolist():
            vin = dict(zip(regs, (vals[i] for vals in ins)))
            left.extend((vin, name, vin[name], outs[name][i])
                        for name in left_out if outs[name][i] != vin[name])
    failures += left[:MAX_FAILURES - len(failures)]
    return PermutationVerdict(not failures, total, failures)


# -- success projection helpers ----------------------------------------------


def project_success(state: np.ndarray, circuit: Circuit) -> np.ndarray:
    """Apply the circuit's success projection; returns an unnormalized state.

    The circuit's ``metadata["success"]`` lists ``(qubit, value)`` pairs:
    the state keeps only the basis states whose ``qubit`` reads ``value``
    for every pair, so a qubit asked to read both 0 and 1 leaves the zero
    vector.  The kept nonzero amplitudes are counted first and written into
    ``backend.zero_vector``, so a sparse result costs memory by its support.
    """
    n = circuit.n_qubits
    conds = circuit.metadata.get("success", [])
    ones = _mask(n, [q for q, val in conds if val])
    zeros = _mask(n, [q for q, val in conds if not val])
    vec = np.asarray(state, dtype=complex)
    if ones & zeros:
        return backend.zero_vector(vec.size, 0)
    src, at = backend._split(vec, ones | zeros)
    # a 0-d view where the conditions fix every qubit
    kept = np.atleast_1d(src[at(ones)])
    nz = np.nonzero(kept)
    out = backend.zero_vector(vec.size, nz[0].size)
    np.atleast_1d(backend._split(out, ones | zeros)[0][at(ones)])[nz] = \
        kept[nz]
    return out


def register_weights(state: np.ndarray, circuit: Circuit, reg: str) -> np.ndarray:
    """Squared norm of the state grouped by a register's value."""
    n = circuit.n_qubits
    qs = circuit.registers[reg].qubits
    idx = np.flatnonzero(state)
    return np.bincount(reg_values(idx, n, qs),
                       weights=np.abs(state[idx]) ** 2, minlength=1 << len(qs))

