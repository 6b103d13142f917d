"""Statevector kernels for two state representations.

A state is either *sparse* or *dense*:

* ``Sparse(idx, amp)`` holds the support only: a sorted ``int64`` array of
  the basis indices with a nonzero amplitude, and those amplitudes.
* A dense state is a plain complex vector of all 2^n amplitudes.

Every kernel takes either form and returns the updated state in the same
form; it may update its argument in place.  Qubit ``q`` of an n-qubit state
is index bit ``1 << (n - 1 - q)``, and the kernels take such bit masks.

Sparse kernels never look at amplitudes outside the support. Permutations
map the index array and re-sort it. A single-qubit gate adds the missing
partners ``i ^ bit`` of the entries it acts on, with amplitude zero, and
updates both members of each pair. Phases act through masks on the index
array.  A kernel that can shrink an amplitude drops the amplitudes of
magnitude ``DROP`` or less afterwards, so cancellations shrink the support.

Dense kernels reshape the vector so that each run of adjacent touched
qubits has its own axis, and each run of untouched qubits between them
another.  A gate then acts on strided views of that array, and no kernel
builds an index array over all 2^n amplitudes.  The general one-qubit and
the permutation kernels walk those views in blocks of about ``BLOCK``
amplitudes, cut from the untouched axes in memory order, so that a block
stays in cache while the kernel makes its several passes over it.  So no
temporary of a dense kernel holds more than about ``BLOCK`` amplitudes,
except where a permutation moves more than ``BLOCK / 2`` amplitudes at each
setting of the untouched qubits: it then gathers two settings at a time.
Each amplitude gets the same floating-point operations whatever the block
size, so the states do not depend on it.
"""
from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

USE_NUMBA = False  # the kernels are plain numpy; the benchmark reports this

#: amplitudes of this magnitude or less leave the support
DROP = 1e-15
#: amplitudes per block of a dense kernel: 256 KiB of complex128, so a
#: block's two halves and temporaries stay in one core's 2 MiB L2 cache.
#: 2^14 beat 2^12 and 2^16 on the dense-sim benchmark (see CHANGES.md).
BLOCK = 1 << 14


class Sparse(NamedTuple):
    """The support of a state: sorted basis indices and their amplitudes."""
    idx: np.ndarray
    amp: np.ndarray


def from_vector(vec: np.ndarray, max_support: int):
    """``vec`` as a sparse state if at most ``max_support`` of its amplitudes
    are nonzero, else as a dense copy.  The count stops at the first block
    that takes it past ``max_support``."""
    count = 0
    for key in _blocks(vec.shape, BLOCK):
        count += np.count_nonzero(vec[key])
        if count > max_support:
            return np.array(vec, dtype=complex)
    idx = np.flatnonzero(vec)
    return Sparse(idx, vec[idx].astype(complex, copy=False))


def to_vector(state, dim: int) -> np.ndarray:
    """The dense vector of a state of dimension ``dim``."""
    if not isinstance(state, Sparse):
        return state
    out = np.zeros(dim, dtype=complex)
    out[state.idx] = state.amp
    return out


def _sorted(idx: np.ndarray, amp: np.ndarray) -> Sparse:
    order = np.argsort(idx, kind="stable")
    return Sparse(idx[order], amp[order])


def _pruned(s: Sparse) -> Sparse:
    keep = np.abs(s.amp) > DROP
    return s if keep.all() else Sparse(s.idx[keep], s.amp[keep])


def _blocks(shape, size: int):
    """Keys that cut an array of ``shape`` into blocks of about ``size``
    elements in memory order, or one key, ``(...,)``, for the whole array if
    it holds no more.  A key indexes the leading axes only and always gives
    a view: ``(...,)`` keeps a 0-d array a 0-d view, where ``()`` would
    give a scalar.

    A block keeps at least two elements of the last axis, as the whole
    array does: numpy's complex multiply can round a loop of one element
    differently from a longer loop (seen with numpy 2.4 on AVX-512).
    """
    size = max(size, 2)
    inner = 1
    for k in range(len(shape) - 1, -1, -1):
        if inner * shape[k] > size:
            break
        inner *= shape[k]
    else:
        yield (...,)
        return
    step = size // inner
    for *lead, j in np.ndindex(*shape[:k], -(-shape[k] // step)):
        yield (*lead, slice(j * step, (j + 1) * step))


def _split(state: np.ndarray, mask: int):
    """``state`` viewed with one *touched* axis per run of adjacent set bits
    of ``mask``, most significant first, then one *run* axis per run of the
    other bits; and a function ``at(index, block)`` from basis indices (ints
    or int arrays) to the key that fixes each touched axis to the indices'
    bits there and indexes the run axes by ``block``, a key of ``_blocks``.
    """
    shape, touched, runs, fields = [], [], [], []
    p = state.size.bit_length() - 1
    for bit, group in itertools.groupby(mask >> q & 1
                                        for q in range(p - 1, -1, -1)):
        width = len(list(group))
        p -= width
        if bit:
            touched.append(len(shape))
            fields.append((p, (1 << width) - 1))
        else:
            runs.append(len(shape))
        shape.append(1 << width)

    def at(index, block=(...,)):
        return (*((index >> p) & m for p, m in fields), *block)

    return state.reshape(shape).transpose(touched + runs), at


def apply_1q_ctrl(state, mat, tbit, cmask=0, cval=0):
    """Apply the 2x2 ``mat`` to bit ``tbit`` of the basis states whose
    ``cmask`` bits equal ``cval``."""
    a, b, c, d = mat.ravel()
    if isinstance(state, Sparse):
        idx, amp = state
        act = (idx & cmask) == cval
        hi = (idx & tbit) != 0
        if b == 0 and c == 0:
            return _pruned(Sparse(idx, amp * np.where(act, np.where(hi, d, a),
                                                      1)))
        if a == 0 and d == 0:
            return _pruned(_sorted(idx ^ np.where(act, tbit, 0),
                                   amp * np.where(act, np.where(hi, b, c), 1)))
        rest = Sparse(idx[~act], amp[~act])
        idx, amp, hi = idx[act], amp[act], hi[act]
        # the acted-on entries ordered by their pair's lower index (two
        # sorted runs, so a stable sort merges them), then one slot per pair
        base = idx & ~tbit
        order = np.argsort(base, kind="stable")
        base = base[order]
        new = np.empty(base.size, dtype=bool)
        new[:1] = True
        np.not_equal(base[1:], base[:-1], out=new[1:])
        pairs = base[new]
        x = np.zeros((2, pairs.size), dtype=complex)
        x[hi[order].view(np.int8), np.cumsum(new) - 1] = amp[order]
        return _pruned(_sorted(
            np.concatenate((rest.idx, pairs, pairs | tbit)),
            np.concatenate((rest.amp, a * x[0] + b * x[1],
                            c * x[0] + d * x[1]))))
    v, at = _split(state, tbit | cmask)
    v0, v1 = v[at(cval)], v[at(cval | tbit)]
    if b == 0 and c == 0:
        # one pass over each half and no temporary: nothing to block
        if a != 1:
            np.multiply(a, v0, out=v0)
        if d != 1:
            np.multiply(d, v1, out=v1)
        return state
    for key in _blocks(v0.shape, BLOCK):
        x0, x1 = v0[key], v1[key]
        # x0, x1 <- a x0 + b x1, c x0 + d x1, in place
        t = c * x0
        np.multiply(a, x0, out=x0)
        x0 += b * x1
        np.multiply(d, x1, out=x1)
        x1 += t
    return state


def apply_phase_pattern(state, mask, val, phase):
    """Multiply the amplitudes of the basis states whose ``mask`` bits equal
    ``val`` by ``phase``."""
    if isinstance(state, Sparse):
        state.amp[(state.idx & mask) == val] *= phase
        return state if abs(phase) == 1 else _pruned(state)
    v, at = _split(state, mask)
    v[at(val)] *= phase
    return state


def apply_permutation(state, index_map, mask):
    """Relabel each basis state |i> as |index_map(i)>.

    ``index_map`` maps int64 index arrays; it must be a bijection that
    changes only the bits in ``mask`` and depends only on them.
    """
    if isinstance(state, Sparse):
        return _sorted(index_map(state.idx), state.amp)
    local = np.zeros(1, dtype=np.int64)
    for p in range(state.size.bit_length() - 1):
        if mask >> p & 1:
            local = np.concatenate((local, local | (1 << p)))
    image = index_map(local)
    moved = image != local
    if moved.any():
        v, at = _split(state, mask)
        src, dst = local[moved], image[moved]
        # each block gathers about BLOCK amplitudes: all moved settings of
        # the touched axes, times BLOCK // moved entries of the run axes
        for key in _blocks(v[at(0)].shape, BLOCK // src.size):
            v[at(dst, key)] = v[at(src, key)]
    return state
