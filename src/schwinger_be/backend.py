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

Dense kernels reshape the vector so that each touched qubit has its own
axis of length two, and each run of untouched qubits between them is merged
into one axis.  A gate then acts on strided views of that array, and no
kernel builds an index array over all 2^n amplitudes.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

USE_NUMBA = False  # the kernels are plain numpy; the benchmark reports this

#: amplitudes of this magnitude or less leave the support
DROP = 1e-15


class Sparse(NamedTuple):
    """The support of a state: sorted basis indices and their amplitudes."""
    idx: np.ndarray
    amp: np.ndarray


def from_vector(vec: np.ndarray, max_support: int):
    """``vec`` as a sparse state if at most ``max_support`` of its amplitudes
    are nonzero, else as a dense copy."""
    if np.count_nonzero(vec) > max_support:
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


def _split(state: np.ndarray, mask: int):
    """``state`` viewed with one length-2 axis per set bit of ``mask``, and
    a function from basis indices (ints or int arrays) to the key that fixes
    each of those axes to the indices' bit there."""
    shape, axes, run = [], [], 0
    for p in range(state.size.bit_length() - 2, -1, -1):
        if mask >> p & 1:
            if run:
                shape.append(1 << run)
                run = 0
            axes.append((len(shape), p))
            shape.append(2)
        else:
            run += 1
    if run:
        shape.append(1 << run)

    def at(index):
        key = [slice(None)] * len(shape)
        for ax, p in axes:
            key[ax] = (index >> p) & 1
        return (*key, Ellipsis)

    return state.reshape(shape), at


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
    x0, x1 = v[at(cval)], v[at(cval | tbit)]
    # x0, x1 <- a x0 + b x1, c x0 + d x1, in place
    if b == 0 and c == 0:
        if a != 1:
            np.multiply(a, x0, out=x0)
        if d != 1:
            np.multiply(d, x1, out=x1)
    else:
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
        v[at(image[moved])] = v[at(local[moved])]
    return state
