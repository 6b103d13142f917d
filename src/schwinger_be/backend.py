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
updates both members of each pair by the dense kernel's arithmetic, for
every matrix, so both forms agree. Phases act through masks on the index
array, and a complex phase multiplies real and imaginary parts in both
forms alike.  A kernel that can shrink an amplitude drops the amplitudes of
magnitude ``DROP`` or less afterwards, so cancellations shrink the support.

Dense kernels reshape the vector so that each run of adjacent touched
qubits has its own axis, and each run of untouched qubits between them
another.  A gate then acts on strided views of that array, and no kernel
builds an index array over all 2^n amplitudes.  The general one-qubit and
the permutation kernels walk those views in blocks of about ``BLOCK``
amplitudes, cut from the untouched axes in memory order, so that a block
stays in cache while the kernel makes its several passes over it.

Where index bit 2^0 is untouched, the untouched bits below the lowest
touched one make every view a stack of short contiguous rows, and numpy
would run one short inner loop per row.  So those rows move whole, each
viewed as one ``np.void`` element: the general one-qubit kernel copies a
block's rows, when shorter than ``BLOCK // 4`` amplitudes, into two
contiguous buffers, runs its arithmetic there and copies the rows back; a
permutation moves rows whole while one gathered block stays within
``BLOCK`` amplitudes.  So no temporary of a dense kernel holds more than
about ``BLOCK`` amplitudes, except where a permutation moves more than
``BLOCK / 2`` amplitudes at each setting of the untouched qubits: it then
gathers two settings at a time.  Each amplitude gets the same
floating-point operations whatever the block size and whether its row
moved whole, so the states depend on neither.

A dense kernel updates a writeable state in place; it leaves a read-only
one as it is and writes a fresh vector: straight from the input where the
kernel writes every amplitude, else after copying the input there first.

A sparse state written out as a dense vector costs memory by its support.
numpy backs an array of ``HUGE_PAGE_BYTES`` or more with 2 MiB transparent
huge pages where the kernel allows it, so each scattered write into
``np.zeros`` would fault in and zero a whole 2 MiB page.  ``zero_vector``
maps such a vector with 4 KiB pages instead when it is to hold at most one
nonzero per page on average (a support of at most ``dim >> PAGE_SHIFT``):
only the pages the writes touch become resident, and reading the others
maps the kernel's shared zero page.  Any other vector, such as the dense
form that a support past ``2^n >> 3`` switches to, comes from ``np.zeros``,
whose recycled heap pages cost less there than fresh mapped ones.
"""
from __future__ import annotations

import itertools
import mmap
from typing import NamedTuple

import numpy as np

USE_NUMBA = False  # the kernels are plain numpy; the benchmark reports this

#: amplitudes of this magnitude or less leave the support
DROP = 1e-15
#: amplitudes per block of a dense kernel: 256 KiB of complex128, so a
#: block's two halves and temporaries stay in one core's 2 MiB L2 cache.
#: 2^14 beat 2^12 and 2^16 on the dense-sim benchmark (see CHANGES.md).
BLOCK = 1 << 14
#: numpy asks for transparent huge pages for arrays of this many bytes or more
HUGE_PAGE_BYTES = 4 << 20
#: 4 KiB pages hold 2^PAGE_SHIFT complex128 amplitudes
PAGE_SHIFT = 8


class Sparse(NamedTuple):
    """The support of a state: sorted basis indices and their amplitudes."""
    idx: np.ndarray
    amp: np.ndarray


def zero_vector(dim: int, support: int) -> np.ndarray:
    """A writable zero complex vector of ``dim`` amplitudes, into which at
    most ``support`` nonzeros will be written.  A vector of
    ``HUGE_PAGE_BYTES`` or more with a support of at most
    ``dim >> PAGE_SHIFT`` is a private anonymous mapping with 4 KiB pages
    (see the module docstring); any other is ``np.zeros``."""
    nbytes = dim * np.dtype(complex).itemsize
    if nbytes < HUGE_PAGE_BYTES or support > dim >> PAGE_SHIFT:
        return np.zeros(dim, dtype=complex)
    buf = mmap.mmap(-1, nbytes, access=mmap.ACCESS_COPY)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):  # for hosts whose THP is "always"
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buf, dtype=complex)


def to_vector(state, dim: int) -> np.ndarray:
    """The dense vector of a state of dimension ``dim``."""
    if not isinstance(state, Sparse):
        return state
    out = zero_vector(dim, state.idx.size)
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


def _rows(x: np.ndarray) -> np.ndarray:
    """``x`` with each row of its contiguous last axis as one void element,
    so that numpy copies a row in one step, not one amplitude at a time."""
    return x.view(np.dtype((np.void, x.itemsize * x.shape[-1])))[..., 0]


def _mix(a, b, c, d, x0, x1, y0, y1) -> None:
    """``y0, y1 = a x0 + b x1, c x0 + d x1``; ``y`` may be ``x``."""
    t = c * x0
    np.multiply(a, x0, out=y0)
    y0 += b * x1
    np.multiply(d, x1, out=y1)
    y1 += t


def _dst(state: np.ndarray, whole: bool) -> np.ndarray:
    """The array a dense kernel writes: ``state`` if writeable, else a fresh
    vector, a copy of ``state`` unless the kernel writes ``whole`` of it."""
    if state.flags.writeable:
        return state
    return np.empty_like(state) if whole else state.copy()


def apply_1q_ctrl(state, mat, tbit, cmask=0):
    """Apply the 2x2 ``mat`` to bit ``tbit`` of the basis states whose
    ``cmask`` bits are all 1.  A writeable dense ``state`` is updated in
    place; a read-only one is left as it is (see ``_dst``)."""
    a, b, c, d = mat.ravel()
    if isinstance(state, Sparse):
        idx, amp = state
        rest = Sparse(idx[:0], amp[:0])
        if cmask:  # else every entry is acted on
            act = (idx & cmask) == cmask
            rest = Sparse(idx[~act], amp[~act])
            idx, amp = idx[act], amp[act]
        hi = (idx & tbit) != 0
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
    mask = tbit | cmask
    # a diagonal gate's own path: without it dense-sim ran about 10% slower.
    # It leaves a half whose factor is 1 alone.
    diagonal = b == 0 and c == 0
    acted = [(i, s) for i, s in ((cmask, a), (cmask | tbit, d))
             if not diagonal or s != 1]
    dst = _dst(state, not cmask and len(acted) == 2)
    v, at = _split(state, mask)
    w, _ = _split(dst, mask)
    if diagonal:
        # one pass over each half and no temporary: nothing to block, and
        # moving short rows whole paid only for bit 2^1
        for i, s in acted:
            np.multiply(s, v[at(i)], out=w[at(i)])
        return dst
    x0, x1 = v[at(cmask)], v[at(cmask | tbit)]
    y0, y1 = w[at(cmask)], w[at(cmask | tbit)]
    row = mask & -mask
    if 1 < row < BLOCK // 4 and x0.ndim > 1:
        # short rows, more than one per half: each block's rows move whole
        # into contiguous buffers, where the same arithmetic runs in place,
        # and back (rows of BLOCK // 4 or more were faster left as they are)
        x0, x1, y0, y1 = map(_rows, (x0, x1, y0, y1))
        for key in _blocks(x0.shape, BLOCK // row):
            b0, b1 = np.array(x0[key]), np.array(x1[key])
            f0, f1 = b0.view(complex), b1.view(complex)
            _mix(a, b, c, d, f0, f1, f0, f1)
            y0[key], y1[key] = b0, b1
    else:
        for key in _blocks(x0.shape, BLOCK):
            _mix(a, b, c, d, x0[key], x1[key], y0[key], y1[key])
    return dst


def _rotate(x: np.ndarray, phase, out: np.ndarray) -> None:
    """``out = x * phase``, a complex phase by real parts: numpy's complex
    multiply can round an element by the length of its loop; ``out`` may be
    ``x``."""
    c, d = phase.real, phase.imag
    if d == 0:
        np.multiply(x, c, out=out)
    else:
        out.real, out.imag = x.real * c - x.imag * d, x.real * d + x.imag * c


def apply_phase_pattern(state, mask, val, phase):
    """Multiply the amplitudes of the basis states whose ``mask`` bits equal
    ``val`` by ``phase``.  A writeable dense ``state`` is updated in place;
    a read-only one is left as it is (see ``_dst``)."""
    if isinstance(state, Sparse):
        sel = (state.idx & mask) == val
        x = state.amp[sel]
        _rotate(x, phase, x)
        state.amp[sel] = x
        return state if abs(phase) == 1 else _pruned(state)
    dst = _dst(state, not mask)
    v, at = _split(state, mask)
    _rotate(v[at(val)], phase, _split(dst, mask)[0][at(val)])
    return dst


def apply_permutation(state, index_map, mask):
    """Relabel each basis state |i> as |index_map(i)>.

    ``index_map`` maps int64 index arrays; it must be a bijection that
    changes only the bits in ``mask`` and depends only on them.  A writeable
    dense ``state`` is updated in place, a read-only one left as it is.
    """
    if isinstance(state, Sparse):
        return _sorted(index_map(state.idx), state.amp)
    local = np.zeros(1, dtype=np.int64)
    for p in range(state.size.bit_length() - 1):
        if mask >> p & 1:
            local = np.concatenate((local, local | (1 << p)))
    image = index_map(local)
    moved = image != local
    dst = _dst(state, moved.all())
    if moved.any():
        (v, at), (w, _) = _split(state, mask), _split(dst, mask)
        src, to = local[moved], image[moved]
        # each block gathers about BLOCK amplitudes: all moved settings of
        # the touched axes, times BLOCK // moved entries of the run axes.
        # The run below the lowest mask bit moves as whole rows while a
        # block of two rows at every moved setting stays within BLOCK.
        size, low = BLOCK // src.size, mask & -mask
        if low > 1 and 2 * src.size * low <= BLOCK:
            v, w, size = _rows(v), _rows(w), size // low
        for key in _blocks(v[at(0)].shape, size):
            w[at(to, key)] = v[at(src, key)]
    return dst
