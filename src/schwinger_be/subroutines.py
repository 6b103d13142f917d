"""Gate-level builders for every PREPARE/SELECT building block.

Each builder returns ``(Circuit, ResourceReport)``, the report being
``count_resources`` of the circuit; on non-degenerate sizes it equals the
matching closed form in :mod:`schwinger_be.estimator` (both asserted in
tests).
Power-of-two sizes short-circuit the uniform-superposition machinery to bare
Hadamards; pass ``short_circuit=False`` to force the general construction.

Shared conventions:

* Success flags are exported as ``circuit.metadata["success"]``, a list of
  ``(qubit, value)`` conditions; projecting a simulated state on them
  yields the advertised output.
* The flag rotation completing each exact amplification round is folded
  into measurement by the source cost accounting; it is emitted with
  ``charged=False`` so simulated states are exact while tallies match.
* Junk registers are never uncomputed; they are allocated unreusable.
* Arithmetic scratch is carried as per-gate ``anc_reusable`` annotations
  (comparator s-1, subtractor s-1, unary mask 2s, doubly-controlled swap 1).
* A controlled builder emits each gate through ``_control``, which puts the
  control first among the gate's qubits and looks the new kind up in the
  IR's table, ``circuit.CONTROLLED``: X, CNOT, H, RY, RZ and MCX become
  CNOT, TOFFOLI, CH, CRY, CRZ and MCX.  A REFLECT or PHASE0 keeps its
  kind, and its pattern gains the control as its top bit.  A REFLECT's
  cost width grows by one; with the control off it is -1, and the builders
  emit such reflections in pairs, so a controlled builder is the identity
  there.  A PHASE0 keeps its cost width and splits its rotation in two
  (``ctrl_rot``).  ``strip_control`` reads the table backwards
  (``circuit.UNCONTROLLED``), as the simulator does.  The controlled CZ
  (a REFLECT on three qubits) and the doubly-controlled swap with its
  uncompute are written out where they are emitted.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .circuit import (CONTROLLED, UNCONTROLLED, Circuit, Gate,
                      ResourceReport, count_resources)
from .estimator import (amplification_rounds, check_encoding_size,
                        check_select_variant, clog2, factor_two, select_terms)
from .model import ModelParams, normalization, sum_of_squares


def _name(circ: "Circuit", tag: str) -> str:
    """Deterministic fresh register name, unique within the circuit."""
    counter = circ.metadata.setdefault("_names", [0])
    counter[0] += 1
    return f"{tag}_{counter[0]}"


def _report(circ: Circuit) -> tuple[Circuit, ResourceReport]:
    return circ, count_resources(circ)


class JunkPool:
    """Shared unreusable junk register.

    The label-controlled preparations leave junk only on their own branch,
    so branches can write into the same physical qubits; the pool resets its
    cursor between branches and grows to the widest single branch, matching
    the max (not sum) junk accounting of the coefficient preparation.
    """

    def __init__(self, circ: Circuit, tag: str = "junk"):
        self.circ = circ
        self.tag = tag
        self.qubits: list[int] = []
        self.pos = 0

    def take(self, width: int) -> tuple[int, ...]:
        short = width - (len(self.qubits) - self.pos)
        if short > 0:
            self.qubits.extend(
                self.circ.alloc_ancilla(_name(self.circ, self.tag), short,
                                        reusable=False))
        out = tuple(self.qubits[self.pos:self.pos + width])
        self.pos += width
        return out

    def reset(self) -> None:
        self.pos = 0


def _take_junk(circ: Circuit, junk: JunkPool | None, width: int,
               name: str) -> tuple[int, ...]:
    """``width`` junk qubits from ``junk``, or from a fresh unreusable
    register named after ``name`` when there is no shared pool."""
    if junk is None:
        return circ.alloc_ancilla(_name(circ, name), width, reusable=False)
    return junk.take(width)


def _pattern(qubits, ones) -> int:
    """Basis pattern over ``qubits`` (first qubit is the top bit) with the
    qubits in ``ones`` set to 1."""
    pattern = 0
    for q in qubits:
        pattern = pattern << 1 | int(q in ones)
    return pattern


# -- gate-sequence tools -------------------------------------------------------

_SELF_INVERSE = {"H", "X", "Z", "CNOT", "CZ", "SWAP", "CH", "REFLECT",
                 "CSWAP", "CCSWAP", "INEQ", "SUB", "UNA", "TOFFOLI", "MCX"}


def invert_gates(gates: list[Gate]) -> list[Gate]:
    """Inverse sequence, priced like the forward one.

    Charge flags are preserved: the source accounting bills an inverted
    subroutine at the cost of the forward instance (only pairings it marks
    free, which the builders tag with ``inverse=True`` at emission, stay
    free in either direction)."""
    out = []
    for g in reversed(gates):
        k = g.kind
        if k in ("RY", "RZ", "CRY", "CRZ", "PHASE0"):
            out.append(replace(g, angle=-g.angle))
        elif k == "ADDC":
            out.append(replace(g, const=-g.const))
        elif k in _SELF_INVERSE:
            out.append(g)
        else:
            raise ValueError(f"cannot invert gate kind {k}")
    return out


#: kinds whose control is the top bit of their pattern
_PATTERNED = ("REFLECT", "PHASE0")
#: an uncontrolled MCX takes the name of its arity
_X_BY_ARITY = {1: "X", 2: "CNOT", 3: "TOFFOLI"}


def _control(g: Gate, ctrl: int | None) -> Gate:
    """``g`` with ``ctrl`` prepended as one more control; ``g`` itself when
    ``ctrl`` is None."""
    if ctrl is None:
        return g
    if g.kind not in CONTROLLED or g.ctrl_rot:
        raise ValueError(f"no controlled form of {g.kind}")
    out = replace(g, kind=CONTROLLED[g.kind], qubits=(ctrl,) + g.qubits)
    if g.kind in _PATTERNED:
        w, phase = len(g.qubits), g.kind == "PHASE0"
        out = replace(out, pattern=max(g.pattern, 0) | 1 << w,
                      width=(g.width or w) + (not phase), ctrl_rot=phase)
    return out


def strip_control(gates: list[Gate], ctrl: int | None,
                  drop_targets: set[int] | None = None) -> list[Gate]:
    """Action of a controlled gate list when the control fires: the inverse
    of ``_control`` on every gate that carries ``ctrl``.

    Gates targeting ``drop_targets`` (exported flag qubits) are removed;
    they stay in deterministic product states and play no role in the
    amplified subspace.
    """
    drop = drop_targets or set()
    out = []
    for g in gates:
        if g.qubits and g.qubits[-1] in drop:
            continue
        if ctrl not in g.qubits:
            out.append(g)
            continue
        if g.qubits[0] != ctrl or g.kind not in UNCONTROLLED:
            raise ValueError(f"cannot strip control from {g.kind}")
        rest = g.qubits[1:]
        kind = UNCONTROLLED[g.kind]
        if kind == "MCX":
            kind = _X_BY_ARITY.get(len(rest), "MCX")
        g2 = replace(g, kind=kind, qubits=rest)
        if kind in _PATTERNED:
            w, phase = len(g.qubits), kind == "PHASE0"
            g2 = replace(g2, pattern=max(g.pattern, 0) & ~(1 << (w - 1)),
                         width=max((g.width or w) - (not phase), 0),
                         ctrl_rot=False)
        out.append(g2)
    return out


def _support(gates) -> set[int]:
    s: set[int] = set()
    for g in gates:
        s.update(g.qubits)
    return s


# -- arithmetic emission --------------------------------------------------------


def _ineq(circ: Circuit, a, b, out: int, width: int,
          inverse: bool = False) -> None:
    """Comparator out ^= (value(a) <= value(b))."""
    circ.add("INEQ", tuple(a) + tuple(b) + (out,),
             splits=(len(a), len(b)), width=width, inverse=inverse,
             anc_reusable=max(width - 1, 0))


def _addc(circ: Circuit, reg, const: int, inverse: bool = False) -> None:
    s = len(reg)
    circ.add("ADDC", tuple(reg), const=const % (1 << s), width=s,
             inverse=inverse, anc_reusable=max(s - 1, 0))


def _una(circ: Circuit, a, z, inverse: bool = False) -> None:
    s = len(a)
    circ.add("UNA", tuple(a) + tuple(z), width=s, inverse=inverse,
             anc_reusable=2 * s)


def _copy(circ: Circuit, src, dst) -> None:
    for s, d in zip(src, dst):
        circ.add("CNOT", (s, d))


def _load_const(circ: Circuit, reg, value: int, ctrl: int | None = None) -> None:
    w = len(reg)
    for k, q in enumerate(reg):
        if (value >> (w - 1 - k)) & 1:
            circ.append(_control(Gate("X", (q,)), ctrl))


# -- uniform superposition -------------------------------------------------------


@dataclass
class UniHandles:
    conditions: list = field(default_factory=list)
    uc: int | None = None       # comparison-success qubit (reusable)
    flag: int | None = None     # rotated flag qubit (unreusable)
    usucc: int | None = None    # control-qualified success (controlled only)
    internal: tuple[int, ...] = ()   # qubits entangled after an inversion
    gates: list = field(default_factory=list)
    cmp_name: str | None = None      # set when the caller keeps cmp alive

    @property
    def success_qubit(self):
        return self.usucc if self.usucc is not None else self.uc


def _emit_uni(circ: Circuit, reg, m: int, eps: float, *,
              ctrl: int | None = None, short_circuit: bool = True,
              tag: str = "u", junk: JunkPool | None = None,
              keep_alive: bool = False) -> UniHandles:
    """Prepare (1/sqrt(m)) sum_{n<m} |n> on ``reg``.

    General construction: Hadamards on the power-of-two factor, a flag
    rotation making the target amplitude exactly one half on the odd
    factor, one exact amplification round, and a final comparison that
    flags success.  ``keep_alive`` leaves the comparison constant allocated
    so the caller may re-emit or invert the returned gate list.
    """
    b = clog2(m)
    if len(reg) != b:
        raise ValueError("register width must be clog2(m)")
    ft = factor_two(m)
    l = clog2(ft.r)
    g0 = len(circ.gates)
    h = UniHandles()
    for q in reg:
        circ.append(_control(Gate("H", (q,)), ctrl))
    if ft.r == 1 and short_circuit:
        h.gates = circ.gates[g0:]
        return h
    top = reg[:l]
    flag = _take_junk(circ, junk, 1, f"{tag}flag")[0]
    cmp_name = _name(circ, f"{tag}cmp")
    cmp = circ.alloc_ancilla(cmp_name, l)
    uc = circ.alloc_ancilla(_name(circ, f"{tag}uc"), 1)[0]
    theta = 2 * math.asin(0.5 * math.sqrt((1 << l) / ft.r))

    circ.add("RY", (flag,), angle=theta, eps=eps / 2)
    _load_const(circ, cmp, ft.r - 1, ctrl=ctrl)
    # reflect about the target {i <= r-1 and flag}
    _ineq(circ, top, cmp, uc, l)
    if ctrl is None:
        circ.add("CZ", (uc, flag))
    else:
        circ.add("REFLECT", (ctrl, uc, flag), pattern=0b111, width=3)  # CCZ
    _ineq(circ, top, cmp, uc, l, inverse=True)
    # reflect about the prepared state
    circ.add("RY", (flag,), angle=-theta, eps=eps / 2)
    for q in top:
        circ.add("H", (q,))
    circ.append(_control(Gate("REFLECT", tuple(top) + (flag,)), ctrl))
    for q in top:
        circ.add("H", (q,))
    # completion rotation (measurement-folded in the source accounting)
    circ.append(_control(Gate("RY", (flag,), angle=theta, eps=eps / 2,
                              charged=False), ctrl))
    # flag success
    _ineq(circ, top, cmp, uc, l)
    h.uc, h.flag = uc, flag
    h.conditions = [(uc, 1), (flag, 1)]
    h.internal = (uc, flag)
    if ctrl is not None:
        if junk is None:
            usucc = circ.alloc_ancilla(_name(circ, f"{tag}usucc"), 1)[0]
        else:
            usucc = junk.take(1)[0]
        circ.add("TOFFOLI", (ctrl, uc, usucc))
        _ineq(circ, top, cmp, uc, l, inverse=True)
        h.uc = None
        h.usucc = usucc
        h.conditions = [(usucc, 1), (flag, 1)]
    _load_const(circ, cmp, ft.r - 1, ctrl=ctrl)  # clear the constant
    if keep_alive:
        h.cmp_name = cmp_name
    else:
        circ.release(cmp_name)
    h.gates = circ.gates[g0:]
    return h


def uni(n: int, eps: float, controlled: bool = False,
        short_circuit: bool = True) -> tuple[Circuit, ResourceReport]:
    """Uniform superposition over n computational basis states."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0,1)")
    circ = Circuit()
    ctrl = circ.add_register("ctrl", 1)[0] if controlled else None
    reg = circ.add_register("idx", clog2(n))
    h = _emit_uni(circ, reg, n, eps, ctrl=ctrl, short_circuit=short_circuit)
    circ.metadata["success"] = h.conditions
    circ.metadata["output"] = "idx"
    return _report(circ)


# -- standalone arithmetic -------------------------------------------------------


def arithmetic(kind: str, s: int, controlled: bool = False
               ) -> tuple[Circuit, ResourceReport]:
    """Arithmetic primitives: comparator, subtractor, controlled swap,
    leading-zero unary mask, reflection."""
    if s < 1:
        raise ValueError("bit width must be >= 1")
    if controlled and kind != "cswap":
        raise ValueError(f"no priced controlled variant of {kind!r}")
    circ = Circuit()
    if kind == "ineq":
        a = circ.add_register("a", s)
        b = circ.add_register("b", s)
        out = circ.add_register("out", 1)
        _ineq(circ, a, b, out[0], s)
    elif kind == "sub":
        a = circ.add_register("a", s)
        b = circ.add_register("b", s)
        circ.add("SUB", tuple(a) + tuple(b), width=s,
                 anc_reusable=max(s - 1, 0))
    elif kind == "cswap":
        ctl = circ.add_register("ctrl", 2 if controlled else 1)
        a = circ.add_register("a", s)
        b = circ.add_register("b", s)
        circ.add("CCSWAP" if controlled else "CSWAP",
                 tuple(ctl) + tuple(a) + tuple(b), width=s,
                 anc_reusable=1 if controlled else 0)
    elif kind == "una":
        a = circ.add_register("a", s)
        z = circ.add_register("z", s)
        _una(circ, a, z)
    elif kind == "reflection":
        reg = circ.add_register("a", s)
        circ.add("REFLECT", tuple(reg), anc_reusable=max(s - 2, 0))
    else:
        raise ValueError(f"unknown arithmetic kind {kind!r}")
    return _report(circ)


# -- sqrt-weight index preparations P_S1 / P_S2 -----------------------------------


def _emit_ps_even_odd(circ: Circuit, out, n: int, eps: float, *,
                      odd: bool, ctrl: int | None, short_circuit: bool,
                      junk: JunkPool | None = None) -> list:
    """Shared core of the even/odd sqrt-weight preparations over 1..n-1
    (n even).

    ``out`` holds the full index; its top bits carry the halved index i and
    the last bit the parity.  Junk: second uniform register, complement
    register, doubled-index register, and (uncontrolled only) the branch
    bit plus the combined success flag.
    """
    m_half = n // 2
    bh = clog2(m_half)
    m_second = m_half if odd else m_half - 1
    bj = clog2(m_second)
    top = out[:bh]
    parity = out[-1]

    jreg = _take_junk(circ, junk, bj, "psj")
    u1 = _emit_uni(circ, top, m_half, eps / 2, ctrl=ctrl,
                   short_circuit=short_circuit, tag="psa", junk=junk)
    u2 = _emit_uni(circ, jreg, m_second, eps / 2, ctrl=ctrl,
                   short_circuit=short_circuit, tag="psb", junk=junk)
    conditions = list(u1.conditions) + list(u2.conditions)
    if ctrl is None and u1.uc is not None and u2.uc is not None:
        both = _take_junk(circ, junk, 1, "psboth")[0]
        circ.add("TOFFOLI", (u1.uc, u2.uc, both))
        conditions = [(both, 1), (u1.flag, 1), (u2.flag, 1)]
    if odd:
        circ.append(_control(Gate("X", (parity,)), ctrl))

    # complement register alt := m_half - 1 - i
    alt_shift = m_half - (1 << bh)
    alt = _take_junk(circ, junk, bh, "psalt")
    _copy(circ, top, alt)
    for q in alt:
        circ.add("X", (q,))
    _addc(circ, alt, alt_shift)
    # doubled index keep := 2i (+1 when odd), one extra low bit
    keep = _take_junk(circ, junk, bh + 1, "pskeep")
    _copy(circ, top, keep[:bh])
    if odd:
        circ.append(_control(Gate("X", (keep[-1],)), ctrl))
    # branch on keep <= j and swap in the complement there
    if ctrl is None:
        c = _take_junk(circ, junk, 1, "psc")[0]
        _ineq(circ, keep, jreg, c, bh + 1)
        circ.add("CSWAP", (c,) + tuple(top) + tuple(alt), width=bh)
    else:
        cname = _name(circ, "psc")
        c = circ.alloc_ancilla(cname, 1)[0]
        _ineq(circ, keep, jreg, c, bh + 1)
        circ.add("CCSWAP", (ctrl, c) + tuple(top) + tuple(alt), width=bh,
                 anc_reusable=1)
        _ineq(circ, keep, jreg, c, bh + 1, inverse=True)
        circ.release(cname)
        # undo the complement arithmetic so the block is identity off-control
        # (charged: the controlled variant prices the subtraction twice)
        _addc(circ, alt, -alt_shift)
        for q in alt:
            circ.add("X", (q,))
        _copy(circ, top, alt)
    return conditions


def _p_s(n: int, eps: float, controlled: bool, short_circuit: bool, *,
         odd: bool) -> tuple[Circuit, ResourceReport]:
    if n % 2 != 0 or n < 4:
        raise ValueError("N must be even and >= 4")
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0,1)")
    circ = Circuit()
    ctrl = circ.add_register("ctrl", 1)[0] if controlled else None
    out = circ.add_register("out", clog2(n))
    circ.metadata["success"] = _emit_ps_even_odd(
        circ, out, n, eps, odd=odd, ctrl=ctrl,
        short_circuit=short_circuit)
    circ.metadata["output"] = "out"
    return _report(circ)


def p_s1(n: int, eps: float, controlled: bool = False,
         short_circuit: bool = True) -> tuple[Circuit, ResourceReport]:
    """sqrt(n)-weighted superposition over even n in 1..N-1, junk attached."""
    return _p_s(n, eps, controlled, short_circuit, odd=False)


def p_s2(n: int, eps: float, controlled: bool = False,
         short_circuit: bool = True) -> tuple[Circuit, ResourceReport]:
    """sqrt(n)-weighted superposition over odd n in 1..N-1, junk attached."""
    return _p_s(n, eps, controlled, short_circuit, odd=True)


# -- linear-weight preparation P_S3 -----------------------------------------------


def ps3_amplitude(n: int) -> float:
    """Pre-amplification success amplitude sqrt((1^2 + ... + (N-1)^2)/N^3)."""
    return math.sqrt(sum_of_squares(n) / n ** 3)


def _emit_ps3(circ: Circuit, out, n: int, eps: float, *,
              ctrl: int | None, short_circuit: bool, tag: str = "p3",
              junk: JunkPool | None = None) -> list:
    """Emit the linear-weight preparation onto ``out``; returns success
    conditions (a single flag computed by the final multi-controlled X)."""
    check_encoding_size(n)
    b = clog2(n)
    amp = ps3_amplitude(n)
    assert amp > 0.5
    theta = 2 * math.asin(math.sqrt(n ** 3 / (4 * sum_of_squares(n))))

    nprime = _take_junk(circ, junk, b, f"{tag}np")
    c = _take_junk(circ, junk, 1, f"{tag}c")[0]
    succ = _take_junk(circ, junk, 1, f"{tag}succ")[0]
    one = None
    one_name = None
    if factor_two(n).r == 1 and short_circuit:
        one_name = _name(circ, f"{tag}one")
        one = circ.alloc_ancilla(one_name, 1)[0]
        circ.append(_control(Gate("X", (one,)), ctrl))
    rot = _take_junk(circ, junk, 1, f"{tag}rot")[0]

    # A: comparison ladder (P_S3') then the half-amplitude rotation
    g0 = len(circ.gates)
    u1 = _emit_uni(circ, out, n, eps * 6 / 20 / 3, ctrl=ctrl,
                   short_circuit=short_circuit, tag=f"{tag}a", junk=junk,
                   keep_alive=True)
    u2 = _emit_uni(circ, nprime, n, eps * 6 / 20 / 3,
                   short_circuit=short_circuit, tag=f"{tag}b", junk=junk,
                   keep_alive=True)
    _ineq(circ, out, nprime, c, b)
    circ.add("X", (c,))  # c = (n' < n)
    circ.extend(invert_gates(u2.gates))
    aux = u1.success_qubit if u1.success_qubit is not None else one
    circ.add("TOFFOLI", (c, aux, succ))
    circ.add("RY", (rot,), angle=theta, eps=eps / 20)
    a_gates = list(circ.gates[g0:])
    drop = {u1.usucc} if u1.usucc is not None else set()
    a_unctrl = strip_control(a_gates, ctrl, drop)

    # R_T: reflect about the flagged target subspace (pattern: second
    # register restored to zero, comparison and combined flags set, rotated
    # qubit set; entangled inversion leftovers pinned to zero)
    t_qubits = tuple(nprime) + (c, succ, rot) + tuple(u2.internal)
    circ.append(_control(Gate("REFLECT", t_qubits, width=b + 3,
                              pattern=_pattern(t_qubits, {c, succ, rot})),
                         ctrl))

    # R_psi = A R0 A^dag about the pre-A state (support zeros, helper ones)
    circ.extend(invert_gates(a_unctrl))
    r0_qubits = tuple(sorted(_support(a_unctrl)))
    circ.append(_control(Gate("REFLECT", r0_qubits, width=2 * b + 3,
                              pattern=_pattern(r0_qubits, {one})), ctrl))
    reapply = list(a_unctrl)
    reapply[-1] = _control(Gate("RY", (rot,), angle=theta, eps=eps / 20,
                                charged=False), ctrl)
    circ.extend(reapply)

    # flag overall success
    flag = _take_junk(circ, junk, 1, f"{tag}flag")[0]
    ctl_list = tuple(nprime) + (succ, rot)
    for q in nprime:
        circ.add("X", (q,))
    circ.append(_control(Gate("MCX", ctl_list + (flag,)), ctrl))
    for q in nprime:
        circ.add("X", (q,))
    # the kept comparison constants and the helper can retire now
    for h in (u1, u2):
        if h.cmp_name is not None:
            circ.release(h.cmp_name)
    if one_name is not None:
        circ.append(_control(Gate("X", (one,)), ctrl))
        circ.release(one_name)
    return [(flag, 1)]


def p_s3(n: int, eps: float, controlled: bool = False,
         short_circuit: bool = True) -> tuple[Circuit, ResourceReport]:
    """Linear-weight preparation: the success branch carries sum_n n |n>.

    A comparison ladder puts amplitude n/(N sqrt(N)) on |n>, an ancilla
    rotation brings the flagged amplitude to exactly one half, and a single
    exact amplification round lands on the target subspace.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0,1)")
    circ = Circuit()
    ctrl = circ.add_register("ctrl", 1)[0] if controlled else None
    out = circ.add_register("out", clog2(n) if n > 1 else 1)
    conds = _emit_ps3(circ, out, n, eps, ctrl=ctrl,
                      short_circuit=short_circuit)
    circ.metadata["success"] = conds
    circ.metadata["output"] = "out"
    return _report(circ)


# -- prefix-uniform map P_2 --------------------------------------------------------


def fixed_point_phases(d: int, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Generalized-reflection phases for fixed-point amplification.

    ``d`` odd total reflections give ``l = (d-1)//2`` rounds with phases
    (alphas[j], betas[j]); the final squared overlap is at least 1 - delta
    whenever the initial squared overlap is at least 1 - 1/gamma_inv**2,
    which stays below 1/2 for d >= sqrt(2) ln(2/sqrt(delta)).
    """
    if d % 2 != 1 or d < 1:
        raise ValueError("d must be odd and >= 1")
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0,1)")
    l = (d - 1) // 2
    # T_{1/d}(1/sqrt(delta)), a Chebyshev polynomial at x > 1
    gamma_inv = math.cosh(1.0 / d * math.acosh(1.0 / math.sqrt(delta)))
    s = math.sqrt(max(0.0, 1.0 - 1.0 / gamma_inv ** 2))
    alphas = np.empty(l)
    for j in range(1, l + 1):
        alphas[j - 1] = 2.0 * math.atan2(1.0, math.tan(2 * math.pi * j / d) * s)
    return alphas, -alphas[::-1]


def p2(n: int, eps: float, delta: float, controlled: bool = False
       ) -> tuple[Circuit, ResourceReport]:
    """Prefix-uniform map |n>|0> -> |n> (xi_n/sqrt(n)) sum_{i<n} |i> + orth.

    Controlled Hadamards seeded by the leading-zero mask of n-1 prepare a
    power-of-two superposition overlapping the target by more than
    1/sqrt(2); fixed-point amplification with d generalized reflections
    pushes |xi_n|^2 above 1 - delta for every n in 1..N-1.  The working
    registers are restored, so the routine leaves no junk.
    """
    if not 0 < eps < 1 or not 0 < delta < 1:
        raise ValueError("eps and delta must be in (0,1)")
    b = clog2(n)
    d = amplification_rounds(delta)
    l = (d - 1) // 2
    alphas, betas = fixed_point_phases(d, delta)
    eps_rot = eps / (2 * d) if controlled else eps / d

    circ = Circuit()
    ctrl = circ.add_register("ctrl", 1)[0] if controlled else None
    idx = circ.add_register("idx", b)
    out = circ.add_register("out", b)
    m = circ.alloc_ancilla("m", b)
    z = circ.alloc_ancilla("z", b)
    t = circ.alloc_ancilla("t", 1)[0]
    succ = circ.add_register("p2succ", 1)[0]

    def rz(angle):
        circ.append(_control(Gate("RZ", (t,), angle=angle, eps=eps_rot),
                             ctrl))

    def ch_layer():
        for zq, oq in zip(z, out):
            circ.add("CH", (zq, oq))

    def s_target(angle):
        _ineq(circ, out, m, t, b)
        rz(angle)
        _ineq(circ, out, m, t, b, inverse=True)

    def s_prepared(angle):
        ch_layer()
        circ.append(_control(Gate("PHASE0", out + (t,), angle=angle,
                                  eps=eps_rot, width=b + 1), ctrl))
        ch_layer()

    # m := n-1; z := leading-zero mask of m; initial preparation layer
    _copy(circ, idx, m)
    _addc(circ, m, -1)
    _una(circ, m, z)
    if controlled:
        # doubly controlled Hadamards: the preparation must be off when the
        # control is (the per-round layers cancel in A ... A^dag pairs)
        helper = circ.alloc_ancilla("cch", 1)[0]
        for zq, oq in zip(z, out):
            circ.add("TOFFOLI", (ctrl, zq, helper))
            circ.add("CH", (helper, oq))
            circ.add("TOFFOLI", (ctrl, zq, helper), charged=False)
        circ.release("cch")
    else:
        ch_layer()
    for j in range(l):
        s_target(float(betas[j]))
        s_prepared(-float(alphas[j]))
    # trailing target phase cancels the Schur factors of the round phases,
    # leaving the bare product of generalized reflections
    s_target(-float(np.sum(betas)))
    # flag success and restore the working registers
    if controlled:
        tname = _name(circ, "p2sc")
        tmp_s = circ.alloc_ancilla(tname, 1)[0]
        _ineq(circ, out, m, tmp_s, b)
        circ.add("TOFFOLI", (ctrl, tmp_s, succ))
        _ineq(circ, out, m, tmp_s, b, inverse=True)
        circ.release(tname)
    else:
        _ineq(circ, out, m, succ, b)
    _una(circ, m, z, inverse=True)
    _addc(circ, m, 1, inverse=True)
    _copy(circ, idx, m)
    circ.release("m")
    circ.release("z")
    circ.release("t")
    circ.metadata["success"] = [(succ, 1)]
    circ.metadata["output"] = "out"
    circ.metadata["rounds"] = d
    return _report(circ)


# -- SELECT operators ---------------------------------------------------------------


def select(kind: str, n: int, controls: int) -> tuple[Circuit, ResourceReport]:
    """Indexed Pauli application priced by unary iteration.

    Applies X_a X_{a+1} / Y_a Y_{a+1} / (-1)^a Z_a / Z_a on the system for
    address a; identity when the address is out of range or the control
    pattern does not match.  ``circuit.gate_cost`` prices the gate from
    its term and control counts.
    """
    check_select_variant(kind, controls)
    circ = Circuit()
    ctl = circ.add_register("ctrl", controls)
    addr = circ.add_register("addr", clog2(n))
    sys = circ.add_register("system", n)
    circ.add("SEL_" + kind.upper(), tuple(ctl) + tuple(addr) + tuple(sys),
             splits=(controls, clog2(n)), n_terms=select_terms(kind, n),
             pattern=(1 << controls) - 1, anc_reusable=clog2(n))
    circ.metadata["output"] = "system"
    return _report(circ)


# -- coefficient splitter and P_1 ------------------------------------------------------


def branch_weights(params: ModelParams) -> dict[str, float]:
    """Unnormalized squared amplitudes of the six coefficient branches:
    ``normalization``'s weights, whose sum is alpha_S."""
    w = normalization(params).weights
    if any(v < -1e-15 for v in w.values()):
        raise ValueError("negative branch weight; check the couplings")
    return w


def splitter_angle(w0: float, w1: float) -> float:
    """RY angle taking |0> to amplitudes sqrt(w0), sqrt(w1), normalized."""
    return 2 * math.atan2(math.sqrt(w1), math.sqrt(w0))


#: label values of the six branches (q1 q2 q3)
BRANCH_LABELS = {"xx": 0b000, "yy": 0b001, "z": 0b010,
                 "zeven": 0b100, "zodd": 0b101, "zsq": 0b110}


def p1(params: ModelParams, eps: float, short_circuit: bool = True
       ) -> tuple[Circuit, ResourceReport]:
    """Coefficient preparation: three-label splitter, then label-controlled
    index preparations (uniform, uniform, even/odd sqrt-weights, linear)."""
    n = params.n_sites
    check_encoding_size(n)
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0,1)")
    b = clog2(n)
    wts = branch_weights(params)
    a_grp = wts["xx"] + wts["yy"] + wts["z"]
    b_grp = wts["zeven"] + wts["zodd"] + wts["zsq"]
    e = eps / 39

    circ = Circuit()
    q1, q2, q3 = circ.add_register("label", 3)
    out = circ.add_register("out", b)

    def neg(*qs):
        for q in qs:
            circ.add("X", (q,))

    # splitter
    circ.add("RY", (q1,), eps=e, angle=splitter_angle(a_grp, b_grp))
    neg(q1)
    circ.add("CRY", (q1, q2), eps=e,
             angle=splitter_angle(wts["xx"] + wts["yy"], wts["z"]))
    neg(q1)
    circ.add("CRY", (q1, q2), eps=e,
             angle=splitter_angle(wts["zeven"] + wts["zodd"], wts["zsq"]))
    # split the kinetic pair evenly, then set the zeven/zodd ratio
    neg(q2)
    circ.add("CH", (q2, q3))
    neg(q2)
    h2 = circ.alloc_ancilla("h2", 1)[0]
    neg(q2)
    circ.add("TOFFOLI", (q1, q2, h2))
    neg(q2)
    theta3 = splitter_angle(wts["zeven"], wts["zodd"])
    circ.add("CRY", (h2, q3), angle=theta3 - math.pi / 2, eps=e)
    neg(q2)
    circ.add("TOFFOLI", (q1, q2, h2), charged=False)
    neg(q2)
    circ.release("h2")

    # Label-controlled index preparations.  Each decoder is computed, used,
    # and freely uncomputed so the branches share one scratch control; the
    # branch junk shares one pool (only the firing branch populates it).
    pool = JunkPool(circ, "p1junk")

    def with_decoder(negated, n_ctrl, body):
        pool.reset()
        name = _name(circ, "dec")
        dq = circ.alloc_ancilla(name, 1)[0]
        neg(*negated)
        kind = "TOFFOLI" if n_ctrl == 2 else "MCX"
        ctls = (q1, q2) if n_ctrl == 2 else (q1, q2, q3)
        circ.add(kind, ctls + (dq,))
        neg(*negated)
        body(dq)
        neg(*negated)
        circ.add(kind, ctls + (dq,), charged=False)
        neg(*negated)
        circ.release(name)

    with_decoder((q1, q2), 2, lambda d: _emit_uni(
        circ, out, n - 1, 2 * e, ctrl=d, short_circuit=short_circuit,
        tag="p1u1", junk=pool))
    with_decoder((q1, q3), 3, lambda d: _emit_uni(
        circ, out, n, 2 * e, ctrl=d, short_circuit=short_circuit,
        tag="p1u2", junk=pool))
    with_decoder((q2, q3), 3, lambda d: _emit_ps_even_odd(
        circ, out, n, 4 * e, odd=False, ctrl=d,
        short_circuit=short_circuit, junk=pool))
    with_decoder((q2,), 3, lambda d: _emit_ps_even_odd(
        circ, out, n, 4 * e, odd=True, ctrl=d,
        short_circuit=short_circuit, junk=pool))
    with_decoder((q3,), 3, lambda d: _emit_ps3(
        circ, out, n, 20 * e, ctrl=d, short_circuit=short_circuit,
        tag="p1p3", junk=pool))

    # every constituent round is exact, so the preparation succeeds
    # deterministically; per-branch flags live in the shared junk
    circ.metadata["success"] = []
    circ.metadata["output"] = "out"
    circ.metadata["weights"] = wts
    return _report(circ)
