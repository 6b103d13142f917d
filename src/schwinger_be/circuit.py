"""Gate-level circuit IR with ancilla lifecycle tracking and a T-gate cost model.

Cost accounting follows the fault-tolerant conventions used throughout the
builders: Clifford gates are free, a Toffoli costs 4 T (measurement-assisted
uncomputation) and an m-controlled X costs 4m-4.  The other prices are
functions of this module, and the closed forms in
:mod:`schwinger_be.estimator` call the same functions, so every builder's
tally equals its formula: ``rotation_cost`` (a single-qubit rotation
synthesized to operator norm error eps costs 4*ceil(log2(1/eps)) + C with
C = 5 + 4*log2(1+sqrt(2)), eps = ``ROTATION_EPSILON`` for a rotation that
carries no budget; its log term is ``rotation_log_cost``), ``reflection_cost``
(an s-qubit reflection about a basis pattern costs 4s-8, and nothing below
s = 2), by bit width
``ineq_cost`` (comparator), ``sub_cost`` (subtractor, constant adder,
leading-zero unary mask) and ``cswap_cost`` (a swap under one control, or
two if ``controlled``), and ``unary_iteration_cost`` (a SELECT over L
terms under c controls costs 4(L-1) + 4(c-1), Babbush et al.,
arXiv:1805.03662, and nothing for no terms).  Every kind is priced by
these rules from the gate's own fields; no gate carries its own price.
Inverses of out-of-place arithmetic are free and are tagged with
``inverse=True`` so the tally honors that.  Costs add as reals;
``ResourceReport.of`` ceils the total.

Serialization is line oriented (one gate per line) so circuits can be stored
as golden files::

    # schwinger_be circuit v1
    register <name> <q0,q1,...> [reusable|unreusable]
    gate <KIND> <q0,q1,...> [key=value | flag ...]

An empty qubit list is written ``-``.  Boolean flags serialize as the bare
words ``inverse``, ``uncharged`` and ``ctrl_rot``.  A gate label is written
as is, so :meth:`Circuit.append` rejects one that contains whitespace.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .model import ordered_sum

C_ROT = 5 + 4 * math.log2(1 + math.sqrt(2))
ROTATION_EPSILON = 1e-10  # synthesis error of a rotation that carries no eps

CLIFFORD = frozenset({"H", "S", "X", "Y", "Z", "CNOT", "CZ", "SWAP"})
ROTATIONS = frozenset({"RY", "RZ"})
CTRL_ROTATIONS = frozenset({"CRY", "CRZ"})
ARITH = frozenset({"INEQ", "SUB", "ADDC", "UNA"})
SELECTS = frozenset({"SEL_XX", "SEL_YY", "SEL_Z", "SEL_Z2"})
PERMUTATION_KINDS = frozenset(
    {"X", "CNOT", "TOFFOLI", "MCX", "SWAP", "CSWAP", "CCSWAP"}) | ARITH
KINDS = (CLIFFORD | ROTATIONS | CTRL_ROTATIONS | ARITH | SELECTS
         | {"T", "TOFFOLI", "MCX", "CH", "CSWAP", "CCSWAP", "REFLECT",
            "PHASE0"})
#: kind of a gate with one more control, put first among its qubits; a
#: REFLECT or PHASE0 takes it as the top bit of its pattern
CONTROLLED = {"X": "CNOT", "CNOT": "TOFFOLI", "H": "CH", "RY": "CRY",
              "RZ": "CRZ", "MCX": "MCX", "REFLECT": "REFLECT",
              "PHASE0": "PHASE0"}
#: the inverse: the kind of a gate without its first control
UNCONTROLLED = {v: k for k, v in CONTROLLED.items()}


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]
    angle: float = 0.0
    eps: float | None = None
    width: int = 0              # arithmetic bit width / reflection cost width
    splits: tuple[int, ...] = ()  # operand group widths where ambiguous
    const: int = 0              # ADDC addend
    pattern: int = -1           # control pattern for REFLECT/PHASE0/SEL_*
    n_terms: int = 0            # SELECT iteration count N
    inverse: bool = False
    charged: bool = True
    ctrl_rot: bool = False      # PHASE0 with a controlled phase (2 rotations)
    anc_reusable: int = 0       # transient scratch inside the gate
    label: str = ""


def rotation_log_cost(ratio: float) -> int:
    """The log term of a rotation's price, 4*ceil(log2(ratio)), at
    ``ratio`` = 1/eps."""
    return 4 * math.ceil(math.log2(ratio))


def rotation_cost(eps: float | None) -> float:
    """T cost of one rotation synthesized to error ``eps``
    (``ROTATION_EPSILON`` when the gate carries no budget)."""
    e = ROTATION_EPSILON if eps is None else eps
    return rotation_log_cost(1 / e) + C_ROT


def reflection_cost(s: int) -> int:
    return max(4 * s - 8, 0)


def ineq_cost(s: int) -> int:
    return 4 * s


def sub_cost(s: int) -> int:
    return 4 * s - 4


def cswap_cost(s: int, controlled: bool = False) -> int:
    return 7 * s + (4 if controlled else 0)


def unary_iteration_cost(terms: int, controls: int) -> int:
    return max(4 * (terms - 1) + 4 * (controls - 1), 0) if terms else 0


def gate_cost(g: Gate) -> float:
    """T cost of one gate under the conventions of the module docstring."""
    if not g.charged:
        return 0.0
    k = g.kind
    if k in CLIFFORD:
        return 0.0
    if k == "T":
        return 1.0
    if k in ("TOFFOLI", "CH"):
        return 4.0
    if k == "MCX":
        return 4 * (len(g.qubits) - 1) - 4
    if k in ROTATIONS:
        return rotation_cost(g.eps)
    if k in CTRL_ROTATIONS:
        return 2 * rotation_cost(g.eps)
    if k == "REFLECT":
        return reflection_cost(g.width or len(g.qubits))
    if k == "PHASE0":
        n_rot = 2 if g.ctrl_rot else 1
        return (reflection_cost(g.width or len(g.qubits))
                + n_rot * rotation_cost(g.eps))
    if g.inverse and k in ARITH:
        return 0.0
    if k == "INEQ":
        return ineq_cost(g.width)
    if k in ARITH:
        return sub_cost(g.width)
    if k in ("CSWAP", "CCSWAP"):
        return cswap_cost(g.width, controlled=k == "CCSWAP")
    if k in SELECTS:  # splits[0] is the control count
        return unary_iteration_cost(g.n_terms, g.splits[0])
    raise ValueError(f"unknown gate kind {k}")


@dataclass(frozen=True)
class ResourceReport:
    t_count: int
    t_real: float
    ancilla_reusable: int
    ancilla_unreusable: int
    total_qubits: int

    @classmethod
    def of(cls, t_real: float, reusable: int, unreusable: int,
           total: int) -> "ResourceReport":
        """The report of T count ``t_real``: ``t_count`` is its ceiling,
        forgiving 1e-9 of summation error, and 0 for no T gates."""
        return cls(math.ceil(t_real - 1e-9) if t_real > 0 else 0, t_real,
                   reusable, unreusable, total)


@dataclass
class _Register:
    name: str
    qubits: tuple[int, ...]
    is_ancilla: bool
    reusable: bool
    released: bool = False

    @property
    def width(self) -> int:
        return len(self.qubits)


class Circuit:
    """Ordered gate list over named registers.

    Registers added with :meth:`add_register` are data registers (always
    live).  :meth:`alloc_ancilla` adds ancilla registers; reusable ones may
    be released once restored to |0>, unreusable (junk) ones never are.
    Reported qubit totals take the maximum number of simultaneously live
    qubits, and the reusable-ancilla count is likewise a running maximum,
    not a sum.
    """

    def __init__(self):
        self.registers: dict[str, _Register] = {}
        self.gates: list[Gate] = []
        self.metadata: dict = {}
        self._events: list[tuple[str, str]] = []  # (op, name) in gate order
        self._free: list[int] = []   # released slots available for reuse
        self._n_slots = 0

    # -- registers ---------------------------------------------------------

    @property
    def n_qubits(self) -> int:
        return self._n_slots

    def add_register(self, name: str, width: int) -> tuple[int, ...]:
        return self._add(name, width, is_ancilla=False, reusable=False)

    def alloc_ancilla(self, name: str, width: int,
                      reusable: bool = True) -> tuple[int, ...]:
        return self._add(name, width, is_ancilla=True, reusable=reusable)

    def _add(self, name, width, is_ancilla, reusable):
        if name in self.registers:
            raise ValueError(f"register {name!r} already exists")
        if width < 0:
            raise ValueError("register width must be >= 0")
        self._free.sort()  # the lowest free slots first, then fresh ones
        reused = self._free[:width]
        del self._free[:width]
        fresh = range(self._n_slots, self._n_slots + width - len(reused))
        self._n_slots += len(fresh)
        reg = _Register(name, (*reused, *fresh), is_ancilla, reusable)
        self.registers[name] = reg
        self._events.append(("alloc", name))
        return reg.qubits

    def release(self, name: str) -> None:
        """Return a reusable ancilla register (restored to |0>) to the pool."""
        reg = self.registers[name]
        if not reg.is_ancilla:
            raise ValueError(f"{name!r} is not an ancilla register")
        if not reg.reusable:
            raise ValueError(f"unreusable ancilla {name!r} cannot be released")
        if reg.released:
            raise ValueError(f"{name!r} already released")
        reg.released = True
        self._free.extend(reg.qubits)
        self._events.append(("release", name))

    # -- gates -------------------------------------------------------------

    def append(self, gate: Gate) -> None:
        n = self.n_qubits
        if len(set(gate.qubits)) != len(gate.qubits):
            raise ValueError(f"duplicate operands in {gate}")
        if gate.qubits and not 0 <= min(gate.qubits) <= max(gate.qubits) < n:
            q = next(q for q in gate.qubits if not 0 <= q < n)
            raise ValueError(f"qubit {q} out of range for {n}-qubit circuit")
        if gate.kind not in KINDS:
            raise ValueError(f"unknown gate kind {gate.kind}")
        if not math.isfinite(gate.angle):
            raise ValueError("gate angle must be finite")
        if any(ch.isspace() for ch in gate.label):
            raise ValueError(f"gate label {gate.label!r} contains whitespace")
        self.gates.append(gate)
        self._events.append(("gate", str(len(self.gates) - 1)))

    def add(self, kind: str, qubits, **kw) -> Gate:
        g = Gate(kind=kind, qubits=tuple(qubits), **kw)
        self.append(g)
        return g

    def extend(self, gates) -> None:
        for g in gates:
            self.append(g)

    # -- accounting --------------------------------------------------------

    def ancilla_profile(self) -> tuple[int, int, int]:
        """(peak reusable ancillas, unreusable ancillas, peak live qubits).

        Per-gate ``anc_reusable`` annotations count scratch space that lives
        only inside that gate; it adds to whatever registers are live
        at that moment, so peaks are maxima, never sums.
        """
        live_reuse = peak_reuse = 0
        live_total = peak_total = 0
        unreusable_total = 0
        for op, arg in self._events:
            if op == "alloc":
                reg = self.registers[arg]
                live_total += reg.width
                peak_total = max(peak_total, live_total)
                if reg.is_ancilla and reg.reusable:
                    live_reuse += reg.width
                    peak_reuse = max(peak_reuse, live_reuse)
                elif reg.is_ancilla:
                    unreusable_total += reg.width
            elif op == "release":
                reg = self.registers[arg]
                live_reuse -= reg.width
                live_total -= reg.width
            else:  # gate
                g = self.gates[int(arg)]
                if g.anc_reusable:
                    peak_reuse = max(peak_reuse, live_reuse + g.anc_reusable)
                    peak_total = max(peak_total, live_total + g.anc_reusable)
        return peak_reuse, unreusable_total, peak_total


def count_resources(circuit: Circuit) -> ResourceReport:
    return ResourceReport.of(ordered_sum(map(gate_cost, circuit.gates)),
                             *circuit.ancilla_profile())


# -- serialization ----------------------------------------------------------

_HEADER = "# schwinger_be circuit v1"


def _ints(text: str) -> tuple[int, ...]:
    return () if text == "-" else tuple(int(x) for x in text.split(","))


def _text(value) -> str:
    if isinstance(value, tuple):
        return ",".join(map(str, value)) or "-"
    return value if isinstance(value, str) else repr(value)


#: Gate fields in text order as (field, key, parser).  A field is written
#: only when it differs from its default: ``key=value``, or for a boolean
#: (parser ``None``) the bare flag word ``key``.
_FIELDS = (("angle", "angle", float), ("eps", "eps", float),
           ("width", "width", int), ("splits", "splits", _ints),
           ("const", "const", int), ("pattern", "pattern", int),
           ("n_terms", "n_terms", int), ("inverse", "inverse", None),
           ("charged", "uncharged", None), ("ctrl_rot", "ctrl_rot", None),
           ("anc_reusable", "anc_reusable", int), ("label", "label", str))
_DEFAULTS = {f.name: f.default for f in fields(Gate)}
_BY_KEY = {key: (name, parse) for name, key, parse in _FIELDS}


def dumps(circuit: Circuit) -> str:
    lines = [_HEADER]
    for reg in circuit.registers.values():
        line = f"register {reg.name} {_text(reg.qubits)}"
        if reg.is_ancilla:
            line += " reusable" if reg.reusable else " unreusable"
        lines.append(line)
    for g in circuit.gates:
        parts = [f"gate {g.kind} {_text(g.qubits)}"]
        for name, key, parse in _FIELDS:
            value = getattr(g, name)
            if value != _DEFAULTS[name]:
                parts.append(key if parse is None else f"{key}={_text(value)}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def _gate_field(item: str, line: str) -> tuple[str, object]:
    key, eq, text = item.partition("=")
    name, parse = _BY_KEY.get(key, (None, None))
    if name is None or (parse is None) == bool(eq):
        raise ValueError(f"bad token {item!r} in line {line!r}")
    return name, (not _DEFAULTS[name]) if parse is None else parse(text)


def loads(text: str) -> Circuit:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != _HEADER:
        raise ValueError("not a schwinger_be circuit file")
    circ = Circuit()
    for ln in lines[1:]:
        tok = ln.split()
        if tok[0] == "register" and len(tok) in (3, 4):
            name, qubits = tok[1], _ints(tok[2])
            if name in circ.registers:
                raise ValueError(f"register {name!r} repeated in line {ln!r}")
            # registers may overlap (released slots are reused), but a
            # register holds each qubit once
            if len(set(qubits)) != len(qubits) or min(qubits, default=0) < 0:
                raise ValueError(f"repeated or negative qubit in line {ln!r}")
            if len(tok) == 4 and tok[3] not in ("reusable", "unreusable"):
                raise ValueError(f"bad ancilla kind in line {ln!r}")
            circ.registers[name] = _Register(name, qubits, len(tok) == 4,
                                             tok[3:] == ["reusable"])
            circ._events.append(("alloc", name))
            circ._n_slots = max([circ._n_slots] + [q + 1 for q in qubits])
        elif tok[0] == "gate" and len(tok) >= 3:
            kw = dict(_gate_field(item, ln) for item in tok[3:])
            circ.append(Gate(kind=tok[1], qubits=_ints(tok[2]), **kw))
        else:
            raise ValueError(f"bad line {ln!r}")
    return circ
