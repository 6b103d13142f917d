"""Golden-file checks of the circuit text format: builders must reproduce
the stored files byte for byte, and a loaded file must count and simulate
identically to a freshly built circuit, and a digest of every builder's
text pins the gate lists of the circuits that have no golden file."""
import builtins
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from schwinger_be import blockenc
from schwinger_be import subroutines as sub
from schwinger_be.circuit import dumps, loads, count_resources
from schwinger_be.model import benchmark_params
from schwinger_be.simulate import simulate_statevector

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "uni_N6_eps1e-2.txt": lambda: sub.uni(6, 1e-2, short_circuit=False)[0],
    "ps2_N8_eps1e-2.txt": lambda: sub.p_s2(8, 1e-2)[0],
    "p2_N8_eps1e-4_delta1e-2.txt": lambda: sub.p2(8, 1e-4, 1e-2)[0],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_builder_matches_golden_bytes(name):
    assert dumps(CASES[name]()) == (GOLDEN / name).read_text()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_loads_and_counts(name):
    circ = loads((GOLDEN / name).read_text())
    built = CASES[name]()
    assert count_resources(circ).t_real == pytest.approx(
        count_resources(built).t_real)
    assert np.allclose(simulate_statevector(circ),
                       simulate_statevector(built))


def _digest_grid():
    """(name, circuit, report) over every builder: controlled and not, both
    ``short_circuit`` modes where they apply, the arithmetic kinds, the
    SELECTs, the gate-level fragment and the assembled encoding's blocks."""
    for n in (3, 4, 6):
        for c in (False, True):
            for sc in (False, True):
                yield f"uni({n},{c},{sc})", sub.uni(n, 1e-3, c, sc)
    for name, builder, sizes in (("p_s1", sub.p_s1, (8, 12)),
                                 ("p_s2", sub.p_s2, (8, 12)),
                                 ("p_s3", sub.p_s3, (8, 12))):
        for n in sizes:
            for c in (False, True):
                for sc in (False, True):
                    yield f"{name}({n},{c},{sc})", builder(n, 1e-3, c, sc)
    for n in (8, 12):
        for c in (False, True):
            yield f"p2({n},{c})", sub.p2(n, 1e-4, 1e-2, c)
        for sc in (False, True):
            yield f"p1({n},{sc})", sub.p1(benchmark_params(n), 1e-3, sc)
    for kind in ("ineq", "sub", "cswap", "una", "reflection"):
        yield f"arithmetic({kind})", sub.arithmetic(kind, 4)
    yield "arithmetic(cswap,True)", sub.arithmetic("cswap", 4, True)
    for kind, controls in (("xx", 3), ("yy", 3), ("z", 2), ("z2", 3),
                           ("z2", 4)):
        yield f"select({kind},{controls})", sub.select(kind, 8, controls)
    for n in (4, 6):
        yield f"fragment({n})", (
            blockenc.fragment_circuit(benchmark_params(n))[0], None)
    yield "assemble(8)", blockenc.assemble(benchmark_params(8), 1e-2)


#: sha256 of the grid's text; a change to any builder's gates or counts
#: changes it
BUILDER_DIGEST = (
    "b7a85b681edf372e58b08b42911c567ba6413e5f9064c13b098677fe2e0eb082")


def builder_digest() -> str:
    h = hashlib.sha256()
    for name, (circ, rep) in _digest_grid():
        # the assembled encoding is a list of (label, T cost) blocks
        text = f"{circ!r}\n" if isinstance(circ, list) else dumps(circ)
        h.update(f"== {name}\n{text}{rep!r}\n".encode())
    return h.hexdigest()


def test_builder_dumps_digest():
    assert builder_digest() == BUILDER_DIGEST


def compensated_sum(iterable, start=0):
    """The builtin ``sum`` of CPython 3.12 and later, in Python: ints add
    exactly, exact floats with Neumaier compensation, anything else by
    ``+``.  It gave the same result as CPython 3.13's ``sum`` on 40,000
    seeded lists of mixed ints, bools and floats."""
    it = iter(iterable)
    result = start
    if type(result) is int:
        for item in it:
            if type(item) in (int, bool):
                result += item
                continue
            result = result + item
            break
        else:
            return result
    if type(result) is float:
        total, comp = result, 0.0
        for item in it:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    comp += (total - t) + item
                else:
                    comp += (item - t) + total
                total = t
                continue
            if isinstance(item, int):
                total += float(item)
                continue
            if comp and math.isfinite(comp):
                total += comp
            result = total + item
            break
        else:
            return total + comp if comp and math.isfinite(comp) else total
    for item in it:
        result = result + item
    return result


def test_pins_hold_under_compensated_sum(capsys, monkeypatch):
    """The pinned verify artifacts and the builder digest do not depend on
    the builtin ``sum``, whose float rounding changed in CPython 3.12."""
    from test_cli import ARTIFACT_SHA256, run
    assert compensated_sum([0.1] * 10) == 1.0 != 0.9999999999999999
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    for argv in (("verify",), ("verify", "--N", "16", "--epsilon", "0")):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == \
            ARTIFACT_SHA256[argv], argv
    assert builder_digest() == BUILDER_DIGEST
