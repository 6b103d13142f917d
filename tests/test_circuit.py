import math

import numpy as np
import pytest

from schwinger_be.circuit import (ARITH, C_ROT, KINDS, SELECTS, Circuit,
                                  Gate, count_resources, dumps, gate_cost,
                                  loads, unary_iteration_cost)
from schwinger_be.simulate import (check_basis_permutation,
                                   simulate_statevector)


def test_rotation_cost_example():
    # single rotation at eps = 2^-10: 4*10 + C ~ 50.09, ceils to 51
    circ = Circuit()
    circ.add_register("q", 1)
    circ.add("RY", (0,), angle=0.3, eps=2 ** -10)
    rep = count_resources(circ)
    assert rep.t_real == pytest.approx(40 + C_ROT)
    assert rep.t_count == 51


def test_rotation_log_is_ceiled():
    # eps = 1e-2: log2(100) = 6.64 is charged as 7; no eps means 1e-10
    assert gate_cost(Gate("RZ", (0,), eps=1e-2)) == pytest.approx(28 + C_ROT)
    assert gate_cost(Gate("CRY", (0, 1), eps=1e-2)) == pytest.approx(
        2 * (28 + C_ROT))
    assert gate_cost(Gate("RY", (0,))) == pytest.approx(4 * 34 + C_ROT)


def test_every_kind_priced_by_rule():
    # one gate of each kind with the fields its builders set, and no price
    for kind in sorted(KINDS):
        if kind in SELECTS:  # 8 terms under 3 controls, 3 address bits
            g = Gate(kind, tuple(range(14)), splits=(3, 3), n_terms=8)
        elif kind in ARITH or kind in ("CSWAP", "CCSWAP"):
            g = Gate(kind, tuple(range(8)), width=3)
        else:
            g = Gate(kind, (0, 1, 2, 3), eps=1e-3)
        cost = gate_cost(g)
        assert math.isfinite(cost) and cost >= 0, kind
        if kind in SELECTS:
            assert cost == unary_iteration_cost(8, 3) == 4 * 7 + 4 * 2
    assert unary_iteration_cost(0, 3) == unary_iteration_cost(1, 0) == 0


def test_clifford_only_costs_nothing():
    circ = Circuit()
    circ.add_register("q", 3)
    for pair in ((0, 1), (1, 2), (0, 2)):
        circ.add("CNOT", pair)
    assert count_resources(circ).t_count == 0


def test_inequality_test_cost_and_ancillas():
    circ = Circuit()
    circ.add_register("a", 8)
    circ.add_register("b", 8)
    circ.add_register("out", 1)
    circ.add("INEQ", tuple(range(17)), splits=(8, 8), width=8,
             anc_reusable=7)
    rep = count_resources(circ)
    assert rep.t_count == 32
    assert rep.ancilla_reusable == 7


def test_inverse_arithmetic_is_free():
    circ = Circuit()
    circ.add_register("a", 4)
    circ.add_register("b", 4)
    circ.add_register("out", 1)
    circ.add("INEQ", tuple(range(9)), splits=(4, 4), width=4)
    circ.add("INEQ", tuple(range(9)), splits=(4, 4), width=4, inverse=True)
    assert count_resources(circ).t_count == 16


def test_t_count_additivity():
    def build(kinds):
        c = Circuit()
        c.add_register("q", 4)
        for k, q in kinds:
            c.add(k, q, eps=1e-3, angle=0.1)
        return c

    a = build([("RY", (0,)), ("TOFFOLI", (0, 1, 2))])
    b = build([("T", (3,)), ("CRZ", (1, 2))])
    ab = build([("RY", (0,)), ("TOFFOLI", (0, 1, 2)), ("T", (3,)),
                ("CRZ", (1, 2))])
    ra, rb, rab = (count_resources(x) for x in (a, b, ab))
    assert rab.t_real == pytest.approx(ra.t_real + rb.t_real)


def test_reflection_costs_clamp():
    assert gate_cost(Gate("REFLECT", (0, 1, 2, 3))) == 8
    assert gate_cost(Gate("REFLECT", (0, 1))) == 0


def test_simulation_count_separation():
    # changing the rotation budget changes the report, never the state
    def build(eps):
        circ = Circuit()
        circ.add_register("q", 2)
        circ.add("RY", (0,), angle=0.7, eps=eps)
        circ.add("CRZ", (0, 1), angle=0.3, eps=eps)
        return circ

    c1, c2 = build(1e-2), build(1e-8)
    r1, r2 = count_resources(c1), count_resources(c2)
    assert r2.t_real > r1.t_real
    assert np.array_equal(simulate_statevector(c1), simulate_statevector(c2))


def test_ancilla_peak_not_sum():
    circ = Circuit()
    circ.add_register("q", 1)
    circ.alloc_ancilla("a1", 3)
    circ.release("a1")
    circ.alloc_ancilla("a2", 2)
    circ.release("a2")
    rep = count_resources(circ)
    assert rep.ancilla_reusable == 3
    assert rep.total_qubits == 4


def test_released_slots_are_reused():
    circ = Circuit()
    circ.add_register("q", 1)
    circ.alloc_ancilla("a1", 3)
    circ.release("a1")
    circ.alloc_ancilla("a2", 3)
    assert circ.n_qubits == 4


def test_unreusable_never_released():
    circ = Circuit()
    circ.alloc_ancilla("junk", 2, reusable=False)
    with pytest.raises(ValueError):
        circ.release("junk")


def test_gate_validation():
    circ = Circuit()
    circ.add_register("q", 2)
    with pytest.raises(ValueError):
        circ.add("CNOT", (0, 0))
    with pytest.raises(ValueError):
        circ.add("CNOT", (0, 5))
    with pytest.raises(ValueError):
        circ.add("BOGUS", (0,))
    with pytest.raises(ValueError):
        circ.add("RY", (0,), angle=float("nan"))


def test_hadamard_statevector():
    circ = Circuit()
    circ.add_register("q", 1)
    circ.add("H", (0,))
    s = simulate_statevector(circ)
    assert np.allclose(s, [1 / math.sqrt(2)] * 2)


def test_reflection_statevector():
    circ = Circuit()
    circ.add_register("q", 2)
    circ.add("REFLECT", (0, 1))
    assert simulate_statevector(circ, 0b00)[0] == pytest.approx(1)
    assert simulate_statevector(circ, 0b01)[1] == pytest.approx(-1)


_RNG_KINDS = ["H", "S", "T", "X", "Y", "Z", "RY", "RZ", "CNOT", "CZ",
              "TOFFOLI", "CH", "CRY", "REFLECT"]


def _random_circuit(rng, n=12, depth=25):
    circ = Circuit()
    circ.add_register("q", n)
    for _ in range(depth):
        kind = _RNG_KINDS[rng.integers(len(_RNG_KINDS))]
        if kind in ("H", "S", "T", "X", "Y", "Z", "RY", "RZ"):
            q = (int(rng.integers(n)),)
        elif kind in ("CNOT", "CZ", "CH", "CRY"):
            q = tuple(rng.choice(n, size=2, replace=False).tolist())
        elif kind == "TOFFOLI":
            q = tuple(rng.choice(n, size=3, replace=False).tolist())
        else:
            q = tuple(sorted(rng.choice(n, size=3, replace=False).tolist()))
        circ.add(kind, q, angle=float(rng.uniform(0, 2 * math.pi)))
    return circ


def test_norm_preserved_random_circuits():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        circ = _random_circuit(rng)
        state = simulate_statevector(circ)
        assert abs(np.linalg.norm(state) - 1.0) < 1e-12


def test_simulation_limit():
    circ = Circuit()
    circ.add_register("q", 30)
    circ.add("H", (0,))
    with pytest.raises(ValueError):
        simulate_statevector(circ)


def test_serialization_roundtrip():
    circ = Circuit()
    circ.add_register("a", 3)
    circ.alloc_ancilla("junk", 2, reusable=False)
    circ.add("H", (0,))
    circ.add("RY", (1,), angle=0.25, eps=1e-3)
    circ.add("INEQ", (0, 1, 2, 3, 4), splits=(2, 2), width=2, inverse=True)
    circ.add("REFLECT", (0, 1, 2), pattern=0b101, width=4)
    circ.add("ADDC", (0, 1, 2), const=3, width=3)
    circ.add("RY", (2,), angle=-0.5, eps=1e-4, charged=False)
    text = dumps(circ)
    back = loads(text)
    assert dumps(back) == text
    assert [g.kind for g in back.gates] == [g.kind for g in circ.gates]
    r1, r2 = count_resources(circ), count_resources(back)
    assert r1.t_real == pytest.approx(r2.t_real)
    assert np.allclose(simulate_statevector(circ), simulate_statevector(back))


def test_serialization_roundtrip_every_field():
    circ = Circuit()
    circ.add_register("q", 4)
    circ.add("PHASE0", (0, 1, 2), angle=-0.5, eps=1e-3, width=5,
             splits=(1, 2), const=-3, pattern=0b101, n_terms=7,
             inverse=True, charged=False, ctrl_rot=True, anc_reusable=2,
             label="node")
    circ.add("H", (3,))
    text = dumps(circ)
    assert text.splitlines()[2] == (
        "gate PHASE0 0,1,2 angle=-0.5 eps=0.001 width=5 splits=1,2 const=-3 "
        "pattern=5 n_terms=7 inverse uncharged ctrl_rot anc_reusable=2 "
        "label=node")
    assert loads(text).gates == circ.gates


def test_loads_rejects_garbage():
    with pytest.raises(ValueError):
        loads("not a circuit\n")


@pytest.mark.parametrize("line", [
    "register",                  # no name
    "register q",                # no qubits
    "register q 0 reusable x",   # extra field
    "register q 0 spare",        # unknown ancilla kind
    "register q 0,0",            # repeated qubit
    "register q -1",             # negative qubit
    "gate",                      # no kind
    "gate H",                    # no qubits
    "gate H 0 bogus=1",          # unknown key
    "gate H 0 width",            # valued key written as a flag
    "gate H 0 inverse=1",        # flag written with a value
    "gate H 0 width=x",          # unparsable value
])
def test_loads_rejects_malformed_lines(line):
    with pytest.raises(ValueError):
        loads(f"# schwinger_be circuit v1\nregister r 0\n{line}\n")


def test_loads_rejects_repeated_register():
    text = "# schwinger_be circuit v1\nregister q 0,1\nregister q 2\n"
    with pytest.raises(ValueError, match="repeated"):
        loads(text)


@pytest.mark.parametrize("label", ["P1 dag", "a\tb", "node\n"])
def test_append_rejects_whitespace_label(label):
    # dumps writes a label as is, so loads could not read this one back
    circ = Circuit()
    circ.add_register("q", 1)
    with pytest.raises(ValueError, match="whitespace"):
        circ.add("H", (0,), label=label)
    assert not circ.gates
    circ.add("H", (0,), label="P1.dag")
    assert loads(dumps(circ)).gates == circ.gates


def test_permutation_checker_rejects_superposition():
    circ = Circuit()
    circ.add_register("q", 2)
    circ.add("H", (0,))
    with pytest.raises(ValueError):
        check_basis_permutation(circ, lambda v: {})
