"""The benchmark's four workloads: seeded inputs, operations and output checks.

A workload is built once per process by ``build(name, seed, workdir)``;
that is set-up. ``make_pass(i)`` then returns the steps of pass
``i`` and runs untimed before the pass. Every pass issues the same
operations in the same order. Only ``dense-oracle`` changes its inputs from
pass to pass, and the work of each of its operations stays the same.

A step is one call into the package and counts as one operation. A step
with ``op_attr`` is the exception: its operations are the calls to that
module attribute made while it runs (one AE run each). ``check`` turns the
step's output into pass or fail; a failed step counts all its operations as
failed. A step with ``repeat`` has no state and no cache to carry between
runs, so the worker may run it again, back to back, for more latency
samples.

Inputs depend only on the seed. The package receives nothing else.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
from scipy.linalg import expm

from schwinger_be import ae, blockenc, circuit, cli, estimator, model
from schwinger_be import simulate, subroutines
from schwinger_be.circuit import Circuit


@dataclass
class Step:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    op_attr: tuple | None = None  # (module, name): each call is one operation
    repeat: bool = False  # may run again back to back to sample its latency


@dataclass
class Workload:
    make_pass: Callable[[int], list[Step]]
    notes: dict


def _rng(seed: int, name: str) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "little")
    return np.random.default_rng([seed, tag])


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(10 ** rng.uniform(math.log10(lo), math.log10(hi)))


# -- builder-verify -------------------------------------------------------------


def _profile_deviation(circ: Circuit, target) -> float:
    """Largest deviation of the success-branch output profile from target."""
    psi = simulate.project_success(simulate.simulate_statevector(circ), circ)
    w = simulate.register_weights(psi, circ, circ.metadata["output"])
    t = np.zeros_like(w)
    t[:len(target)] = target
    t /= t.sum()
    return float(np.max(np.abs(w / w.sum() - t)))


def _state_step(label, build, target) -> Step:
    return Step(label, lambda: _profile_deviation(build()[0], target),
                lambda dev: dev <= 1e-8, repeat=True)


def _perm_check(kind: str, s: int, ref):
    circ, _ = subroutines.arithmetic(kind, s)
    return (simulate.check_basis_permutation(circ, ref),
            1 << circ.n_qubits)


def _p1_deviation(eps: float) -> float:
    circ, _ = subroutines.p1(model.benchmark_params(8), eps)
    psi = simulate.simulate_statevector(circ)
    w = simulate.register_weights(psi, circ, "label")
    wts = circ.metadata["weights"]
    alpha = sum(wts.values())
    return max(abs(w[lab] - wts[key] / alpha)
               for key, lab in subroutines.BRANCH_LABELS.items())


def _p2_overlap(eps: float, delta: float, val: int) -> float:
    """|<target|P_S psi>|^2 for p2(8) on input index ``val``."""
    circ, _ = subroutines.p2(8, eps, delta)
    nq = circ.n_qubits
    regs = circ.registers
    base = simulate._place(nq, regs["idx"].qubits, val)
    proj = simulate.project_success(simulate.simulate_statevector(circ, base),
                                    circ)
    base |= simulate._place(nq, regs["p2succ"].qubits, 1)
    target = np.zeros(1 << nq, dtype=complex)
    for i in range(val):
        target[base | simulate._place(nq, regs["out"].qubits, i)] = \
            1 / math.sqrt(val)
    return abs(np.vdot(target, proj)) ** 2


def _arith_refs(s: int) -> dict:
    mod = 1 << s
    return {
        "ineq": lambda v: {"out": v["out"] ^ (v["a"] <= v["b"])},
        "sub": lambda v: {"a": v["a"], "b": (v["a"] - v["b"]) % mod},
        "una": lambda v: {"z": v["z"] ^ ((1 << v["a"].bit_length()) - 1)},
        "cswap": lambda v: ({"a": v["b"], "b": v["a"]} if v["ctrl"] == 1
                            else {"a": v["a"], "b": v["b"]}),
    }


def _general(builder: str, cost: str):
    return lambda n, e, c: (
        getattr(subroutines, builder)(n, e, c, short_circuit=False)[1],
        getattr(estimator, cost)(n, e, c))


TALLIES = {
    "uni": _general("uni", "uni_cost"),
    "p_s1": _general("p_s1", "ps1_cost"),
    "p_s2": _general("p_s2", "ps2_cost"),
    "p_s3": _general("p_s3", "ps3_cost"),
    "p2": lambda n, e, c: (subroutines.p2(n, e, 1e-3, c)[1],
                           estimator.p2_cost(n, e, 1e-3, c)),
    "p1": lambda n, e, c: (subroutines.p1(model.benchmark_params(n), e,
                                          short_circuit=False)[1],
                           estimator.p1_cost(n, e)),
}


def _tally_steps(eps_grid) -> list[Step]:
    """Circuit tally against closed form, on the criterion-4 grid."""
    return [Step(f"tally.{name}({n},{eps:.3g},{ctl})",
                 lambda f=fn, n=n, e=eps, c=ctl: f(n, e, c),
                 lambda out: abs(out[0].t_real - out[1]) < 1e-9, repeat=True)
            for n, eps, ctl in itertools.product((12, 20, 24), eps_grid,
                                                 (False, True))
            for name, fn in TALLIES.items()
            if not (ctl and name == "p1")]  # p1 has no controlled form


def _builder_verify(seed: int) -> Workload:
    rng = _rng(seed, "builder-verify")

    def eps_small() -> float:
        return _log_uniform(rng, 1e-10, 1e-6)

    steps: list[Step] = []
    for n in (3, 5, 6, 7, 12, 15, 16):
        steps.append(_state_step(
            f"uni({n})", lambda n=n, e=eps_small(): subroutines.uni(n, e),
            np.ones(n)))
    for n in (8, 16):
        even = np.array([j if j % 2 == 0 else 0 for j in range(n)], float)
        odd = np.array([j if j % 2 == 1 else 0 for j in range(n)], float)
        for name, prof in (("p_s1", even), ("p_s2", odd),
                           ("p_s3", np.arange(float(n)) ** 2)):
            steps.append(_state_step(
                f"{name}({n})",
                lambda b=getattr(subroutines, name), n=n, e=eps_small(): b(n, e),
                prof))
    steps.append(_state_step(
        "p_s3(12,general)",
        lambda e=eps_small(): subroutines.p_s3(12, e, short_circuit=False),
        np.arange(12.0) ** 2))
    eps_p1 = _log_uniform(rng, 1e-4, 1e-2)
    steps.append(Step("p1(8)", lambda: _p1_deviation(eps_p1),
                      lambda dev: dev <= 1e-8, repeat=True))
    eps_p2, delta = _log_uniform(rng, 1e-8, 1e-4), 1e-3
    for val in sorted(rng.choice(np.arange(1, 8), size=4, replace=False)):
        steps.append(Step(f"p2(8)[{val}]",
                          lambda v=int(val): _p2_overlap(eps_p2, delta, v),
                          lambda ov: ov >= 1 - delta, repeat=True))
    steps.append(Step("fragment_error(4)",
                      lambda: blockenc.fragment_error(
                          model.benchmark_params(4)),
                      lambda err: err <= 1e-10, repeat=True))
    for s in range(2, 9):
        for kind, ref in _arith_refs(s).items():
            steps.append(Step(
                f"perm.{kind}({s})",
                lambda kind=kind, s=s, ref=ref: _perm_check(kind, s, ref),
                lambda out: out[0].ok and out[0].checked == out[1],
                repeat=True))
    steps += _tally_steps(sorted((_log_uniform(rng, 1e-5, 1e-3),
                                  _log_uniform(rng, 1e-3, 1e-1))))
    # a seeded order spreads the many small operations over the whole pass,
    # so their latencies sample the machine's speed throughout it
    steps = [steps[i] for i in rng.permutation(len(steps))]
    return Workload(lambda i: steps, {})


# -- dense-sim ------------------------------------------------------------------

#: The gate mix of benchmarks/bench_statevector.py, grouped in three fixed
#: triples of similar cost so that every operation does comparable work.
MIX_TRIPLES = (("ADDC", "X", "CNOT"), ("RY", "TOFFOLI", "REFLECT"),
               ("H", "RZ", "CRY"))
DENSE_QUBITS = 20
DENSE_LAYERS = 15


def _mix_gate(circ: Circuit, kind: str, n: int, rng) -> None:
    """One gate of the mix, with operands drawn as bench_statevector does."""
    if kind in ("H", "RY", "RZ", "X"):
        circ.add(kind, (int(rng.integers(n)),),
                 angle=float(rng.uniform(0, 2 * math.pi)))
    elif kind in ("CNOT", "CRY"):
        q = tuple(rng.choice(n, size=2, replace=False).tolist())
        circ.add(kind, q, angle=float(rng.uniform(0, 2 * math.pi)))
    elif kind == "TOFFOLI":
        circ.add(kind, tuple(rng.choice(n, size=3, replace=False).tolist()))
    elif kind == "REFLECT":
        circ.add(kind, tuple(sorted(
            rng.choice(n, size=4, replace=False).tolist())))
    else:
        qs = tuple(sorted(rng.choice(n, size=6, replace=False).tolist()))
        circ.add("ADDC", qs, const=int(rng.integers(1, 40)), width=6)


def dense_segments(n: int, layers: int, rng) -> list[Circuit]:
    """A random circuit cut into segments: a rotation on every qubit, then
    ``layers`` layers of the mix, each as three one-triple segments."""
    def blank():
        c = Circuit()
        c.add_register("q", n)
        return c

    opening = blank()
    for q in range(n):
        opening.add("RY", (q,), angle=float(rng.uniform(0.1, math.pi - 0.1)))
    segments = [opening]
    for _ in range(layers):
        for t in rng.permutation(len(MIX_TRIPLES)):
            seg = blank()
            for kind in rng.permutation(MIX_TRIPLES[t]):
                _mix_gate(seg, str(kind), n, rng)
            segments.append(seg)
    return segments


def _dense_pass(segments: list[Circuit]) -> list[Step]:
    held = {}

    def run(seg, first):
        held["state"] = simulate.simulate_statevector(
            seg, None if first else held["state"], limit=DENSE_QUBITS)
        return held["state"]

    return [Step(f"segment[{i}]", lambda s=seg, f=(i == 0): run(s, f),
                 lambda psi: abs(float(np.vdot(psi, psi).real) - 1) <= 1e-9)
            for i, seg in enumerate(segments)]


def _dense_sim(seed: int) -> Workload:
    segments = dense_segments(DENSE_QUBITS, DENSE_LAYERS,
                              _rng(seed, "dense-sim"))
    return Workload(lambda i: _dense_pass(segments), {})


# -- ae-grid --------------------------------------------------------------------

AE_EPS, AE_DELTA, AE_RUNS, AE_OMEGAS = 0.005, 0.05, 10, 9


def _ae_check(text: bytes, notes: dict) -> bool:
    """Criterion-6 statistics on the artifact's summary line; every pass
    runs the same seeds, so every artifact must be byte-identical."""
    digest = hashlib.sha256(text).hexdigest()
    first = notes.setdefault("ae_artifact_sha256", digest)
    notes["artifact_bytes"] = len(text)
    lines = text.decode().splitlines()
    summary = json.loads(lines[-1])["summary"]
    n_total = AE_OMEGAS * AE_RUNS
    fail = sum(v["failure_rate"] for v in summary.values()) / AE_OMEGAS
    slack = 3 * math.sqrt(AE_DELTA * (1 - AE_DELTA) / n_total)
    return (digest == first and len(lines) == n_total + 1
            and len(summary) == AE_OMEGAS and fail <= AE_DELTA + slack
            and all(1000 <= v["mean_total_queries"] <= 4000
                    for v in summary.values()))


def _ae_grid(seed: int, workdir: str) -> Workload:
    base = int(_rng(seed, "ae-grid").integers(0, 2 ** 31 - 10 ** 6))
    path = os.path.join(workdir, "ae-artifact.jsonl")
    notes: dict = {}

    def run():
        code = cli.main(["ae", "--epsilon", str(AE_EPS), "--delta",
                         str(AE_DELTA), "--runs", str(AE_RUNS), "--seed",
                         str(base), "--output", path])
        with open(path, "rb") as f:
            text = f.read()
        os.remove(path)
        return code, text

    step = Step("cli.ae", run,
                lambda out: out[0] == 0 and _ae_check(out[1], notes),
                op_attr=(ae, "simulate_adaptive_ae"))
    return Workload(lambda i: [step], notes)


# -- dense-oracle ---------------------------------------------------------------

#: N=8 (d=256): at N=10 a pass takes 9 s with one BLAS thread, too long to
#: give each operation enough runs to be measured steadily
ORACLE_N = 8
ORACLE_T = np.linspace(0.0, 4.0, 21)


def oracle_reference(params: model.ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """G(t) and nu(t) on ORACLE_T by scipy.linalg.expm of one time step,
    applied repeatedly to the vacuum; independent of the package's
    eigendecomposition path."""
    n = params.n_sites
    h = model.to_dense(model.build_hamiltonian(params),
                       include_shift=True).matrix
    step = expm(-1j * h * (ORACLE_T[1] - ORACLE_T[0]))
    v = model.vacuum_index(n)
    psi = np.zeros(1 << n, dtype=complex)
    psi[v] = 1.0
    idx = np.arange(1 << n)
    sign = np.array([(-1) ** s for s in range(n)])
    zdiag = 1 - 2 * ((idx[:, None] >> (n - 1 - np.arange(n))) & 1)
    gs, nus = [], []
    for k in range(len(ORACLE_T)):
        if k:
            psi = step @ psi
        gs.append(psi[v])
        nus.append(float(np.sum(sign * ((np.abs(psi) ** 2) @ zdiag) + 1))
                   / (2 * n))
    return np.array(gs), np.array(nus)


def _oracle_pass(params: model.ModelParams) -> list[Step]:
    g_ref, nu_ref = oracle_reference(params)

    def point(t):
        return (model.vacuum_persistence(params, t),
                model.particle_density(params, t))

    steps = [Step(f"t[{k}]", lambda t=float(t): point(t),
                  lambda out, k=k: (abs(out[0] - g_ref[k]) <= 1e-8
                                    and abs(out[1] - nu_ref[k]) <= 1e-8))
             for k, t in enumerate(ORACLE_T)]
    for eps in (0.0, 1e-2):
        steps.append(Step(f"verify({eps})",
                          lambda e=eps: blockenc.verify(params, e),
                          lambda rec: rec.passed))
    return steps


def _oracle_point(seed: int, i: int) -> model.ModelParams:
    rng = _rng(seed, f"dense-oracle/{i}")
    return model.ModelParams(n_sites=ORACLE_N, spacing=0.2,
                             mass=float(rng.uniform(0.05, 0.5)), coupling=1.0,
                             theta=float(rng.uniform(0, 2 * math.pi)))


def _dense_oracle(seed: int) -> Workload:
    # a fresh (mass, theta) per pass: every pass pays its own
    # eigendecomposition, as each CLI dynamics call does
    return Workload(lambda i: _oracle_pass(_oracle_point(seed, i)), {})


def build(name: str, seed: int, workdir: str) -> Workload:
    if name == "ae-grid":
        return _ae_grid(seed, workdir)
    return {"builder-verify": _builder_verify, "dense-sim": _dense_sim,
            "dense-oracle": _dense_oracle}[name](seed)


def warm_up() -> None:
    """Touch every kernel once (compiles them when numba is present)."""
    c = Circuit()
    c.add_register("q", 4)
    for kind, qs in (("H", (0,)), ("CRY", (0, 1)), ("TOFFOLI", (0, 1, 2)),
                     ("REFLECT", (0, 1, 2))):
        c.add(kind, qs, angle=0.3)
    c.add("ADDC", (0, 1, 2, 3), const=3, width=4)
    simulate.simulate_statevector(c)
    circuit.count_resources(c)
    model.vacuum_persistence(model.benchmark_params(4), 0.5)
