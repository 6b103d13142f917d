"""Per-layer spans recorded from outside the package.

The tracer replaces public functions with timing wrappers in every module of
the package that binds them, so calls between modules are caught as well as
the benchmark's own calls; ``src/`` carries no tracing code. A span's self
time is its duration minus the time covered by the spans it encloses, which
includes the tracer's own bookkeeping. What is left of a pass's wall time
after all self times is that bookkeeping (``trace.unattributed_s``).
"""
from __future__ import annotations

import contextlib
from collections import defaultdict
from time import perf_counter

import schwinger_be
from schwinger_be import (ae, backend, blockenc, circuit, cli, estimator,
                          model, simulate, subroutines)
from schwinger_be.circuit import KINDS, Circuit

MODULES = (model, circuit, backend, simulate, subroutines, estimator,
           blockenc, ae, cli, schwinger_be)
LAYERS = ("simulate", "backend", "subroutines", "circuit", "estimator",
          "blockenc", "model", "ae", "cli", "bench")
SIM_KINDS = sorted(KINDS - {"COMPOSITE"})

#: span name -> (defining module, functions)
SPANS = {
    "simulate.statevector": (simulate, ("simulate_statevector",)),
    "simulate.project": (simulate, ("project_success", "register_weights")),
    "simulate.permcheck": (simulate, ("check_basis_permutation",)),
    "backend.apply_1q_ctrl": (backend, ("apply_1q_ctrl",)),
    "backend.apply_phase_pattern": (backend, ("apply_phase_pattern",)),
    "backend.apply_permutation": (backend, ("apply_permutation",)),
    "subroutines.build": (subroutines, ("uni", "arithmetic", "p_s1", "p_s2",
                                        "p_s3", "p1", "p2", "select")),
    "circuit.count_resources": (circuit, ("count_resources",)),
    "estimator.formula": (estimator, (
        "uni_cost", "ps1_cost", "ps2_cost", "ps3_cost", "p1_cost", "p2_cost",
        "select_cost", "reflection_cost", "block_encoding_cost")),
    "blockenc.verify": (blockenc, ("verify",)),
    "blockenc.semantic_block": (blockenc, ("semantic_block",)),
    "blockenc.h_mod_dense": (blockenc, ("h_mod_dense",)),
    "blockenc.assemble": (blockenc, ("assemble",)),
    "blockenc.fragment_error": (blockenc, ("fragment_error",)),
    "model.evolution": (model, ("exact_evolution",)),
    "model.vacuum_persistence": (model, ("vacuum_persistence",)),
    "model.particle_density": (model, ("particle_density",)),
    "ae.run": (ae, ("simulate_adaptive_ae",)),
    "cli.main": (cli, ("main",)),
}


def _arg(args, kwargs, i, name, default=None):
    return args[i] if len(args) > i else kwargs.get(name, default)


class Tracer:
    """Spans kept in memory: (layer, name, duration, self time, nested in a
    span of the same name)."""

    def __init__(self):
        self.spans: list[tuple[str, str, float, float, bool]] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [covered time, span name]
        self._seen_params: set = set()

    def span(self, layer: str, name: str, fn, *args, **kwargs):
        frame = [0.0, name]
        nested = bool(self._stack) and self._stack[-1][1] == name
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
        dur = t1 - t0
        self.spans.append((layer, name, dur, dur - frame[0], nested))
        if not nested:
            self._count(name, args, kwargs, out, dur)
        if self._stack:
            self._stack[-1][0] += perf_counter() - t0
        return out

    def _count(self, name, args, kwargs, out, dur) -> None:
        c = self.counts
        if name == "simulate.statevector":
            circ = _arg(args, kwargs, 0, "circuit")
            gates, dim = len(circ.gates), 1 << circ.n_qubits
            c["gates"] += gates
            c["amp_updates"] += gates * dim
            c["amps"] += dim
            c["nonzero"] += int((out != 0).sum())
        elif name == "simulate.permcheck":
            c["permcheck_indices"] += out.checked
        elif name == "subroutines.build":
            c["builds"] += 1
            c["gates_built"] += len(out[0].gates)
        elif name == "model.evolution":
            params, t = _arg(args, kwargs, 0, "params"), _arg(args, kwargs, 1, "t")
            if t != 0:
                c["gflop"] += 8 * (1 << params.n_sites) ** 3 / 1e9
                if params not in self._seen_params:
                    self._seen_params.add(params)
                    c["first_evolution_s"] += dur
        elif name == "ae.run":
            c["rounds"] += out.n_rounds
            c["shots"] += out.n_shots
            c["queries"] += out.total_queries
            c["successes"] += out.succeeded

    def wrapper(self, layer: str, name: str, fn):
        def traced(*args, **kwargs):
            return self.span(layer, name, fn, *args, **kwargs)
        return traced

    def inclusive(self, name: str) -> tuple[float, int]:
        """Total time and calls of outermost spans called ``name``."""
        tops = [d for _, n, d, _, nested in self.spans
                if n == name and not nested]
        return sum(tops), len(tops)

    def self_time(self, layer: str) -> float:
        return sum(s for lay, _, _, s, _ in self.spans if lay == layer)


@contextlib.contextmanager
def patched(replacements: dict):
    """Rebind functions in every package module that binds them.

    ``replacements`` maps an original function to its replacement."""
    by_id = {id(fn): new for fn, new in replacements.items()}
    saved = []
    for mod in MODULES:
        for attr, value in list(vars(mod).items()):
            if id(value) in by_id:
                saved.append((mod, attr, value))
                setattr(mod, attr, by_id[id(value)])
    try:
        yield
    finally:
        for mod, attr, value in saved:
            setattr(mod, attr, value)


def tracing(tracer: Tracer):
    repl = {}
    for name, (mod, fns) in SPANS.items():
        for fn in fns:
            orig = getattr(mod, fn)
            repl[orig] = tracer.wrapper(name.split(".")[0], name, orig)
    return patched(repl)


def replaying(kind_s: defaultdict):
    """Simulate every circuit gate by gate through the public
    ``simulate_statevector`` with ``input_state``, timing each gate by
    kind. Per-call set-up (state copy, index array) is paid once per gate;
    that excess is ``simulate.replay_overhead_s``."""
    orig = simulate.simulate_statevector

    def replay(circuit, input_state=None, limit=simulate.SIMULATION_LIMIT):
        state = input_state
        for g in circuit.gates:
            one = Circuit()
            one.add_register("q", circuit.n_qubits)
            one.append(g)
            t0 = perf_counter()
            state = orig(one, state, limit)
            kind_s[g.kind] += perf_counter() - t0
        return state if circuit.gates else orig(circuit, input_state, limit)

    return patched({orig: replay})


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float,
                  kind_s: dict, notes: dict) -> dict:
    """Every per-layer metric of one traced pass, by name."""
    c = tracer.counts
    m = {}
    sv_s, sv_calls = tracer.inclusive("simulate.statevector")
    m["simulate.statevector_s"] = sv_s
    m["simulate.statevector_calls"] = sv_calls
    m["simulate.gates_applied"] = c["gates"]
    m["simulate.amp_updates"] = c["amp_updates"]
    m["simulate.ns_per_amp_update"] = (sv_s / c["amp_updates"] * 1e9
                                       if c["amp_updates"] else 0.0)
    m["simulate.support_ratio"] = c["nonzero"] / c["amps"] if c["amps"] else 0.0
    m["simulate.project_s"] = tracer.inclusive("simulate.project")[0]
    for kind in SIM_KINDS:
        m[f"simulate.kind.{kind}_s"] = kind_s.get(kind, 0.0)
    m["simulate.replay_overhead_s"] = (sum(kind_s.values()) - sv_s
                                       if kind_s else 0.0)
    m["simulate.permcheck_s"] = tracer.inclusive("simulate.permcheck")[0]
    m["simulate.permcheck_indices"] = c["permcheck_indices"]
    for fn in ("apply_1q_ctrl", "apply_phase_pattern", "apply_permutation"):
        t, n = tracer.inclusive(f"backend.{fn}")
        m[f"backend.{fn}_s"] = t
        m[f"backend.{fn}_calls"] = n
    m["subroutines.build_s"] = tracer.inclusive("subroutines.build")[0]
    m["subroutines.builds"] = c["builds"]
    m["subroutines.gates_built"] = c["gates_built"]
    t, n = tracer.inclusive("circuit.count_resources")
    m["circuit.count_resources_s"] = t
    m["circuit.count_resources_calls"] = n
    t, n = tracer.inclusive("estimator.formula")
    m["estimator.formula_s"] = t
    m["estimator.formula_calls"] = n
    for fn in ("verify", "semantic_block", "h_mod_dense", "assemble",
               "fragment_error"):
        m[f"blockenc.{fn}_s"] = tracer.inclusive(f"blockenc.{fn}")[0]
    ev_s, ev_calls = tracer.inclusive("model.evolution")
    m["model.evolution_s"] = ev_s
    m["model.evolution_calls"] = ev_calls
    m["model.first_evolution_s"] = c["first_evolution_s"]
    m["model.vacuum_persistence_s"] = tracer.inclusive(
        "model.vacuum_persistence")[0]
    m["model.particle_density_s"] = tracer.inclusive(
        "model.particle_density")[0]
    m["model.evolution_gflop"] = c["gflop"]
    m["model.gflop_per_s"] = c["gflop"] / ev_s if ev_s else 0.0
    run_s, runs = tracer.inclusive("ae.run")
    m["ae.run_s"] = run_s
    m["ae.runs"] = runs
    m["ae.rounds"] = c["rounds"]
    m["ae.shots"] = c["shots"]
    m["ae.queries"] = c["queries"]
    m["ae.us_per_round"] = run_s / c["rounds"] * 1e6 if c["rounds"] else 0.0
    m["ae.success_ratio"] = c["successes"] / runs if runs else 0.0
    m["cli.main_s"] = tracer.inclusive("cli.main")[0]
    m["cli.artifact_bytes"] = notes.get("artifact_bytes", 0)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = tracer.self_time(layer)
    m["trace.overhead_s"] = traced_wall - untraced_wall
    m["trace.unattributed_s"] = traced_wall - sum(
        tracer.self_time(layer) for layer in LAYERS)
    return m
