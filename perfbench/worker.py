"""One workload in one fresh process; started by run.py, not by hand.

Prints ``ready`` once set-up is done (package imported, inputs generated,
kernels warmed up), then runs passes back to back for about ``--seconds``
and prints one JSON line of raw results. A closed loop: one caller,
each operation issued after the previous one returned.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import sys
import traceback
from collections import defaultdict
from time import perf_counter


def _op_timer(op_attr, record: list):
    """Wrap a module attribute so each call's latency lands in ``record``."""
    from tracing import patched
    mod, attr = op_attr
    orig = getattr(mod, attr)

    def timed(*args, **kwargs):
        t0 = perf_counter()
        try:
            return orig(*args, **kwargs)
        finally:
            record.append(perf_counter() - t0)

    return patched({orig: timed})


#: a step marked ``repeat`` is run again, back to back, while its runs in
#: this pass took less than this in total, to sample short latencies
REPEAT_BUDGET_S = 0.1
MAX_RUNS = 8


def run_pass(steps, repeat=True) -> dict:
    """Run one pass; returns its wall time, the latencies of each of its
    operations (a list per operation) and its failures."""
    samples: list[list[float]] = []
    attempted = failed = 0
    t0 = perf_counter()
    for step in steps:
        record: list[float] = []
        ctx = (_op_timer(step.op_attr, record) if step.op_attr
               else contextlib.nullcontext())
        runs: list[float] = []
        while True:
            with ctx:
                s0 = perf_counter()
                try:
                    out = step.run()
                    ok = bool(step.check(out))
                except Exception:  # count as failed, keep measuring
                    traceback.print_exc()
                    ok = False
                s1 = perf_counter()
            n_ops = max(len(record), 1) if step.op_attr else 1
            attempted += n_ops
            if not ok:
                failed += n_ops
                print(f"check failed: {step.label}", file=sys.stderr)
            runs.append(s1 - s0)
            if (not (repeat and step.repeat) or len(runs) >= MAX_RUNS
                    or sum(runs) >= REPEAT_BUDGET_S):
                break
        samples += [[t] for t in record] if step.op_attr else [runs]
    return {"wall": perf_counter() - t0, "samples": samples,
            "attempted": attempted, "failed": failed}


def _blas_threads() -> int:
    """OpenBLAS thread count of the numpy in use, or -1 if not found."""
    import ctypes
    import glob
    import numpy as np
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir,
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return -1


def environment(seed: int) -> dict:
    import numpy as np
    import scipy
    from schwinger_be import backend
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "numba": backend.USE_NUMBA,
            "blas_threads": _blas_threads(), "nproc": os.cpu_count(),
            "seed": seed}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    import schwinger_be
    import workloads
    src = os.path.realpath(args.src)
    if not os.path.realpath(schwinger_be.__file__).startswith(src + os.sep):
        print(f"schwinger_be imported from {schwinger_be.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    wl = workloads.build(args.workload, args.seed, args.workdir)
    workloads.warm_up()
    print("ready", flush=True)

    passes = []
    layers = None
    if not args.trace:
        # another pass only if one more of average length fits the time
        start = perf_counter()
        while not passes or (
                (perf_counter() - start) * (len(passes) + 1) / len(passes)
                <= args.seconds):
            steps = wl.make_pass(len(passes))
            passes.append(run_pass(steps))
    else:
        import tracing
        # no repeats: the traced and untraced passes must do the same work
        passes.append(run_pass(wl.make_pass(0), repeat=False))
        tracer = tracing.Tracer()
        steps = wl.make_pass(1)
        with tracing.tracing(tracer):
            traced = tracer.span("bench", "bench.pass", run_pass, steps,
                                 repeat=False)
        passes.append(traced)
        kind_s: defaultdict = defaultdict(float)
        if tracer.inclusive("simulate.statevector")[1]:
            steps = wl.make_pass(1)
            with tracing.replaying(kind_s):
                passes.append(run_pass(steps, repeat=False))
        layers = tracing.layer_metrics(tracer, traced["wall"],
                                       passes[0]["wall"], kind_s, wl.notes)
        # self times must add up to the traced wall time, up to the
        # tracer's own cost
        if (abs(layers["trace.unattributed_s"])
                > abs(layers["trace.overhead_s"]) + 0.1 * traced["wall"]):
            print("per-layer self times do not add up to the traced wall "
                  "time", file=sys.stderr)
            traced["failed"] += 1

    env = environment(args.seed)
    env.update({k: v for k, v in wl.notes.items() if k != "artifact_bytes"})
    # operation k does the same work in every pass; its latency is the
    # fastest of all its runs, since interruptions only ever add time. The
    # time a pass spends outside operations (glue and checks) is likewise
    # the least over passes.
    result = {
        "walls": [p["wall"] for p in passes],
        "ops_per_pass": [len(p["samples"]) for p in passes],
        "op_best": [min(min(runs) for runs in op)
                    for op in zip(*(p["samples"] for p in passes))],
        "between_ops": min(p["wall"] - sum(map(sum, p["samples"]))
                           for p in passes),
        "op_runs": sum(len(runs) for p in passes for runs in p["samples"]),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "env": env,
        "layers": layers,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
