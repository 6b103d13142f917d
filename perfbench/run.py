#!/usr/bin/env python3
"""Benchmark of the schwinger-be package: four workloads, end-to-end
metrics with tracing off, per-layer metrics from a separate traced run.

    python3 perfbench/run.py --workload dense-sim --seed 1 --seconds 20
    python3 perfbench/run.py --workload all --seed 1 --seconds 20
    python3 perfbench/run.py --workload ae-grid --seed 1 --seconds 20 --trace 1

Each workload runs in a fresh worker process as a closed loop (one caller,
one BLAS thread), three processes one after another. Set-up time is
measured from process start to ``ready`` and reported as the median over
the processes. Passes run back to back for about ``--seconds`` in all;
every pass issues the same operations, and an operation's latency is its
fastest run. The last line of standard output is one JSON object: correct,
attempted, failed and the metrics named in BENCHMARK.json. Workloads,
metrics and what each per-layer metric should move are described in
perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: worker processes per run, one after the other. A process can run slower
#: than the next for its whole life (memory layout, which core, a slow
#: spell of the host), so each operation takes its fastest run over all.
WORKERS = 3
DEADLINE_S = 170.0
#: one BLAS thread: on a shared 2-core host a second thread waits on a
#: contended core and makes BLAS-bound timings swing by a third
ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1", "PYTHONPATH": str(SRC)}


class BenchError(Exception):
    pass


def _read_line(proc, deadline: float) -> str:
    remaining = deadline - perf_counter()
    ready, _, _ = select.select([proc.stdout], [], [], max(remaining, 0))
    if not ready:
        raise BenchError("worker timed out")
    return proc.stdout.readline()


def _worker(workload: str, seed: int, seconds: float, workdir: Path,
            deadline: float, *, trace=False):
    """Run a worker; returns (set-up seconds, raw result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--workdir", str(workdir), "--src", str(SRC)]
    cmd += ["--trace"] * trace
    env = dict(os.environ, **ENV)
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT)
    try:
        if _read_line(proc, deadline).strip() != "ready":
            raise BenchError(f"{workload} worker failed during set-up")
        setup_s = perf_counter() - t0
        out, _ = proc.communicate(timeout=max(deadline - perf_counter(), 0))
    except subprocess.TimeoutExpired:
        raise BenchError("worker timed out") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with {proc.returncode}")
    return setup_s, json.loads(out.strip().splitlines()[-1])


def import_times(deadline: float) -> dict:
    """Cumulative import time of each package module, from -X importtime in
    a fresh process (numpy imported first, so it is not charged to them)."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c",
         "import numpy, schwinger_be, schwinger_be.cli"],
        capture_output=True, text=True, cwd=ROOT,
        env=dict(os.environ, **ENV),
        timeout=max(deadline - perf_counter(), 1))
    if proc.returncode != 0:
        raise BenchError("importing schwinger_be failed")
    out = {}
    for line in proc.stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2].startswith("schwinger_be"):
            mod = parts[2].rpartition(".")[2]
            out[f"{mod}.import_s"] = int(parts[1]) / 1e6
    return out


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten operations beyond it."""
    return max(50, math.floor(100 * (1 - 10 / n)))


def merge(raws: list) -> dict:
    """One raw result from those of several workers of one workload."""
    if len({n for r in raws for n in r["ops_per_pass"]}) != 1:
        raise BenchError("passes issued different numbers of operations")
    out = {
        "walls": [w for r in raws for w in r["walls"]],
        "op_best": [min(op) for op in zip(*(r["op_best"] for r in raws))],
        "between_ops": min(r["between_ops"] for r in raws),
        "op_runs": sum(r["op_runs"] for r in raws),
        "attempted": sum(r["attempted"] for r in raws),
        "failed": sum(r["failed"] for r in raws),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in raws),
        "env": raws[0]["env"],
    }
    # every worker runs the same seeded inputs, so it must give the same
    # ae-grid artifact
    digests = {r["env"].get("ae_artifact_sha256") for r in raws}
    if len(digests) != 1:
        print("workers wrote different ae-grid artifacts", file=sys.stderr)
        out["failed"] += 1
    return out


def end_to_end(setups: list, raw: dict) -> tuple[dict, dict]:
    lat = raw["op_best"]
    q = tail_percentile(len(lat))
    pct = statistics.quantiles(lat, n=100, method="inclusive")
    # one pass with the host's interruptions taken out: every operation at
    # its fastest run, plus the least time a pass spent between operations
    wall = sum(lat) + raw["between_ops"]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "ops_per_s": len(lat) / wall,
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    # printed, but not in BENCHMARK.json: on builder-verify they follow the
    # host's slow spells too closely to bound (see perfbench/README.md)
    info = {"op_p50_ms": pct[49] * 1e3, "op_tail_ms": pct[q - 1] * 1e3,
            "tail_percentile": q, "ops": len(lat),
            "passes": len(raw["walls"]), "workers": len(setups),
            "op_runs": raw["op_runs"],
            "pass_median_s": statistics.median(raw["walls"]),
            "error_rate": raw["failed"] / raw["attempted"]}
    return values, info


def run_workload(name: str, seed: int, seconds: int, trace: bool,
                 deadline: float) -> tuple[dict, dict, dict]:
    """Returns (metric values, run info, raw result) of one workload."""
    workdir = ROOT / ".perfbench-work"
    workdir.mkdir(exist_ok=True)
    try:
        if trace:
            _, raw = _worker(name, seed, seconds, workdir, deadline,
                             trace=True)
            values = dict(raw["layers"])
            values.update(import_times(deadline))
            return values, {}, raw
        runs = [_worker(name, seed, seconds / WORKERS, workdir, deadline)
                for _ in range(WORKERS)]
        raw = merge([r for _, r in runs])
        values, info = end_to_end([s for s, _ in runs], raw)
        return values, info, raw
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _metrics(values: dict, spec_metrics: list, name: str) -> dict:
    want = {m["name"]: m["unit"] for m in spec_metrics}
    if set(values) != set(want):
        raise BenchError(f"{name}: metrics differ from BENCHMARK.json: "
                         f"missing {sorted(set(want) - set(values))}, "
                         f"extra {sorted(set(values) - set(want))}")
    return {k: {"value": values[k], "unit": want[k]} for k in want}


def _summary(name: str, metrics: dict, info: dict, raw: dict) -> None:
    print(f"== {name}: {raw['attempted']} operations, {raw['failed']} failed")
    for key, m in metrics.items():
        print(f"  {key:34s} {m['value']:14.6g} {m['unit']}")
    if info:
        for key, unit in (("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
                          ("error_rate", "ratio")):
            print(f"  {key:34s} {info[key]:14.6g} {unit}")
        print(f"  op_tail_ms is p{info['tail_percentile']} of {info['ops']} "
              f"operations, each the fastest of its runs ({info['op_runs']} "
              f"runs in {info['passes']} passes of {info['workers']} "
              f"processes; median pass {info['pass_median_s']:.4g} s); "
              f"setup_s is the median over the processes")
    print("  env " + json.dumps(raw["env"], sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = perf_counter() + DEADLINE_S
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if not (SRC / "schwinger_be" / "__init__.py").is_file():
            raise BenchError(f"no package source under {SRC}")
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names + ["all"]:
            raise BenchError(f"unknown workload {args.workload!r}")
        if not 1 <= args.seconds <= 600:
            raise BenchError("--seconds must be in 1..600")
        kind = "per_layer" if args.trace else "end_to_end"
        if args.workload != "all":
            values, info, raw = run_workload(args.workload, args.seed,
                                             args.seconds, bool(args.trace),
                                             deadline)
            metrics = _metrics(values, spec[kind], args.workload)
            _summary(args.workload, metrics, info, raw)
            print(json.dumps({"correct": raw["failed"] == 0,
                              "attempted": raw["attempted"],
                              "failed": raw["failed"], "metrics": metrics}))
            return 0
        results = {}
        for name in names:
            values, info, raw = run_workload(name, args.seed, args.seconds,
                                             bool(args.trace),
                                             perf_counter() + DEADLINE_S)
            metrics = _metrics(values, spec[kind], name)
            _summary(name, metrics, info, raw)
            results[name] = {"correct": raw["failed"] == 0,
                             "attempted": raw["attempted"],
                             "failed": raw["failed"], "metrics": metrics}
        print(json.dumps(results))
        return 0
    except (BenchError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
