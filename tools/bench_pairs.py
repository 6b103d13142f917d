#!/usr/bin/env python3
"""Run perfbench on two checkouts in alternating pairs and write BENCH_<name>.json.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload dense-oracle --other builder-verify dense-sim \\
        --name verify_diagonal --claim "dense-oracle wall_s improves"

Pair i runs ``perfbench/run.py --workload W --seed i --seconds S`` once in
each checkout, S being the ``run_seconds`` of the change's BENCHMARK.json.
The parent runs first in odd pairs and the change first in even pairs, so
that a slow spell of the host falls on both sides alike. Each checkout runs
its own perfbench and source. For every end-to-end metric of the change's
BENCHMARK.json the file records both sides' runs, medians and
quartiles (``statistics.quantiles(method='inclusive')``) and the number of
pairs the change wins. The claimed workload is written under its own name,
the others under ``other_workloads``; every workload runs ``--pairs``
pairs, at least ten. After its pairs, each workload runs once more per
side with ``--trace 1 --seed 1``, which replays every gate through the
simulator one at a time, and the file records under ``traced``, per side,
whether that run was correct and its ``trace.unattributed_s`` and
``trace.overhead_s``, which the worker's self-time check compares. Every
incorrect run, traced or not, is listed under its workload's
``incorrect_runs`` with its side, seed and trace flag, each distinct
``check failed:`` line of its standard error with the number of times it
was printed, and the last 20 lines of that standard error, which hold the
worker's other messages (such as the traced self-time check) and any
traceback. The exit status is 1, after the file is written, if any run,
traced or not, was incorrect.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

SIDES = ("parent", "change")
STDERR_TAIL = 20


def run_once(tree: Path, workload: str, seed: int, seconds: int,
             trace: int = 0) -> dict:
    """The summary line of one perfbench run in ``tree``; an incorrect
    run's summary also carries what its standard error says about it."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench failed in {tree} ({workload}, seed "
                         f"{seed}):\n{proc.stderr}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    if not summary["correct"]:
        lines = proc.stderr.splitlines()
        summary["stderr"] = {
            "check_failed": dict(Counter(
                line for line in lines if line.startswith("check failed:"))),
            "tail": lines[-STDERR_TAIL:]}
    return summary


def incorrect(side: str, seed: int, trace: int, run: dict) -> dict:
    return {"side": side, "seed": seed, "trace": trace, **run["stderr"]}


def stats(values: list) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4,
                                              method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": round(median, 6), "q1": round(q1, 6),
            "q3": round(q3, 6), "iqr": round(q3 - q1, 6),
            "iqr_over_median": round((q3 - q1) / median, 4) if median else 0}


def run_pairs(trees: dict, workload: str, pairs: int, seconds: int,
              spec: list) -> dict:
    results = {side: [] for side in SIDES}
    bad = []
    for seed in range(1, pairs + 1):
        order = SIDES if seed % 2 else SIDES[::-1]
        for side in order:
            print(f"{workload} pair {seed}/{pairs}: {side}", file=sys.stderr)
            run = run_once(trees[side], workload, seed, seconds)
            results[side].append(run)
            if not run["correct"]:
                bad.append(incorrect(side, seed, 0, run))
    metrics = {}
    for m in spec:
        runs = {side: [round(r["metrics"][m["name"]]["value"], 6)
                       for r in results[side]] for side in SIDES}
        sign = 1 if m["better"] == "lower" else -1
        wins = sum(sign * c < sign * p
                   for p, c in zip(runs["parent"], runs["change"]))
        metrics[m["name"]] = {"unit": m["unit"], "better": m["better"],
                              **{side: stats(runs[side]) for side in SIDES},
                              "change_wins_pairs": wins, "runs": runs}
    traced = {}
    for side in SIDES:
        print(f"{workload} traced: {side}", file=sys.stderr)
        run = run_once(trees[side], workload, 1, seconds, trace=1)
        traced[side] = {"correct": run["correct"], **{
            m: run["metrics"][m]["value"]
            for m in ("trace.unattributed_s", "trace.overhead_s")}}
        if not run["correct"]:
            bad.append(incorrect(side, 1, 1, run))
    return {
        "pairs": pairs, "seeds": list(range(1, pairs + 1)),
        "correct": all(r["correct"] for side in SIDES
                       for r in results[side]),
        "traced": traced,
        "incorrect_runs": bad,
        "failed_operations": {side: sum(r["failed"] for r in results[side])
                              for side in SIDES},
        "attempted_operations": {side: sum(r["attempted"]
                                           for r in results[side])
                                 for side in SIDES},
        "metrics": metrics,
    }


def host() -> str:
    import numpy
    import scipy
    return (f"{platform.machine()} {platform.system()}, {os.cpu_count()} "
            f"cores, Python {platform.python_version()}, numpy "
            f"{numpy.__version__}, scipy {scipy.__version__}; perfbench "
            f"pins one BLAS thread")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", required=True, help="the claimed workload")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--other", nargs="+", default=[], metavar="WORKLOAD",
                    help="other workloads to check, with as many pairs")
    ap.add_argument("--name", required=True, help="writes BENCH_<name>.json")
    ap.add_argument("--claim", required=True)
    args = ap.parse_args(argv)
    if args.pairs < 10:
        ap.error("--pairs must be >= 10")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    out = {
        "claim": args.claim,
        "command": f"python3 perfbench/run.py --workload W --seed i "
                   f"--seconds {seconds}",
        "protocol": "parent commit and change checked out side by side; "
                    "pair i runs seed i on both trees, the parent first in "
                    "odd pairs and the change first in even pairs; "
                    "quartiles are statistics.quantiles(method='inclusive') "
                    "over the pairs",
        "host": host(),
        args.workload: run_pairs(trees, args.workload, args.pairs, seconds,
                                 spec["end_to_end"]),
    }
    if args.other:
        out["other_workloads"] = {
            name: run_pairs(trees, name, args.pairs, seconds,
                            spec["end_to_end"]) for name in args.other}
    path = trees["change"] / f"BENCH_{args.name}.json"
    path.write_text(json.dumps(out, indent=2) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    workloads = [out[args.workload], *out.get("other_workloads", {}).values()]
    if all(w["correct"] and all(t["correct"] for t in w["traced"].values())
           for w in workloads):
        return 0
    print("an incorrect run: see correct and traced", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
