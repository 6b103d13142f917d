"""The benchmark's hooks into the package: perfbench reads module and
function names of ``schwinger_be`` from outside ``src/``, so a renamed or
deleted name would break only benchmark runs.  This test imports the
benchmark's modules as they are and runs one traced pass of every
workload, ``dense-sim`` cut to its first segments."""
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_hooks_resolve(monkeypatch, tmp_path):
    # the worker imports its siblings as top-level modules, as run.py does
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing, workloads, worker = (importlib.import_module(name) for name in
                                  ("tracing", "workloads", "worker"))
    assert worker.environment(1)["seed"] == 1
    workloads.warm_up()
    tracer = tracing.Tracer()
    # entering looks up every SPANS name in its module
    with tracing.tracing(tracer):
        # builder-verify reads estimator's closed forms, simulate._place and
        # subroutines.BRANCH_LABELS by name while it runs
        for name, steps in (("builder-verify", None), ("dense-sim", 4),
                            ("dense-oracle", None), ("ae-grid", None)):
            wl = workloads.build(name, 1, str(tmp_path))
            out = worker.run_pass(wl.make_pass(0)[:steps], repeat=False)
            assert out["attempted"] > 0 and out["failed"] == 0, name
    # the spans' bookkeeping reads the fields of what the package returns
    metrics = tracing.layer_metrics(tracer, 1.0, 1.0, {}, wl.notes)
    assert metrics["blockenc.assemble_s"] > 0 and metrics["ae.rounds"] > 0
    assert metrics["estimator.formula_calls"] > 0
    assert metrics["simulate.permcheck_indices"] > 0
