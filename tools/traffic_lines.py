#!/usr/bin/env python3
"""List the lines of ``src/schwinger_be`` that real traffic never runs.

    python3 tools/traffic_lines.py

Runs a fixed list of CLI commands (``CLI_ARGV``, usage errors included)
and one pass of each benchmark workload from ``perfbench/workloads.py``
(input seed ``SEED``), ``dense-sim`` cut to its first ``DENSE_SEGMENTS``
segments, under the standard library's ``trace`` line counter. Then it
prints, file by file, each function with lines that never ran: the line
numbers, or ``never called``. Lambdas, comprehensions and nested
functions count as lines of the function they are written in; ``def``
lines and module-level lines, which run at import, are left out. The CLI
output is captured and dropped, and ``perfbench`` is only imported.
Standard library only; it takes about 10 s on one core.
"""
from __future__ import annotations

import contextlib
import io
import sys
import tempfile
import trace
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "schwinger_be"

CLI_ARGV = (
    ["estimate"],
    ["estimate", "--N", "16", "32", "--wt", "1", "10", "--format", "json"],
    ["estimate", "--rate", "0"],
    ["physical"],
    ["physical", "--N", "16", "128", "--p-phys", "1e-3", "1e-4",
     "--format", "json"],
    ["verify", "--N", "8"],
    ["verify", "--N", "16", "--epsilon", "0"],
    ["verify", "--N", "8", "--mode", "full-statevector"],
    ["verify", "--N", "9"],
    ["verify", "--N", "6"],
    ["verify", "--N", "18"],
    ["verify", "--suite", "arithmetic", "--bits", "4"],
    ["verify", "--suite", "subroutines"],
    ["dynamics", "--N", "8"],
    ["dynamics", "--N", "4", "--steps", "5", "--format", "json"],
    ["ae", "--runs", "5"],
    ["ae", "--hoeffding"],
    ["ae", "--omega", "2"],
)
WORKLOADS = ("builder-verify", "dense-sim", "ae-grid", "dense-oracle")
DENSE_SEGMENTS = 6
SEED = 1


def _owner(code) -> str:
    """The top-level function or method a code object is written in."""
    return getattr(code, "co_qualname", code.co_name).split(".<locals>.")[0]


def executable_lines(path: Path) -> dict[str, set[int]]:
    """Line numbers of each top-level function or method of a source file,
    keyed by its qualified name.  A code object's first line counts only
    when it has no other: the line counter sees no event there."""
    lines: dict[str, set[int]] = defaultdict(set)
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if hasattr(c, "co_code"))
        if code.co_name != "<module>":
            body = {line for _, _, line in code.co_lines()
                    if line is not None}
            if len(body) > 1:
                body.discard(code.co_firstlineno)
            lines[_owner(code)] |= body
    return lines


def run_traffic() -> list[str]:
    """Run the CLI list and one pass of every workload; returns the labels
    of the workload steps whose check failed."""
    from schwinger_be import cli
    import workloads
    failed = []
    for argv in CLI_ARGV:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            cli.main(argv)
    with tempfile.TemporaryDirectory() as workdir:
        for name in WORKLOADS:
            steps = workloads.build(name, SEED, workdir).make_pass(0)
            if name == "dense-sim":
                steps = steps[:DENSE_SEGMENTS]
            failed += [f"{name}:{s.label}" for s in steps
                       if not s.check(s.run())]
    return failed


def _ranges(lines: list[int]) -> str:
    out, start = [], lines[0]
    for a, b in zip(lines, lines[1:] + [None]):
        if b != a + 1:
            out.append(str(start) if start == a else f"{start}-{a}")
            start = b
    return ", ".join(out)


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    tracer = trace.Trace(count=1, trace=0,
                         ignoredirs=[sys.prefix, sys.exec_prefix])
    failed = tracer.runfunc(run_traffic)
    hits = set(tracer.results().counts)
    total = unrun = 0
    for path in sorted(PACKAGE.glob("*.py")):
        report = []
        for owner, lines in sorted(executable_lines(path).items(),
                                   key=lambda kv: min(kv[1])):
            missed = sorted(n for n in lines if (str(path), n) not in hits)
            total += len(lines)
            unrun += len(missed)
            if len(missed) == len(lines):
                report.append(f"  {owner}: never called")
            elif missed:
                report.append(f"  {owner}: {_ranges(missed)}")
        if report:
            print(path.relative_to(ROOT))
            print("\n".join(report))
    print(f"{total - unrun} of {total} function lines ran")
    for label in failed:
        print(f"check failed: {label}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
