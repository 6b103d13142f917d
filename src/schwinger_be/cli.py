"""Command-line interface: resource estimation, verification, dynamics,
and amplitude-estimation simulation as batch commands.

Exit codes: 0 success, 1 verification failure, 2 usage error, which is an
``OutOfRangeError`` from the library or from a check here on a value the
library never sees; any other exception is a fault and propagates.  All
artifacts carry ``schema_version``; fixed configuration and seed reproduce
identical bytes.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import ae, blockenc, estimator, model, subroutines
from .model import OutOfRangeError
from .simulate import (check_basis_permutation, project_success,
                       register_weights, simulate_statevector)

SCHEMA_VERSION = 1

ESTIMATE_COLUMNS = ["n_sites", "wt", "epsilon", "t_count", "runtime_days",
                    "ancilla", "logical_qubits"]
DYNAMICS_COLUMNS = ["t", "re_g", "im_g", "abs_g", "nu"]
PHYSICAL_COLUMNS = ["n_sites", "wt", "p_phys", "t_count", "code_distance",
                    "logical_qubits", "physical_qubits"]


def _default_seed() -> int:
    return int(os.environ.get("SCHWINGER_BE_SEED", "0"))


def _emit(args, text: str) -> None:
    if args.output:
        with open(args.output, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _rows_to_text(rows: list[dict], columns: list[str], fmt: str) -> str:
    if fmt == "json":
        doc = {"schema_version": SCHEMA_VERSION, "rows": rows}
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["# schema_version", SCHEMA_VERSION])
    writer.writerow(columns)
    for row in rows:
        writer.writerow([row[c] for c in columns])
    return buf.getvalue()


def cmd_estimate(args) -> int:
    n_values = estimator.TABLE3_N if args.N is None else tuple(args.N)
    wt_values = estimator.TABLE3_WT if args.wt is None else tuple(args.wt)
    rows = estimator.table3(n_values, wt_values, rate=args.rate)
    out = [{**asdict(r), "t_count": f"{r.t_count:.6e}",
            "runtime_days": f"{r.runtime_days:.6e}"} for r in rows]
    _emit(args, _rows_to_text(out, ESTIMATE_COLUMNS, args.format))
    return 0


def _verify_arithmetic(bits: int) -> list[str]:
    failures = []
    refs = {
        "ineq": lambda v: {"out": v["out"] ^ (v["a"] <= v["b"])},
        "sub": lambda v: {"a": v["a"], "b": (v["a"] - v["b"]) % (1 << bits)},
        "una": lambda v: {"z": v["z"] ^ ((1 << v["a"].bit_length()) - 1)},
        "cswap": lambda v: ({"a": v["b"], "b": v["a"]} if v["ctrl"] == 1
                            else {"a": v["a"], "b": v["b"]}),
    }
    for kind, ref in refs.items():
        circ, _ = subroutines.arithmetic(kind, bits)
        verdict = check_basis_permutation(circ, ref)
        if not verdict.ok:
            failures.append(f"{kind}({bits}): {verdict.failures[:3]}")
    return failures


def _verify_subroutines() -> list[str]:
    """Each preparation's success-projected output profile against its
    target, given as unnormalized weights of the output value ``v``."""
    cases = [(f"uni({n})", subroutines.uni(n, 1e-3)[0],
              lambda v, n=n: 1.0 * (v < n), 1e-10) for n in (3, 5, 6)]
    cases += [
        ("p_s1(8)", subroutines.p_s1(8, 1e-3)[0],
         lambda v: v * (v % 2 == 0), 1e-10),
        ("p_s2(8)", subroutines.p_s2(8, 1e-3)[0],
         lambda v: v * (v % 2 == 1), 1e-10),
        ("p_s3(8)", subroutines.p_s3(8, 1e-6)[0], lambda v: v ** 2, 1e-8),
    ]
    failures = []
    for label, circ, weight, tol in cases:
        psi = project_success(simulate_statevector(circ), circ)
        w = register_weights(psi, circ, circ.metadata["output"])
        target = weight(np.arange(w.size, dtype=float))
        target /= target.sum()
        if np.max(np.abs(w / w.sum() - target)) > tol:
            failures.append(f"{label} profile off")
    return failures


def cmd_verify(args) -> int:
    if args.suite == "arithmetic":
        # 31 bits make the widest block 63 qubits, the int64 index limit
        if not 1 <= args.bits <= 31:
            raise OutOfRangeError("bits must be in 1..31")
        failures = _verify_arithmetic(args.bits)
    elif args.suite == "subroutines":
        failures = _verify_subroutines()
    else:  # block
        # the record prices the full encoding, defined for even N >= 8
        if args.N % 2 != 0 or args.N < 8:
            raise OutOfRangeError("N must be even and >= 8")
        rec = blockenc.verify(model.benchmark_params(args.N), args.epsilon,
                              mode=args.mode)
        _emit(args, rec.to_json() + "\n")
        return 0 if rec.passed else 1
    report = {"schema_version": SCHEMA_VERSION, "suite": args.suite,
              "failures": failures, "passed": not failures}
    _emit(args, json.dumps(report, sort_keys=True, indent=2) + "\n")
    return 0 if not failures else 1


def cmd_dynamics(args) -> int:
    if args.steps < 1 or not np.isfinite(args.t_max):
        raise OutOfRangeError("steps must be >= 1 and t-max finite")
    params = model.benchmark_params(args.N)
    rows = []
    for t in np.linspace(0.0, args.t_max, args.steps):
        g = model.vacuum_persistence(params, float(t))
        nu = model.particle_density(params, float(t))
        rows.append({"t": f"{t:.8f}", "re_g": f"{g.real:.12f}",
                     "im_g": f"{g.imag:.12f}", "abs_g": f"{abs(g):.12f}",
                     "nu": f"{nu:.12f}"})
    _emit(args, _rows_to_text(rows, DYNAMICS_COLUMNS, args.format))
    return 0


def cmd_ae(args) -> int:
    if args.hoeffding:
        _emit(args, json.dumps(
            {"schema_version": SCHEMA_VERSION,
             "hoeffding_queries": ae.hoeffding_queries(args.epsilon,
                                                       args.delta),
             "chebyshev_worst_case": ae.chebae_query_formula(args.epsilon)},
            sort_keys=True) + "\n")
        return 0
    omegas = ([round(0.1 * i, 1) for i in range(1, 10)]
              if args.omega is None else args.omega)
    if not omegas or args.runs < 1:
        raise OutOfRangeError("omega needs a value and runs must be >= 1")
    seed = args.seed if args.seed is not None else _default_seed()
    lines = []
    summary = {}
    for i, om in enumerate(omegas):
        runs = [ae.simulate_adaptive_ae(om, args.epsilon, args.delta,
                                        seed + 100_000 * i + r)
                for r in range(args.runs)]
        for r in runs:
            lines.append(json.dumps(
                {"schema_version": SCHEMA_VERSION, "seed": r.seed,
                 "omega": om, "estimate": round(r.estimate, 12),
                 "q_psi": r.q_psi, "q_pi": r.q_pi,
                 "succeeded": r.succeeded}, sort_keys=True))
        summary[str(om)] = {
            "mean_total_queries": float(np.mean([r.total_queries
                                                 for r in runs])),
            "failure_rate": float(np.mean([not r.succeeded for r in runs]))}
    lines.append(json.dumps({"schema_version": SCHEMA_VERSION,
                             "summary": summary}, sort_keys=True))
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_physical(args) -> int:
    ps = [1e-3, 1e-4] if args.p_phys is None else args.p_phys
    if not ps:
        raise OutOfRangeError("p-phys needs a value")
    n_values = [64] if args.N is None else args.N
    rows = []
    for n in n_values:
        params = model.benchmark_params(n)
        rep = estimator.vpa_cost(params, args.wt / params.w)
        nl = estimator.logical_qubits(n)
        for p in ps:
            pe = estimator.physical_qubits(rep.t_real, nl, p)
            rows.append({"n_sites": n, "wt": args.wt,
                         "t_count": f"{rep.t_real:.6e}", **asdict(pe)})
    _emit(args, _rows_to_text(rows, PHYSICAL_COLUMNS, args.format))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="schwinger-be",
        description="Block-encoding resource estimates and verification "
                    "for the lattice Schwinger model.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", help="write to file instead of stdout")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("estimate", help="end-to-end T counts and runtimes")
    p.add_argument("--N", type=int, nargs="*")
    p.add_argument("--wt", type=float, nargs="*")
    p.add_argument("--rate", type=float, default=estimator.DEFAULT_T_RATE,
                   help="T gates per second for runtime conversion")
    common(p)
    p.set_defaults(fn=cmd_estimate)

    p = sub.add_parser("verify", help="construction-level verification")
    p.add_argument("--suite", choices=("block", "arithmetic", "subroutines"),
                   default="block")
    p.add_argument("--N", type=int, default=8)
    p.add_argument("--epsilon", type=float, default=1e-2)
    p.add_argument("--bits", type=int, default=6)
    p.add_argument("--mode", choices=("semantic", "full-statevector"),
                   default="semantic")
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("dynamics", help="vacuum persistence time series")
    p.add_argument("--N", type=int, default=4)
    p.add_argument("--t-max", type=float, default=4.0)
    p.add_argument("--steps", type=int, default=41)
    common(p)
    p.set_defaults(fn=cmd_dynamics)

    p = sub.add_parser("ae", help="amplitude-estimation query simulation")
    p.add_argument("--epsilon", type=float, default=0.005)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--omega", type=float, nargs="*")
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--seed", type=int, default=None,
                   help="default from SCHWINGER_BE_SEED")
    p.add_argument("--hoeffding", action="store_true",
                   help="print the closed-form query counts only")
    common(p)
    p.set_defaults(fn=cmd_ae)

    p = sub.add_parser("physical", help="surface-code footprint")
    p.add_argument("--N", type=int, nargs="*")
    p.add_argument("--wt", type=float, default=10.0)
    p.add_argument("--p-phys", type=float, nargs="*")
    common(p)
    p.set_defaults(fn=cmd_physical)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except OutOfRangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
