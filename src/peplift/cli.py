"""Command-line front end.

Subcommands: certify (unconstrained identity check), lift (composite lift,
feasibility and composite identity), run (execute a method on a problem
spec), sweep (a grid of certify+lift cells with a roll-up CSV).

Exit codes are a stable contract: 0 pass, 1 verification fail, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import catalog, certificates, lift as lifting, methods, problems
from .reports import ReportRow, dumps17, write_rollup_csv
from .schedules import ScheduleSpec

USAGE_ERROR = 2
VERIFY_FAIL = 1

RUN_ALGOS = ("proxgd-silver", "pogm", "pogmg", "fista", "proxgd-const")


class UsageError(Exception):
    pass


def _size_of(args) -> int:
    if args.algo in catalog.SIZED_BY_K:
        if args.k is None:
            raise UsageError(f"algorithm {args.algo!r} is sized by --k")
        if args.k < 1:
            raise UsageError(f"--k must be >= 1, got {args.k}")
        return args.k
    if args.n is None:
        raise UsageError(f"algorithm {args.algo!r} is sized by --n")
    if args.n < 1:
        raise UsageError(f"--n must be >= 1, got {args.n}")
    return args.n


def _write_json(path: str | None, doc: dict) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(dumps17(doc))


def cmd_certify(args) -> int:
    catalog.check_pair(args.algo, args.metric)
    size = _size_of(args)
    H = catalog.schedule_for(args.algo, size)
    cert = catalog.certificate_for(args.algo, size)
    if args.metric == "func":
        report = certificates.verify_func_identity(H, cert)
    else:
        report = certificates.verify_grad_identity(H, cert)
    doc = {"algorithm": args.algo, "metric": args.metric, "n": cert.n, "size": size}
    doc.update(report.to_dict())
    _write_json(args.json, doc)
    print(f"certify {args.algo} {args.metric} size={size}: "
          f"residual={report.max_residual:.3e} scale={report.scale:.3e} "
          f"{'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else VERIFY_FAIL


def _resolve_xi(args, algo: str, metric: str, size: int):
    raw = args.xi
    if raw == "paper":
        return catalog.default_xi(algo, size), "paper"
    if raw == "pseudo":
        if metric != "func":
            raise UsageError("--xi pseudo applies only to the func metric")
        return "pseudo", "pseudo"
    try:
        value = float(raw)
    except ValueError:
        raise UsageError(f"--xi must be a number, 'paper' or 'pseudo', got {raw!r}") from None
    if metric == "func" and value <= 0.0:
        raise UsageError(f"--xi must be positive for the func metric, got {value}")
    if metric == "grad" and not 0.0 <= value < 1.0:
        raise UsageError(f"--xi must lie in [0, 1) for the grad metric, got {value}")
    return value, "explicit"


def _lift_cell(algo: str, metric: str, size: int, xi):
    """certify + lift + feasibility + composite identity for one cell."""
    H = catalog.schedule_for(algo, size)
    cert = catalog.certificate_for(algo, size)
    if metric == "func":
        identity = certificates.verify_func_identity(H, cert)
        lifted = lifting.lift_func(H, cert, xi=xi)
        feas = lifting.check_func_feasibility(lifted)
        composite = lifting.verify_composite_func_identity(H, cert, lifted)
    else:
        identity = certificates.verify_grad_identity(H, cert)
        lifted = lifting.lift_grad(H, cert, xi=xi)
        feas = lifting.check_grad_feasibility(lifted)
        composite = lifting.verify_composite_grad_identity(H, cert, lifted)
    rate = lifting.certified_rate(lifted)
    return H, cert, lifted, identity, feas, composite, rate


def cmd_lift(args) -> int:
    catalog.check_pair(args.algo, args.metric)
    size = _size_of(args)
    xi, xi_mode = _resolve_xi(args, args.algo, args.metric, size)
    H, cert, lifted, identity, feas, composite, rate = _lift_cell(args.algo, args.metric, size, xi)
    paper_rate = catalog.named_rate(args.algo, size)
    passed = identity.passed and composite.passed and feas.passed
    doc = {
        "algorithm": args.algo,
        "metric": args.metric,
        "n": cert.n,
        "size": size,
        "xi": lifted.xi,
        "xi_mode": xi_mode,
        "residuals": {
            "quad": composite.quad_residual,
            "linF": composite.lin_f_residual,
            "linH": composite.lin_h_residual,
        },
        "identity_residual": identity.max_residual,
        "min_mu": feas.min_mu,
        "min_eig_S": feas.min_eig,
        "laplacian_ok": feas.schur_laplacian_ok if args.metric == "func" else feas.dd_ok,
        "rate": rate.constant,
        "paper_rate": paper_rate,
        "asymptotic": catalog.ASYMPTOTIC[args.algo],
        "pass": passed,
    }
    if xi_mode == "pseudo":
        doc["xi_paper"] = catalog.default_xi(args.algo, size)
    _write_json(args.json, doc)
    print(f"lift {args.algo} {args.metric} size={size} xi={lifted.xi:.6g}: "
          f"rate={rate.constant:.6g} (named {paper_rate:.6g}) "
          f"{'PASS' if passed else 'FAIL'}")
    return 0 if passed else VERIFY_FAIL


def cmd_run(args) -> int:
    if args.algo not in RUN_ALGOS:
        raise UsageError(f"unknown runner {args.algo!r}; valid: {RUN_ALGOS}")
    if args.n < 1:
        raise UsageError(f"--n must be >= 1, got {args.n}")
    spec = problems.spec_from_json(args.problem)
    problem = problems.make_problem(spec, cache_dir=args.cache_dir)
    x0 = problems.initial_point(spec)

    if args.algo == "proxgd-silver":
        k = (args.n + 1).bit_length() - 1
        if 2**k - 1 != args.n:
            raise UsageError(f"silver runs need n = 2**k - 1, got n={args.n}")
        H = ScheduleSpec.silver(k).build()
        trace = methods.run_composite(H, problem, x0)
    elif args.algo == "proxgd-const":
        H = ScheduleSpec.constant_gd(args.alpha, args.n).build()
        trace = methods.run_composite(H, problem, x0)
    elif args.algo == "pogm":
        trace = methods.run_pogm(args.n, problem, x0)
    elif args.algo == "pogmg":
        trace = methods.run_pogmg(args.n, problem, x0)
    else:
        trace = methods.run_fista(args.n, problem, x0)

    if args.csv:
        methods.write_trace_csv(trace, args.csv, problem)
    if args.json:
        _write_json(args.json, {"algorithm": args.algo, "problem": spec.canonical(),
                                **methods.trace_summary(trace, problem)})
    final_gap = ""
    if problem.opt_value is not None:
        final_gap = f" gap={trace.obj_values[-1] - problem.opt_value:.6e}"
    print(f"run {args.algo} n={args.n}: obj={trace.obj_values[-1]:.9g}{final_gap} "
          f"||g+s||={trace.final_composite_grad_norm:.6e}")
    return 0


def _empirical_ratio(algo: str, size: int, rate_constant: float, instances: int) -> float | None:
    """Worst observed (gap / certified bound) over seeded lasso instances."""
    if instances <= 0:
        return None
    worst = 0.0
    for seed in range(instances):
        spec = problems.ProblemSpec(kind="lasso", dim=8, rows=16, seed=101 + seed, tau=0.05)
        problem = problems.make_problem(spec)
        x0 = problems.initial_point(spec)
        L = problem.smoothness
        if algo == "silver":
            trace = methods.run_composite(catalog.schedule_for(algo, size), problem, x0)
        elif algo == "gsw":
            trace = methods.run_composite(catalog.schedule_for(algo, size), problem, x0)
        elif algo == "ogm":
            trace = methods.run_pogm(size, problem, x0)
        else:
            trace = methods.run_pogmg(size, problem, x0)
        if catalog.METRIC[algo] == "func":
            gap = trace.obj_values[-1] - problem.opt_value
            bound = rate_constant * L * float(np.dot(x0 - problem.x_star, x0 - problem.x_star))
        else:
            gap = trace.final_composite_grad_norm**2
            bound = rate_constant * L * (trace.obj_values[0] - trace.obj_values[-1])
        if bound > 0:
            worst = max(worst, float(gap / bound))
    return worst


def _sweep_cell(cell: dict) -> tuple[ReportRow, dict]:
    algo = cell["algo"]
    metric = cell.get("metric", catalog.METRIC[algo])
    catalog.check_pair(algo, metric)
    size = int(cell["k"] if algo in catalog.SIZED_BY_K else cell["n"])
    if size < 1:
        raise UsageError(f"cell size must be >= 1, got {size}")
    xi = cell.get("xi", "paper")
    if xi == "paper":
        xi_value = catalog.default_xi(algo, size)
    elif xi == "pseudo":
        if metric != "func":
            raise UsageError("xi 'pseudo' applies only to func-metric cells")
        xi_value = "pseudo"
    else:
        xi_value = float(xi)

    start = time.perf_counter()
    H, cert, lifted, identity, feas, composite, rate = _lift_cell(algo, metric, size, xi_value)
    ratio = _empirical_ratio(algo, size, rate.constant, int(cell.get("instances", 0)))
    elapsed_ms = 1000.0 * (time.perf_counter() - start)

    passed = identity.passed and composite.passed and feas.passed and (ratio is None or ratio <= 1.0 + 1e-9)
    row = ReportRow(
        algorithm=algo,
        metric=metric,
        size=size,
        residual_identity=identity.max_residual,
        residual_composite=composite.max_residual,
        feasible=feas.passed,
        certified_rate=rate.constant,
        paper_rate=catalog.named_rate(algo, size),
        observed_worst_ratio=ratio,
        runtime_ms=elapsed_ms,
        passed=passed,
    )
    doc = row.to_dict()
    doc["xi"] = lifted.xi
    doc["feasibility"] = feas.to_dict()
    doc["residuals"] = {
        "quad": composite.quad_residual,
        "linF": composite.lin_f_residual,
        "linH": composite.lin_h_residual,
    }
    return row, doc


def cmd_sweep(args) -> int:
    with open(args.config) as fh:
        config_doc = json.load(fh)
    cells = config_doc.get("cells", [])
    for cell in cells:
        algo = cell.get("algo")
        if algo not in catalog.ALGORITHMS:
            raise UsageError(f"unknown algorithm {algo!r} in sweep config; valid: {catalog.ALGORITHMS}")
    os.makedirs(args.out, exist_ok=True)
    if not cells:
        write_rollup_csv([], os.path.join(args.out, "rollup.csv"))
        print("sweep: no cells, nothing to do")
        return 0

    results = [_sweep_cell(cell) for cell in cells]  # every cell runs before any file is written
    rows = []
    for row, doc in results:
        rows.append(row)
        name = f"{row.algorithm}_{row.metric}_{row.size}.json"
        with open(os.path.join(args.out, name), "w") as fh:
            fh.write(dumps17(doc))
    write_rollup_csv(rows, os.path.join(args.out, "rollup.csv"))
    failed = [r for r in rows if not r.passed]
    for row in rows:
        print(f"sweep {row.algorithm} {row.metric} size={row.size}: "
              f"rate={row.certified_rate:.6g} {'PASS' if row.passed else 'FAIL'}")
    return 0 if not failed else VERIFY_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="peplift", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    certify = sub.add_parser("certify", help="verify an unconstrained rate identity")
    certify.add_argument("--algo", required=True, choices=catalog.ALGORITHMS)
    certify.add_argument("--metric", required=True, choices=("func", "grad"))
    certify.add_argument("--n", type=int)
    certify.add_argument("--k", type=int)
    certify.add_argument("--json", help="write the residual report here")
    certify.set_defaults(func=cmd_certify)

    lift_p = sub.add_parser("lift", help="lift a certificate to the composite setting and verify")
    lift_p.add_argument("--algo", required=True, choices=catalog.ALGORITHMS)
    lift_p.add_argument("--metric", required=True, choices=("func", "grad"))
    lift_p.add_argument("--n", type=int)
    lift_p.add_argument("--k", type=int)
    lift_p.add_argument("--xi", default="paper", help="'paper', 'pseudo', or a number")
    lift_p.add_argument("--json", help="write the feasibility/identity report here")
    lift_p.set_defaults(func=cmd_lift)

    run_p = sub.add_parser("run", help="run a method on a problem spec")
    run_p.add_argument("--algo", required=True, choices=RUN_ALGOS)
    run_p.add_argument("--problem", required=True, help="problem spec JSON file")
    run_p.add_argument("--n", type=int, required=True, help="iteration count")
    run_p.add_argument("--alpha", type=float, default=1.0, help="stepsize for proxgd-const")
    run_p.add_argument("--csv", help="write the per-iterate trace here")
    run_p.add_argument("--json", help="write the trace summary here")
    run_p.add_argument("--cache-dir", help="cache directory for reference optima")
    run_p.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help="run a grid of certify+lift cells")
    sweep.add_argument("--config", required=True, help="sweep config JSON")
    sweep.add_argument("--out", required=True, help="output directory")
    sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
