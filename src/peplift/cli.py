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
import reprlib
import sys
import time
from functools import partial

import numpy as np

from . import catalog, methods, problems
from .lift import check_xi
from .reports import ReportRow, dumps17, finite_or_none, write_rollup_csv
from .schedules import from_diagonal

USAGE_ERROR = 2
VERIFY_FAIL = 1


class UsageError(Exception):
    pass


def _family(algo, metric=None) -> catalog.Family:
    """The registry row for algo, checked against the requested metric
    (the row's own metric when none is given)."""
    family = catalog.FAMILIES.get(algo) if isinstance(algo, str) else None
    if family is None:
        raise UsageError(f"unknown algorithm {reprlib.repr(algo)}; valid: {tuple(catalog.FAMILIES)}")
    if metric is not None and metric != family.metric:
        raise UsageError(f"algorithm {algo!r} certifies the {family.metric!r} metric, not {reprlib.repr(metric)}")
    return family


def _size(family: catalog.Family, raw) -> int:
    if raw is None:
        raise UsageError(f"algorithm {family.name!r} is sized by {family.size_flag!r}")
    if type(raw) is not int or raw < 1:
        raise UsageError(f"{family.size_flag!r} must be an integer >= 1, got {reprlib.repr(raw)}")
    return raw


def _xi(raw):
    """(xi, xi_mode) from 'paper' (None: the row's own xi), 'pseudo' or a
    number (a string on the command line).  lift.check_xi holds the range
    each metric accepts."""
    if raw == "paper":
        return None, "paper"
    if raw == "pseudo":
        return "pseudo", "pseudo"
    if type(raw) in (str, int, float):
        try:
            return float(raw), "explicit"
        except (ValueError, OverflowError):  # an int beyond float range overflows
            pass
    raise UsageError(f"xi must be a number, 'paper' or 'pseudo', got {reprlib.repr(raw)}")


def _typed(convert, name: str):
    """argparse type converting with convert; a bad value's message echoes
    it through reprlib.repr, so it stays short whatever the value's length."""
    def parse(text: str):
        try:
            return convert(text)
        except ValueError:  # also int's digit limit
            raise argparse.ArgumentTypeError(f"invalid {name} value: {reprlib.repr(text)}") from None

    return parse


_INT = _typed(int, "int")


def _write_json(path: str | None, doc: dict) -> None:
    if path:
        text = dumps17(finite_or_none(doc))  # before the file is opened, so a failure leaves none
        with open(path, "w") as fh:
            fh.write(text)


def cmd_certify(args) -> int:
    family = _family(args.algo, args.metric)
    size = _size(family, getattr(args, family.size_flag))
    cell = family.cell(size, lift=False)
    report = cell.identity
    doc = {"algorithm": args.algo, "metric": args.metric, "n": cell.n, "size": size}
    doc.update(report.to_dict())
    _write_json(args.json, doc)
    print(f"certify {args.algo} {args.metric} size={size}: "
          f"residual={report.max_residual:.3e} scale={report.scale:.3e} "
          f"{'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else VERIFY_FAIL


def cmd_lift(args) -> int:
    family = _family(args.algo, args.metric)
    size = _size(family, getattr(args, family.size_flag))
    xi, xi_mode = _xi(args.xi)
    cell = family.cell(size, xi)
    paper_rate = family.rate(size)
    doc = {
        "algorithm": args.algo,
        "metric": args.metric,
        "n": cell.n,
        "size": size,
        "xi": cell.lifted.xi,
        "xi_mode": xi_mode,
        "residuals": cell.composite.to_dict()["residuals"],
        "identity_residual": cell.identity.max_residual,
        "min_mu": cell.feasibility.min_mu,
        "min_eig_S": cell.feasibility.min_eig,
        "psd_route": cell.feasibility.psd_route,
        "laplacian_ok": cell.feasibility.structural_ok,
        "rate": cell.rate,
        "paper_rate": paper_rate,
        "asymptotic": family.asymptotic,
        "pass": cell.passed,
    }
    if xi_mode == "pseudo":
        doc["xi_paper"] = family.xi(size)
    _write_json(args.json, doc)
    print(f"lift {args.algo} {args.metric} size={size} xi={cell.lifted.xi:.6g}: "
          f"rate={cell.rate:.6g} (named {paper_rate:.6g}) "
          f"{'PASS' if cell.passed else 'FAIL'}")
    return 0 if cell.passed else VERIFY_FAIL


def _silver_runner(n: int, alpha: float):
    k = (n + 1).bit_length() - 1
    if 2**k - 1 != n:
        raise UsageError(f"silver runs need n = 2**k - 1, got n={n}")
    return partial(catalog.FAMILIES["silver"].run, k)


def _const_runner(n: int, alpha: float):
    if not alpha > 0:  # also rejects nan; StepsizeMatrix rejects inf
        raise UsageError(f"--alpha must be > 0, got {alpha}")
    return partial(methods.run_composite, from_diagonal(np.full(n, alpha)))


# runner of `peplift run`: (n, alpha) -> (problem, x0) -> trace; the outer
# call checks n and alpha, so a bad value exits before the reference solve
RUNNERS = {
    "proxgd-silver": _silver_runner,
    "pogm": lambda n, alpha: partial(catalog.FAMILIES["ogm"].run, n),
    "pogmg": lambda n, alpha: partial(catalog.FAMILIES["ogmg"].run, n),
    "fista": lambda n, alpha: partial(methods.run_fista, n),
    "proxgd-const": _const_runner,
}


def cmd_run(args) -> int:
    if args.n < 1:
        raise UsageError(f"--n must be >= 1, got {args.n}")
    runner = RUNNERS[args.algo](args.n, args.alpha)
    spec = problems.spec_from_json(args.problem)
    problem = problems.make_problem(spec)
    x0 = problems.initial_point(spec)

    trace = runner(problem, x0)

    if args.csv:
        methods.write_trace_csv(trace, args.csv, problem)
    if args.json:
        _write_json(args.json, {"algorithm": args.algo, "problem": spec.canonical(),
                                **methods.trace_summary(trace, problem)})
    final_obj = trace.obj_values[-1]
    print(f"run {args.algo} n={args.n}: obj={final_obj:.9g} gap={final_obj - problem.opt_value:.6e} "
          f"||g+s||={trace.final_composite_grad_norm:.6e}")
    return 0


def _lasso_instances(count: int) -> list:
    """(problem, x0) of the first `count` seeded lasso instances of the
    empirical check; a sweep builds them once and shares them between cells."""
    specs = [problems.ProblemSpec(kind="lasso", dim=8, rows=16, seed=101 + seed, tau=0.05) for seed in range(count)]
    return [(problems.make_problem(spec), problems.initial_point(spec)) for spec in specs]


def _empirical_ratio(family: catalog.Family, size: int, rate: float, instances: list) -> float | None:
    """Worst observed (gap / certified bound) over (problem, x0) instances."""
    if not instances:
        return None
    worst = 0.0
    for problem, x0 in instances:
        gap, bound = family.bound(family.run(size, problem, x0), problem, x0, rate)
        if bound > 0:
            worst = max(worst, float(gap / bound))
    return worst


def _sweep_job(cell) -> tuple[catalog.Family, int, float | str | None, int]:
    """Validate one sweep cell: (family, size, xi, instances)."""
    if not isinstance(cell, dict):
        raise UsageError(f"sweep cell must be an object, got {reprlib.repr(cell)}")
    family = _family(cell.get("algo"), cell.get("metric"))
    size = _size(family, cell.get(family.size_flag))
    xi, _ = _xi(cell.get("xi", "paper"))
    if xi is not None:  # None is the row's own xi
        check_xi(family.metric, xi)
    instances = cell.get("instances", 0)
    if type(instances) is not int or instances < 0:
        raise UsageError(f"'instances' must be an integer >= 0, got {reprlib.repr(instances)}")
    return family, size, xi, instances


def _sweep_cell(family: catalog.Family, size: int, xi, instances: list) -> tuple[ReportRow, dict]:
    start = time.perf_counter()
    cell = family.cell(size, xi)
    ratio = _empirical_ratio(family, size, cell.rate, instances)
    elapsed_ms = 1000.0 * (time.perf_counter() - start)

    row = ReportRow(
        algorithm=family.name,
        metric=family.metric,
        size=size,
        residual_identity=cell.identity.max_residual,
        residual_composite=cell.composite.max_residual,
        feasible=cell.feasibility.passed,
        certified_rate=cell.rate,
        paper_rate=family.rate(size),
        observed_worst_ratio=ratio,
        runtime_ms=elapsed_ms,
        passed=cell.passed and (ratio is None or ratio <= 1.0 + 1e-9),
    )
    doc = row.to_dict()
    doc["xi"] = cell.lifted.xi
    doc["feasibility"] = cell.feasibility.to_dict()
    doc["residuals"] = cell.composite.to_dict()["residuals"]
    return row, doc


def cmd_sweep(args) -> int:
    with open(args.config) as fh:
        try:
            config_doc = json.load(fh)
        except RecursionError:  # the decoder recurses once per nesting level
            raise UsageError("sweep config is nested too deeply to decode") from None
    cells = config_doc.get("cells", []) if isinstance(config_doc, dict) else None
    if not isinstance(cells, list):
        raise UsageError("sweep config must be an object with a 'cells' list")
    jobs = [_sweep_job(cell) for cell in cells]  # every cell is checked before any runs
    os.makedirs(args.out, exist_ok=True)
    if not jobs:
        write_rollup_csv([], os.path.join(args.out, "rollup.csv"))
        print("sweep: no cells, nothing to do")
        return 0

    pool = _lasso_instances(max(count for *_, count in jobs))
    # every cell runs before any file is written
    results = [_sweep_cell(family, size, xi, pool[:count]) for family, size, xi, count in jobs]
    rows = []
    seen: dict[str, int] = {}
    for row, doc in results:
        rows.append(row)
        stem = f"{row.algorithm}_{row.metric}_{row.size}"
        seen[stem] = seen.get(stem, 0) + 1  # a repeated family and size gets _2, _3, ...
        name = f"{stem}.json" if seen[stem] == 1 else f"{stem}_{seen[stem]}.json"
        _write_json(os.path.join(args.out, name), doc)
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
    lift_p = sub.add_parser("lift", help="lift a certificate to the composite setting and verify")
    for cell_p in (certify, lift_p):
        cell_p.add_argument("--algo", required=True, choices=catalog.FAMILIES)
        cell_p.add_argument("--metric", required=True, choices=("func", "grad"))
        cell_p.add_argument("--n", type=_INT)
        cell_p.add_argument("--k", type=_INT)
    certify.add_argument("--json", help="write the residual report here")
    certify.set_defaults(func=cmd_certify)
    lift_p.add_argument("--xi", default="paper", help="'paper', 'pseudo', or a number")
    lift_p.add_argument("--json", help="write the feasibility/identity report here")
    lift_p.set_defaults(func=cmd_lift)

    run_p = sub.add_parser("run", help="run a method on a problem spec")
    run_p.add_argument("--algo", required=True, choices=RUNNERS)
    run_p.add_argument("--problem", required=True, help="problem spec JSON file")
    run_p.add_argument("--n", type=_INT, required=True, help="iteration count")
    run_p.add_argument("--alpha", type=_typed(float, "float"), default=1.0, help="stepsize for proxgd-const")
    run_p.add_argument("--csv", help="write the per-iterate trace here")
    run_p.add_argument("--json", help="write the trace summary here")
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
    # json.JSONDecodeError is a ValueError; numpy raises MemoryError for an
    # array too large to allocate before it allocates any of it, and Python
    # raises one with no message when a list outgrows the memory left
    except (UsageError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return USAGE_ERROR
    except RuntimeWarning as exc:  # raised under -W error::RuntimeWarning: a value left float range
        print(f"error: {exc}", file=sys.stderr)
        return VERIFY_FAIL


if __name__ == "__main__":
    sys.exit(main())
