"""The four benchmark workloads and their correctness gates.

Each workload splits its fixed job into units that the runner repeats
round-robin: a unit is one CLI cell (lift-large, certify-large), one whole
sweep (sweep-grid) or one problem instance with its 74 runs (envelopes).
Units that hold several cells report each cell's time as well.
Only the calls into peplift are timed; reading outputs back and checking
them is not.  Calls go through module attributes (``cli.main``,
``problems.make_problem``, ...) so that an installed tracer sees them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from peplift import catalog, cli, methods, problems, schedules

# family -> (certified metric, CLI sizing flag); kept here rather than read
# from the catalog, whose tables are due to be folded into one registry
FAMILIES = {"silver": ("func", "--k"), "gsw": ("grad", "--k"), "ogm": ("func", "--n"), "ogmg": ("grad", "--n")}

RATE_RTOL = 1e-12  # certified vs. closed-form rate, as in acceptance criterion 2
ENVELOPE_SLACK = 1e-9  # absolute, as in acceptance criterion 5


@dataclass
class Outcome:
    """What one unit did: checks attempted and failed, bytes of reports it
    wrote, and the program's own per-cell times when a unit holds many cells."""

    attempted: int
    failed: int
    bytes_written: int = 0
    cell_seconds: dict[str, float] | None = None


def _quiet_cli(argv: list[str]) -> tuple[float, int]:
    """Time one `cli.main` call with its console lines swallowed."""
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(argv)
        return time.perf_counter() - start, code


class _CliCells:
    """Cells of the lift-large and certify-large workloads: one CLI call each."""

    command = ""
    cells: dict[str, list[tuple[str, int]]] = {}

    def __init__(self, scale: str, seed: int, workdir: Path):
        self.family_sizes = self.cells[scale]
        self.workdir = workdir
        self.cells_per_pass = len(self.family_sizes)

    def prepare(self) -> None:
        self.argv = {}
        for algo, size in self.family_sizes:
            report = self.workdir / f"{self.command}-{algo}-{size}.json"
            self.argv[f"{algo}-{size}"] = (algo, size, report, [
                self.command, "--algo", algo, "--metric", FAMILIES[algo][0], FAMILIES[algo][1], str(size),
                *self.extra_args(), "--json", str(report),
            ])

    def extra_args(self) -> list[str]:
        return []

    def units(self) -> list[str]:
        return list(self.argv)

    def run(self, unit: str) -> tuple[float, Outcome]:
        algo, size, report, argv = self.argv[unit]
        report.unlink(missing_ok=True)
        elapsed, code = _quiet_cli(argv)
        ok = code == 0 and report.is_file()
        written = report.stat().st_size if ok else 0
        if ok:
            doc = json.loads(report.read_text())
            ok = doc.get("pass") is True and self.check(algo, size, doc)
        return elapsed, Outcome(attempted=1, failed=0 if ok else 1, bytes_written=written)

    def check(self, algo: str, size: int, doc: dict) -> bool:
        return True

    def summary(self) -> str:
        return f"{self.cells_per_pass} cells per pass"


class LiftLarge(_CliCells):
    command = "lift"
    cells = {
        "full": [("ogm", 512), ("ogmg", 512), ("silver", 9), ("gsw", 9)],
        "mini": [("ogm", 8), ("ogmg", 8), ("silver", 3), ("gsw", 3)],
    }

    def extra_args(self) -> list[str]:
        return ["--xi", "paper"]

    def check(self, algo: str, size: int, doc: dict) -> bool:
        named = catalog.named_rate(algo, size)
        return abs(doc["rate"] - named) <= RATE_RTOL * abs(named)


class CertifyLarge(_CliCells):
    command = "certify"
    cells = {
        "full": [("ogm", 1024), ("ogmg", 1024), ("silver", 10), ("gsw", 10)],
        "mini": [("ogm", 16), ("ogmg", 16), ("silver", 4), ("gsw", 4)],
    }


def sweep_config(scale: str) -> dict:
    """The 74-cell grid of scripts/full_sweep.py, copied so that a change to
    that script does not change this workload."""
    orders, steps = (range(1, 6), range(1, 33)) if scale == "full" else (range(1, 3), range(1, 3))
    instances = 3 if scale == "full" else 1
    cells = []
    for k in orders:
        cells.append({"algo": "silver", "metric": "func", "k": k, "instances": instances})
        cells.append({"algo": "gsw", "metric": "grad", "k": k, "instances": instances})
    for n in steps:
        cells.append({"algo": "ogm", "metric": "func", "n": n})
        cells.append({"algo": "ogmg", "metric": "grad", "n": n})
    return {"cells": cells}


class SweepGrid:
    def __init__(self, scale: str, seed: int, workdir: Path):
        self.scale = scale
        self.workdir = workdir
        self.config_path = workdir / "sweep.json"
        self.cells_per_pass = len(sweep_config(scale)["cells"])
        self.repeats = 0

    def prepare(self) -> None:
        self.config_path.write_text(json.dumps(sweep_config(self.scale)))

    def units(self) -> list[str]:
        return ["sweep"]

    def run(self, unit: str) -> tuple[float, Outcome]:
        self.repeats += 1
        out = self.workdir / f"sweep-{self.repeats}"
        try:
            elapsed, code = _quiet_cli(["sweep", "--config", str(self.config_path), "--out", str(out)])
            rows = []
            if (out / "rollup.csv").is_file():
                with open(out / "rollup.csv", newline="") as fh:
                    rows = list(csv.DictReader(fh))
            passed = [row for row in rows if row["pass"] == "true"]
            ok = code == 0 and len(rows) == self.cells_per_pass and len(passed) == len(rows)
            cell_seconds = {
                f"{row['algorithm']}-{row['size']}": float(row["runtime_ms"]) / 1000.0 for row in rows
            }
            written = sum(p.stat().st_size for p in out.iterdir()) if out.is_dir() else 0
        finally:
            shutil.rmtree(out, ignore_errors=True)
        failed = max(self.cells_per_pass - len(passed), 0 if ok else 1)
        return elapsed, Outcome(attempted=self.cells_per_pass, failed=failed,
                                bytes_written=written, cell_seconds=cell_seconds or None)

    def summary(self) -> str:
        return f"{self.cells_per_pass} sweep cells per pass"


# one run of each family; module attributes are looked up per call
RUNNERS = {
    "silver": lambda k, problem, x0: methods.run_composite(schedules.ScheduleSpec.silver(k).build(), problem, x0),
    "gsw": lambda k, problem, x0: methods.run_composite(schedules.ScheduleSpec.gsw(k).build(), problem, x0),
    "ogm": lambda n, problem, x0: methods.run_pogm(n, problem, x0),
    "ogmg": lambda n, problem, x0: methods.run_pogmg(n, problem, x0),
}


class Envelopes:
    """Acceptance criterion 5: every run of every family on seeded lasso and
    box-QP instances stays under its certified bound (scaled by L).  Its cells
    are the 74 runs (family, size) of an instance, timed one by one."""

    SHAPES = {
        "full": (50, range(1, 6), range(1, 33)),
        "mini": (2, range(1, 3), range(1, 4)),
    }

    def __init__(self, scale: str, seed: int, workdir: Path):
        per_kind, orders, steps = self.SHAPES[scale]
        # criterion 5's order: silver, P-OGM, GSW, P-OGM-G
        self.checks_per_instance = ([("silver", k) for k in orders] + [("ogm", n) for n in steps]
                                    + [("gsw", k) for k in orders] + [("ogmg", n) for n in steps])
        # seed 0 gives criterion 5's instances (seed bases 2000 and 3000)
        self.bases = (2000 + 100 * seed, 3000 + 100 * seed)
        self.per_kind = per_kind
        self.cells_per_pass = 2 * per_kind * len(self.checks_per_instance)
        self.worst_ratio = 0.0
        self.violations = 0
        self.checks = 0

    def prepare(self) -> None:
        lasso_base, boxqp_base = self.bases
        self.specs = (
            [problems.ProblemSpec(kind="lasso", dim=10, rows=20, seed=lasso_base + s, tau=0.1)
             for s in range(self.per_kind)]
            + [problems.ProblemSpec(kind="boxqp", dim=8, rows=14, seed=boxqp_base + s, lo=-0.7, hi=0.8)
               for s in range(self.per_kind)]
        )

    def units(self) -> list[int]:
        return list(range(len(self.specs)))

    def run(self, unit: int) -> tuple[float, Outcome]:
        spec = self.specs[unit]
        start = time.perf_counter()
        problem = problems.make_problem(spec)
        x0 = problems.initial_point(spec)
        runs = []
        cell_seconds = {}
        for algo, size in self.checks_per_instance:
            run_start = time.perf_counter()
            runs.append((algo, size, RUNNERS[algo](size, problem, x0)))
            cell_seconds[f"{algo}-{size}"] = time.perf_counter() - run_start
        elapsed = time.perf_counter() - start

        L = problem.smoothness
        dist_sq = float(np.dot(x0 - problem.x_star, x0 - problem.x_star))
        failed = 0
        for algo, size, trace in runs:
            rate = catalog.named_rate(algo, size)
            if FAMILIES[algo][0] == "func":
                gap = trace.obj_values[-1] - problem.opt_value
                bound = rate * L * dist_sq
            else:
                gap = trace.final_composite_grad_norm**2
                bound = rate * L * (trace.obj_values[0] - trace.obj_values[-1])
            ok = math.isfinite(gap) and gap <= bound + ENVELOPE_SLACK
            failed += not ok
            self.worst_ratio = max(self.worst_ratio, gap / max(bound, 1e-300))
        self.violations += failed
        self.checks += len(runs)
        return elapsed, Outcome(attempted=len(runs), failed=failed, cell_seconds=cell_seconds)

    def summary(self) -> str:
        return (f"{self.checks} bound checks, {self.violations} violations at slack {ENVELOPE_SLACK:g}, "
                f"worst gap/bound {self.worst_ratio:.6f}, seed bases {self.bases}")


WORKLOADS = {
    "lift-large": LiftLarge,
    "certify-large": CertifyLarge,
    "sweep-grid": SweepGrid,
    "envelopes": Envelopes,
}
