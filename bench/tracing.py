"""Spans around the public entry points of peplift's layers.

Nothing here edits peplift.  While a :class:`Tracer` is installed it swaps
module and class attributes for timing wrappers; ``uninstall`` puts the
originals back.  Each wrapped call records one span (name, start, end,
parent).  Oracle calls are far too many for spans, so they are counted and
timed in aggregate and charged to the enclosing span as child time.

Every ``*_ms`` stage metric is the inclusive time of its spans; ``cli.self_ms``
is a self time (span time minus child spans).  Self times per span name are
reported separately, in the trace file.
"""

from __future__ import annotations

import dataclasses
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

# span name -> (module, attribute path) of every public entry point it wraps
BOUNDARIES = {
    "cli.main": [("peplift.cli", "main")],
    "schedules.build": [("peplift.schedules", "ScheduleSpec.build")],
    "certificates.build": [
        ("peplift.certificates", name)
        for name in ("silver_func_certificate", "ogm_func_certificate",
                     "gsw_grad_certificate", "ogmg_grad_certificate")
    ],
    "certificates.verify": [
        ("peplift.certificates", "verify_func_identity"),
        ("peplift.certificates", "verify_grad_identity"),
    ],
    "ledger.assemble": [
        ("peplift.certificates", "func_identity_ledgers"),
        ("peplift.certificates", "grad_identity_ledgers"),
        ("peplift.lift", "composite_func_ledgers"),
        ("peplift.lift", "composite_grad_ledgers"),
    ],
    "ledger.compare": [
        ("peplift.ledger", "GramLedger.residual_vs"),
        ("peplift.ledger", "GramLedger.max_abs"),
    ],
    "lift.lift": [("peplift.lift", "lift_func"), ("peplift.lift", "lift_grad")],
    "lift.feasibility": [
        ("peplift.lift", "check_func_feasibility"),
        ("peplift.lift", "check_grad_feasibility"),
    ],
    "lift.composite_identity": [
        ("peplift.lift", "verify_composite_func_identity"),
        ("peplift.lift", "verify_composite_grad_identity"),
    ],
    "problems.make_problem": [("peplift.problems", "make_problem")],
    # private: a refactor that drops it shows up in Tracer.missing
    "problems.reference_solve": [("peplift.problems", "_reference_optimum")],
    "methods.runner": [
        ("peplift.methods", name) for name in ("run_composite", "run_pogm", "run_pogmg", "run_fista")
    ],
    "reports.write": [("peplift.reports", "dumps17"), ("peplift.reports", "write_rollup_csv")],
}

ORACLES = ("f_value", "f_grad", "h_value", "prox")

# per-layer metric -> unit, in the order BENCHMARK.json lists them
LAYER_UNITS = {
    "ledger.assemble_ms": "ms",
    "lift.composite_identity_ms": "ms",
    "lift.nonsmooth_inequalities": "count",
    "ledger.compare_ms": "ms",
    "ledger.quad_bytes": "bytes",
    "certificates.verify_ms": "ms",
    "certificates.smooth_inequalities": "count",
    "certificates.tol_ratio": "ratio",
    "schedules.build_ms": "ms",
    "certificates.build_ms": "ms",
    "certificates.builds_per_cell": "count",
    "lift.lift_ms": "ms",
    "lift.feasibility_ms": "ms",
    "lift.tol_ratio": "ratio",
    "lift.min_mu_ratio": "ratio",
    "lift.min_eig_ratio": "ratio",
    "problems.make_problem_ms": "ms",
    "problems.reference_solves": "count",
    "problems.unique_spec_ratio": "ratio",
    "methods.runner_ms": "ms",
    "methods.iterates": "count",
    "methods.us_per_iterate": "us",
    "methods.oracle_calls": "count",
    "methods.oracle_share": "ratio",
    "reports.write_ms": "ms",
    "reports.bytes_written": "bytes",
    "cli.self_ms": "ms",
    "bench.trace_overhead_s": "s",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_s")

    def __init__(self, name: str, start: float, parent: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.child_s = 0.0

    @property
    def self_s(self) -> float:
        return (self.end - self.start) - self.child_s

    def to_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end, "parent": self.parent}


def _resolve(module: str, path: str):
    """(owner, attribute, current value) or None when the target is absent."""
    owner = sys.modules.get(module)
    *head, attr = path.split(".")
    for part in head:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, attr):
        return None
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.oracle_calls = 0
        self.oracle_s = 0.0
        self.unique_specs: set[str] = set()
        self.tol_ratio = {"certificates": 0.0, "lift": 0.0}
        self.min_mu_ratio = None
        self.min_eig_ratio = None

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)

        def traced(*args, **kwargs):
            stack = self._stack
            parent = stack[-1] if stack else -1
            span = Span(name, time.perf_counter(), parent)
            stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent >= 0:
                    self.spans[parent].child_s += span.end - span.start
            return hook(self, args, result) if hook else result

        traced.__wrapped__ = fn
        return traced

    def wrap_oracles(self, problem):
        """Copy of a problem whose oracles count and time their calls."""

        def timed(fn):
            def call(*args):
                start = time.perf_counter()
                try:
                    return fn(*args)
                finally:
                    elapsed = time.perf_counter() - start
                    self.oracle_calls += 1
                    self.oracle_s += elapsed
                    if self._stack:
                        self.spans[self._stack[-1]].child_s += elapsed
            return call

        return dataclasses.replace(problem, **{name: timed(getattr(problem, name)) for name in ORACLES})

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Swap every boundary for its wrapper, wherever peplift holds it."""
        self.missing = []
        modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "peplift" and m is not None]
        for name, targets in BOUNDARIES.items():
            for module, path in targets:
                found = _resolve(module, path)
                if found is None:
                    self.missing.append(f"{module}:{path}")
                    continue
                owner, attr, original = found
                wrapper = self._wrap(name, original)
                if isinstance(owner, type):
                    self._patch(owner, attr, original, wrapper)
                    continue
                for mod in modules:  # names imported with `from ... import`
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- summaries ---------------------------------------------------------

    def total_ms(self, name: str) -> float:
        return 1000.0 * sum(s.end - s.start for s in self.spans if s.name == name)

    def self_seconds(self) -> dict[str, float]:
        """Self time per span name; oracle time is its own entry."""
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span.name] += span.self_s
        if self.oracle_calls:
            out["methods.oracle"] = self.oracle_s
        return dict(out)

    def layer_metrics(self, cells: int, bytes_written: int) -> dict[str, float]:
        """Per-layer metrics of everything recorded since the last reset."""
        c = self.counts
        runner_ms = self.total_ms("methods.runner")
        iterates = c["methods.iterates"]
        solves = c["problems.reference_solves"]
        return {
            "ledger.assemble_ms": self.total_ms("ledger.assemble"),
            "lift.composite_identity_ms": self.total_ms("lift.composite_identity"),
            "lift.nonsmooth_inequalities": c["lift.nonsmooth_inequalities"],
            "ledger.compare_ms": self.total_ms("ledger.compare"),
            "ledger.quad_bytes": c["ledger.quad_bytes"],
            "certificates.verify_ms": self.total_ms("certificates.verify"),
            "certificates.smooth_inequalities": c["certificates.smooth_inequalities"],
            "certificates.tol_ratio": self.tol_ratio["certificates"],
            "schedules.build_ms": self.total_ms("schedules.build"),
            "certificates.build_ms": self.total_ms("certificates.build"),
            "certificates.builds_per_cell": c["certificates.builds"] / cells,
            "lift.lift_ms": self.total_ms("lift.lift"),
            "lift.feasibility_ms": self.total_ms("lift.feasibility"),
            "lift.tol_ratio": self.tol_ratio["lift"],
            "lift.min_mu_ratio": 0.0 if self.min_mu_ratio is None else self.min_mu_ratio,
            "lift.min_eig_ratio": 0.0 if self.min_eig_ratio is None else self.min_eig_ratio,
            "problems.make_problem_ms": self.total_ms("problems.make_problem"),
            "problems.reference_solves": solves,
            "problems.unique_spec_ratio": len(self.unique_specs) / solves if solves else 0.0,
            "methods.runner_ms": runner_ms,
            "methods.iterates": iterates,
            "methods.us_per_iterate": 1000.0 * runner_ms / iterates if iterates else 0.0,
            "methods.oracle_calls": float(self.oracle_calls),
            "methods.oracle_share": 1000.0 * self.oracle_s / runner_ms if runner_ms else 0.0,
            "reports.write_ms": self.total_ms("reports.write"),
            "reports.bytes_written": float(bytes_written),
            "cli.self_ms": 1000.0 * sum(s.self_s for s in self.spans if s.name == "cli.main"),
        }


# ---------------------------------------------------------------------------
# Hooks: counts read off the arguments and results at each boundary
# ---------------------------------------------------------------------------


def _count_certificate_build(tracer: Tracer, args, result):
    tracer.counts["certificates.builds"] += 1
    return result


def _ratio(report) -> float:
    return report.max_residual / (report.tol * report.scale)


def _identity_verified(tracer: Tracer, args, result):
    lam = np.asarray(args[1].lam)
    off_diagonal = np.count_nonzero(lam) - np.count_nonzero(np.diagonal(lam))
    tracer.counts["certificates.smooth_inequalities"] += off_diagonal
    tracer.tol_ratio["certificates"] = max(tracer.tol_ratio["certificates"], _ratio(result))
    return result


def _ledgers_assembled(tracer: Tracer, args, result):
    for led in result:
        tracer.counts["ledger.quad_bytes"] += 8 * (2 * led.n + 3) ** 2
    if len(args) >= 3 and hasattr(args[2], "mu"):  # composite: (H, cert, lift)
        tracer.counts["lift.nonsmooth_inequalities"] += np.count_nonzero(args[2].mu)
    return result


def _composite_verified(tracer: Tracer, args, result):
    tracer.tol_ratio["lift"] = max(tracer.tol_ratio["lift"], _ratio(result))
    return result


def _feasibility_checked(tracer: Tracer, args, result):
    from peplift import config

    mu_ratio = result.min_mu / (config.MU_TOL * result.mu_scale)
    eig_ratio = result.min_eig / (config.PSD_TOL * max(result.spectral_norm, 1.0))
    tracer.min_mu_ratio = mu_ratio if tracer.min_mu_ratio is None else min(tracer.min_mu_ratio, mu_ratio)
    tracer.min_eig_ratio = eig_ratio if tracer.min_eig_ratio is None else min(tracer.min_eig_ratio, eig_ratio)
    return result


def _problem_made(tracer: Tracer, args, result):
    tracer.unique_specs.add(args[0].digest())
    return tracer.wrap_oracles(result)


def _reference_solved(tracer: Tracer, args, result):
    tracer.counts["problems.reference_solves"] += 1
    return result


def _runner_finished(tracer: Tracer, args, result):
    tracer.counts["methods.iterates"] += len(result.xs) - 1
    return result


_HOOKS = {
    "certificates.build": _count_certificate_build,
    "certificates.verify": _identity_verified,
    "ledger.assemble": _ledgers_assembled,
    "lift.composite_identity": _composite_verified,
    "lift.feasibility": _feasibility_checked,
    "problems.make_problem": _problem_made,
    "problems.reference_solve": _reference_solved,
    "methods.runner": _runner_finished,
}


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}
