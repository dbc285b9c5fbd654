"""Family registry: one row per certificate family.

The certify/lift machinery is algorithm-agnostic; everything specific to the
four families (which metric they certify, how they are sized, which xi makes
the slack matrix checkably feasible, what the resulting constant simplifies
to, how the method is run) is one `Family` row.  Rows call builders, runners
and verifiers through names looked up at call time, never through stored
function references, so anything that rebinds those names sees every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .certificates import (
    FuncCertificate,
    GradCertificate,
    gsw_grad_certificate,
    ogm_func_certificate,
    ogmg_grad_certificate,
    silver_func_certificate,
)
from .lift import Cell, verify_cell
from .methods import ProxProblem, RunTrace, run_composite, run_pogm, run_pogmg
from .schedules import SILVER_RATIO, ScheduleSpec, StepsizeMatrix, gsw_taus, theta_sequence


def _distance_bound(trace: RunTrace, problem: ProxProblem, x0: np.ndarray, rate: float) -> tuple[float, float]:
    """Final objective gap against rate * L * ||x0 - x*||^2."""
    return (trace.obj_values[-1] - problem.opt_value,
            rate * problem.smoothness * float(np.dot(x0 - problem.x_star, x0 - problem.x_star)))


def _descent_bound(trace: RunTrace, problem: ProxProblem, x0: np.ndarray, rate: float) -> tuple[float, float]:
    """Final squared composite gradient norm against rate * L * (F(x0) - F(xn))."""
    return (trace.final_composite_grad_norm**2,
            rate * problem.smoothness * (trace.obj_values[0] - trace.obj_values[-1]))


@dataclass(frozen=True)
class Family:
    """Everything specific to one family, as functions of its size (the
    doubling order k or the step count n, per `size_flag`).

    `xi` is the slack constant under which feasibility is checkable by
    structure; None leaves the lift's own default.  `rate` is the closed form
    of the certified constant.  `run` executes the composite method on a
    problem, and `bound` turns a run into (observed gap, certified bound).
    """

    name: str
    metric: str
    size_flag: str
    asymptotic: str
    schedule: Callable[[int], StepsizeMatrix]
    certificate: Callable[[int], FuncCertificate | GradCertificate]
    xi: Callable[[int], float | None]
    rate: Callable[[int], float]
    run: Callable[[int, ProxProblem, np.ndarray], RunTrace]
    bound: Callable[[RunTrace, ProxProblem, np.ndarray, float], tuple[float, float]]

    def cell(self, size: int, xi: float | str | None = None, *, lift: bool = True) -> Cell:
        """Certify, and unless lift is False, lift and verify at this size."""
        return verify_cell(self.schedule(size), self.certificate(size), xi, lift=lift)


def _gsw_xi(k: int) -> float:
    # equals the lift's corner-zeroing default for k >= 2 and keeps the
    # certified constant at the closed form 2*sqrt(2)/tau_k for every k
    tau = float(gsw_taus(k)[-1])
    return 1.0 - tau / (math.sqrt(2.0) * (tau - 1.0))


FAMILIES = {family.name: family for family in (
    Family(
        name="silver", metric="func", size_flag="k", asymptotic="O(1/n^{log2(1+sqrt(2))})",
        schedule=lambda k: ScheduleSpec.silver(k).build(),
        certificate=lambda k: silver_func_certificate(k),
        xi=lambda k: 1.0 / math.sqrt(2.0),
        rate=lambda k: SILVER_RATIO / (math.sqrt(2.0) * (4.0 * SILVER_RATIO**k - 2.0)),
        run=lambda k, problem, x0: run_composite(ScheduleSpec.silver(k).build(), problem, x0),
        bound=_distance_bound,
    ),
    Family(
        name="gsw", metric="grad", size_flag="k", asymptotic="O(1/n^{log2(1+sqrt(2))})",
        schedule=lambda k: ScheduleSpec.gsw(k).build(),
        certificate=lambda k: gsw_grad_certificate(k),
        xi=_gsw_xi,
        rate=lambda k: 2.0 * math.sqrt(2.0) / float(gsw_taus(k)[-1]),
        run=lambda k, problem, x0: run_composite(ScheduleSpec.gsw(k).build(), problem, x0),
        bound=_descent_bound,
    ),
    Family(
        name="ogm", metric="func", size_flag="n", asymptotic="O(1/n^2)",
        schedule=lambda n: ScheduleSpec.ogm(n).build(),
        certificate=lambda n: ogm_func_certificate(n),
        xi=lambda n: (math.sqrt(5.0) - 1.0) / 4.0 if n >= 2 else 1.0 / 3.0,
        rate=lambda n: (3.0 + math.sqrt(5.0)) / (8.0 * theta_sequence(n).values[-1] ** 2) if n >= 2 else 1.0 / 6.0,
        run=lambda n, problem, x0: run_pogm(n, problem, x0),
        bound=_distance_bound,
    ),
    Family(
        name="ogmg", metric="grad", size_flag="n", asymptotic="O(1/n^2)",
        schedule=lambda n: ScheduleSpec.ogmg(n).build(),
        certificate=lambda n: ogmg_grad_certificate(n),
        xi=lambda n: None,  # the lift's corner-zeroing 1 - (lam[n-1,n] + lam[n,n-1]) / r
        rate=lambda n: 2.0 * (math.sqrt(5.0) - 1.0) / theta_sequence(n).values[-1] ** 2 if n >= 2 else 2.0 / 3.0,
        run=lambda n, problem, x0: run_pogmg(n, problem, x0),
        bound=_descent_bound,
    ),
)}


def named_rate(algo: str, size: int) -> float:
    """Closed-form constant of the composite rate for the family."""
    return FAMILIES[algo].rate(size)
