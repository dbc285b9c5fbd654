"""Method runners: the plain n-step method for a stepsize matrix, its
composite extension through proximal oracles, and the memory-efficient
three-sequence forms of the two optimized methods.

Problems carry an arbitrary smoothness constant; runners rescale the smooth
part (and the nonsmooth part with it) so the stepsizes apply to a 1-smooth
objective, then record unscaled quantities in the trace.  Concretely, with
smoothness L the update direction for gradient j is (alpha/L)(g_j + s_{j+1})
and the proximal step at stepsize alpha calls prox with parameter alpha/L.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .schedules import StepsizeMatrix, theta_sequence


@dataclass(frozen=True)
class ProxProblem:
    """Composite instance F = f + h with oracle access.

    f_value/f_grad evaluate the smooth part (convex, `smoothness`-smooth);
    h_value may return +inf outside the domain of an indicator; prox(t, x)
    returns argmin_z { t h(z) + ||z - x||^2 / 2 }.  Oracles take 1-D float
    arrays and must be pure; a known minimizer and optimal value are optional.
    """

    dim: int
    f_value: Callable[[np.ndarray], float]
    f_grad: Callable[[np.ndarray], np.ndarray]
    h_value: Callable[[np.ndarray], float]
    prox: Callable[[float, np.ndarray], np.ndarray]
    smoothness: float = 1.0
    smooth_only: bool = False
    x_star: np.ndarray | None = None
    opt_value: float | None = None

    def objective(self, x: np.ndarray) -> float:
        return float(self.f_value(x)) + float(self.h_value(x))


@dataclass(frozen=True)
class RunTrace:
    """Everything a run produced, in unscaled units.

    xs: iterates x_0..x_n; grads: smooth gradients there; subgrads: the
    recovered s_1..s_n with s_i a subgradient of h at x_i; f/h/obj values per
    iterate (obj may be +inf at x_0 for indicator h).
    """

    xs: np.ndarray
    grads: np.ndarray
    subgrads: np.ndarray
    f_values: np.ndarray
    h_values: np.ndarray
    obj_values: np.ndarray

    @property
    def n(self) -> int:
        return self.xs.shape[0] - 1

    @property
    def final_composite_grad(self) -> np.ndarray:
        """g_n + s_n, the stationarity residual the gradient metric bounds."""
        if self.n < 1:
            raise ValueError("need at least one step")
        return self.grads[-1] + self.subgrads[-1]

    @property
    def final_composite_grad_norm(self) -> float:
        return float(np.linalg.norm(self.final_composite_grad))


def _as_start(problem: ProxProblem, x0) -> np.ndarray:
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (problem.dim,):
        raise ValueError(f"x0 has shape {x0.shape}, problem dimension is {problem.dim}")
    return x0


def _buffers(n: int, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows for x_0..x_n, the scaled gradients g_0..g_n / L and the scaled
    subgradients s_1..s_n / L, filled in place by a runner."""
    return np.empty((n + 1, dim)), np.empty((n + 1, dim)), np.empty((n, dim))


def _trace(problem: ProxProblem, xs, ghat, shat) -> RunTrace:
    L = problem.smoothness
    f_vals = np.array([problem.f_value(x) for x in xs])
    h_vals = np.array([problem.h_value(x) for x in xs])
    return RunTrace(xs=xs, grads=L * ghat, subgrads=L * shat,
                    f_values=f_vals, h_values=h_vals, obj_values=f_vals + h_vals)


def run_unconstrained(H: StepsizeMatrix, problem: ProxProblem, x0) -> RunTrace:
    """Run the plain n-step method; the problem must have no nonsmooth part."""
    if not problem.smooth_only:
        raise ValueError("run_unconstrained needs a problem with h identically zero")
    L = problem.smoothness
    a = H.entries
    xs, ghat, _ = _buffers(H.n, problem.dim)
    xs[0] = _as_start(problem, x0)
    ghat[0] = problem.f_grad(xs[0]) / L
    for k in range(1, H.n + 1):
        xs[k] = xs[k - 1] - a[:k, k - 1] @ ghat[:k]
        ghat[k] = problem.f_grad(xs[k]) / L
    return _trace(problem, xs, ghat, np.zeros((H.n, problem.dim)))


def run_composite(H: StepsizeMatrix, problem: ProxProblem, x0) -> RunTrace:
    """Run the composite extension of the method with stepsize matrix H.

    Uses the prox-implementable form: each step shifts by the full history
    of combined directions g_j + s_{j+1}, applies prox at the fresh stepsize,
    and recovers the new subgradient from the prox residual.  This is the
    O(n * dim)-memory reference implementation the efficient forms are
    validated against.
    """
    L = problem.smoothness
    a = H.entries
    n = H.n
    xs, ghat, shat = _buffers(n, problem.dim)
    combined = np.empty((n, problem.dim))  # row j: (g_j + s_{j+1}) / L
    xs[0] = _as_start(problem, x0)
    for k in range(1, n + 1):
        x_prev = xs[k - 1]
        g_prev = ghat[k - 1] = problem.f_grad(x_prev) / L
        akk = a[k - 1, k - 1]  # nonzero: StepsizeMatrix rejects a zero diagonal
        drift = a[: k - 1, k - 1] @ combined[: k - 1] if k >= 2 else 0.0
        x_new = problem.prox(akk / L, x_prev - drift - akk * g_prev)
        if not np.isfinite(x_new).all():
            raise ValueError(f"prox oracle returned a non-finite point at step {k}")
        xs[k] = x_new
        shat[k - 1] = (x_prev - x_new - drift) / akk - g_prev
        combined[k - 1] = g_prev + shat[k - 1]
    ghat[n] = problem.f_grad(xs[n]) / L
    return _trace(problem, xs, ghat, shat)


def _run_three_sequence(problem: ProxProblem, x0, coef1, coef2, fresh) -> RunTrace:
    """Shared y/z/x recursion: z aggregates momentum (coef1[k], coef2[k] at
    step k) on top of the forward step y, x is the prox of z at the fresh
    stepsize fresh[k], and the subgradient comes from the prox residual.  The
    correction (z_k - x_k)/fresh[k-1] is skipped at k = 0 where it vanishes by
    construction."""
    n = len(fresh)
    L = problem.smoothness
    xs, ghat, shat = _buffers(n, problem.dim)
    xs[0] = y = z = _as_start(problem, x0)
    ghat[0] = problem.f_grad(y) / L
    for k in range(n):
        x = xs[k]
        y_new = x - ghat[k]
        z_new = y_new + coef2[k] * (y_new - x)
        if k == 0:
            z_new = z_new + coef1[k] * (y_new - y)
        else:
            z_new = z_new + coef1[k] * (y_new - y + (z - x) / fresh[k - 1])
        x_new = problem.prox(fresh[k] / L, z_new)
        if not np.isfinite(x_new).all():
            raise ValueError(f"prox oracle returned a non-finite point at step {k + 1}")
        xs[k + 1] = x_new
        shat[k] = (z_new - x_new) / fresh[k]
        ghat[k + 1] = problem.f_grad(x_new) / L
        y, z = y_new, z_new
    return _trace(problem, xs, ghat, shat)


def run_pogm(n: int, problem: ProxProblem, x0) -> RunTrace:
    """Proximal optimized gradient method: the composite extension of the
    optimized method, in O(dim) memory."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    theta = theta_sequence(n)
    t, t_next = theta[:-1], theta[1:]  # theta_k, theta_{k+1} at step k
    return _run_three_sequence(problem, x0, ((t - 1.0) / t_next).tolist(), (t / t_next).tolist(),
                               (1.0 + (2.0 * t - 1.0) / t_next).tolist())


def run_pogmg(n: int, problem: ProxProblem, x0) -> RunTrace:
    """Proximal gradient-norm optimized method (reversed-index coefficients)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    theta = theta_sequence(n)[::-1]
    t, t_prev = theta[:-1], theta[1:]  # theta_{n-k}, theta_{n-k-1} at step k
    return _run_three_sequence(
        problem, x0,
        ((t - 1.0) * (2.0 * t_prev - 1.0) / (t * (2.0 * t - 1.0))).tolist(),
        ((2.0 * t_prev - 1.0) / (2.0 * t - 1.0)).tolist(),
        (1.0 + (2.0 * t_prev - 1.0) / t).tolist(),
    )


def run_fista(n: int, problem: ProxProblem, x0) -> RunTrace:
    """FISTA with constant step 1/L, as a baseline runner."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    L = problem.smoothness
    xs, ghat, shat = _buffers(n, problem.dim)
    xs[0] = _as_start(problem, x0)
    ghat[0] = problem.f_grad(xs[0]) / L
    y = xs[0]
    t = 1.0
    for k in range(n):
        z = y - problem.f_grad(y) / L
        x_new = problem.prox(1.0 / L, z)
        shat[k] = z - x_new  # prox residual at unit normalized step
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        y = x_new + (t - 1.0) / t_new * (x_new - xs[k])
        xs[k + 1] = x_new
        ghat[k + 1] = problem.f_grad(x_new) / L
        t = t_new
    return _trace(problem, xs, ghat, shat)


# ---------------------------------------------------------------------------
# Trace export
# ---------------------------------------------------------------------------


def trace_summary(trace: RunTrace, problem: ProxProblem | None = None) -> dict:
    """Per-iterate gaps, stationarity norms and distances as a JSON-ready dict.

    Infinite objective values (indicator h at an infeasible start) become
    None, since JSON has no representation for them.
    """
    n = trace.n
    def _clean(x: float):
        return None if not np.isfinite(x) else float(x)

    doc: dict = {
        "n": n,
        "obj": [_clean(v) for v in trace.obj_values],
        "grad_plus_subgrad_sq": [None]
        + [float(np.dot(trace.grads[i] + trace.subgrads[i - 1], trace.grads[i] + trace.subgrads[i - 1])) for i in range(1, n + 1)],
    }
    if problem is not None and problem.opt_value is not None:
        doc["obj_gap"] = [_clean(v - problem.opt_value) for v in trace.obj_values]
    if problem is not None and problem.x_star is not None:
        doc["dist_to_opt"] = [float(np.linalg.norm(x - problem.x_star)) for x in trace.xs]
    return doc


def write_trace_csv(trace: RunTrace, path, problem: ProxProblem | None = None) -> None:
    """One row per iterate: objective, gap and stationarity columns."""
    doc = trace_summary(trace, problem)
    fields = ["k", "obj", "grad_plus_subgrad_sq"]
    if "obj_gap" in doc:
        fields.append("obj_gap")
    if "dist_to_opt" in doc:
        fields.append("dist_to_opt")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for k in range(trace.n + 1):
            row = [k]
            for name in fields[1:]:
                value = doc[name][k]
                row.append("" if value is None else repr(value))
            writer.writerow(row)
