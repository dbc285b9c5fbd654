"""Method runners: the composite extension, through proximal oracles, of the
n-step method for a stepsize matrix (the plain method when h is zero, as the
prox is then the identity), and the memory-efficient three-sequence forms of
the two optimized methods.

Problems carry an arbitrary smoothness constant; runners rescale the smooth
part (and the nonsmooth part with it) so the stepsizes apply to a 1-smooth
objective, then record unscaled quantities in the trace.  Concretely, with
smoothness L the update direction for gradient j is (alpha/L)(g_j + s_{j+1})
and the proximal step at stepsize alpha calls prox with parameter alpha/L.
Every runner takes f and its gradient at each iterate from one f_value_grad
call there, and the h values of a run from one h_rows call on its iterates.
"""

from __future__ import annotations

import csv
import functools
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
    Two fused oracles serve the runs: f_value_grad(x) returns (f_value(x),
    f_grad(x)) from one evaluation of the smooth part, and h_rows(X) returns
    [h_value(x) for x in X] as a float array for the C-contiguous rows X of a
    run.  Both must agree with the plain oracles bit for bit, so a
    dataclasses.replace copy that changes what an oracle returns must change
    its fused partner too.
    """

    dim: int
    f_value: Callable[[np.ndarray], float]
    f_grad: Callable[[np.ndarray], np.ndarray]
    f_value_grad: Callable[[np.ndarray], tuple[float, np.ndarray]]
    h_value: Callable[[np.ndarray], float]
    h_rows: Callable[[np.ndarray], np.ndarray]
    prox: Callable[[float, np.ndarray], np.ndarray]
    smoothness: float = 1.0
    x_star: np.ndarray | None = None
    opt_value: float | None = None


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


def _smooth_at(f_value_grad, x, L: float, f_vals: list, out: np.ndarray) -> None:
    """One fused smooth call at x: f(x) goes to f_vals and f'(x) / L to out."""
    value, grad = f_value_grad(x)
    f_vals.append(value)
    np.divide(grad, L, out)


def _finite(x_new: np.ndarray, step: int) -> np.ndarray:
    """The prox point of a step, checked: a non-finite one stops the run."""
    if not np.logical_and.reduce(np.isfinite(x_new)):
        raise ValueError(f"prox oracle returned a non-finite point at step {step}")
    return x_new


def _trace(problem: ProxProblem, xs, ghat, shat, f_vals: list) -> RunTrace:
    """The run's record; f_vals holds f at each iterate, from the runner's
    one fused smooth call there, and h comes from one h_rows call."""
    L = problem.smoothness
    f_vals = np.array(f_vals)
    h_vals = problem.h_rows(xs)
    return RunTrace(xs=xs, grads=L * ghat, subgrads=L * shat,
                    f_values=f_vals, h_values=h_vals, obj_values=f_vals + h_vals)


def run_composite(H: StepsizeMatrix, problem: ProxProblem, x0) -> RunTrace:
    """Run the composite extension of the method with stepsize matrix H.

    Uses the prox-implementable form: each step shifts by the full history
    of combined directions g_j + s_{j+1}, applies prox at the fresh stepsize,
    and recovers the new subgradient from the prox residual.  This is the
    O(n * dim)-memory reference implementation the efficient forms are
    validated against.
    """
    L = problem.smoothness
    f_value_grad = problem.f_value_grad
    a = H.entries
    n = H.n
    xs, ghat, shat = _buffers(n, problem.dim)
    f_vals = []
    combined = np.empty((n, problem.dim))  # row j: (g_j + s_{j+1}) / L
    xs[0] = _as_start(problem, x0)
    for k in range(1, n + 1):
        x_prev = xs[k - 1]
        g_prev = ghat[k - 1]
        _smooth_at(f_value_grad, x_prev, L, f_vals, g_prev)
        akk = a[k - 1, k - 1]  # nonzero: StepsizeMatrix rejects a zero diagonal
        drift = a[: k - 1, k - 1].dot(combined[: k - 1]) if k >= 2 else 0.0
        x_new = _finite(problem.prox(akk / L, x_prev - drift - akk * g_prev), k)
        xs[k] = x_new
        np.subtract((x_prev - x_new - drift) / akk, g_prev, shat[k - 1])
        combined[k - 1] = g_prev + shat[k - 1]
    _smooth_at(f_value_grad, xs[n], L, f_vals, ghat[n])
    return _trace(problem, xs, ghat, shat, f_vals)


def _run_three_sequence(problem: ProxProblem, x0, coef1, coef2, fresh) -> RunTrace:
    """Shared y/z/x recursion: z aggregates momentum (coef1[k], coef2[k] at
    step k) on top of the forward step y, x is the prox of z at the fresh
    stepsize fresh[k], and the subgradient comes from the prox residual.  The
    correction (z_k - x_k)/fresh[k-1] is the previous step's subgradient
    shat[k-1], read back rather than recomputed, and is skipped at k = 0
    where it vanishes by construction."""
    n = len(fresh)
    L = problem.smoothness
    f_value_grad = problem.f_value_grad
    xs, ghat, shat = _buffers(n, problem.dim)
    f_vals = []
    xs[0] = y = _as_start(problem, x0)
    _smooth_at(f_value_grad, y, L, f_vals, ghat[0])
    for k in range(n):
        x = xs[k]
        y_new = x - ghat[k]
        z_new = y_new + coef2[k] * (y_new - x)
        if k == 0:
            z_new = z_new + coef1[k] * (y_new - y)
        else:
            z_new = z_new + coef1[k] * (y_new - y + shat[k - 1])
        x_new = _finite(problem.prox(fresh[k] / L, z_new), k + 1)
        xs[k + 1] = x_new
        np.divide(z_new - x_new, fresh[k], shat[k])
        _smooth_at(f_value_grad, x_new, L, f_vals, ghat[k + 1])
        y = y_new
    return _trace(problem, xs, ghat, shat, f_vals)


@functools.cache
def _pogm_coefficients(n: int) -> tuple[tuple[float, ...], ...]:
    """coef1, coef2 and fresh of the n-step POGM, built once per horizon."""
    theta = theta_sequence(n)
    t, t_next = theta[:-1], theta[1:]  # theta_k, theta_{k+1} at step k
    return (tuple(((t - 1.0) / t_next).tolist()), tuple((t / t_next).tolist()),
            tuple((1.0 + (2.0 * t - 1.0) / t_next).tolist()))


@functools.cache
def _pogmg_coefficients(n: int) -> tuple[tuple[float, ...], ...]:
    """coef1, coef2 and fresh of the n-step POGM-G, built once per horizon."""
    theta = theta_sequence(n)[::-1]
    t, t_prev = theta[:-1], theta[1:]  # theta_{n-k}, theta_{n-k-1} at step k
    return (tuple(((t - 1.0) * (2.0 * t_prev - 1.0) / (t * (2.0 * t - 1.0))).tolist()),
            tuple(((2.0 * t_prev - 1.0) / (2.0 * t - 1.0)).tolist()),
            tuple((1.0 + (2.0 * t_prev - 1.0) / t).tolist()))


def run_pogm(n: int, problem: ProxProblem, x0) -> RunTrace:
    """Proximal optimized gradient method: the composite extension of the
    optimized method, in O(dim) memory."""
    return _run_three_sequence(problem, x0, *_pogm_coefficients(n))


def run_pogmg(n: int, problem: ProxProblem, x0) -> RunTrace:
    """Proximal gradient-norm optimized method (reversed-index coefficients)."""
    return _run_three_sequence(problem, x0, *_pogmg_coefficients(n))


def run_fista(n: int, problem: ProxProblem, x0) -> RunTrace:
    """FISTA with constant step 1/L, as a baseline runner; f_grad gives the
    gradient at y_1..y_{n-1}, and at y_0 = x_0 the fused one serves."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    L = problem.smoothness
    f_value_grad = problem.f_value_grad
    xs, ghat, shat = _buffers(n, problem.dim)
    f_vals = []
    xs[0] = _as_start(problem, x0)
    _smooth_at(f_value_grad, xs[0], L, f_vals, ghat[0])
    y = xs[0]
    t = 1.0
    for k in range(n):
        z = y - (problem.f_grad(y) / L if k else ghat[0])  # y = x_0 at k = 0: its fused gradient serves
        x_new = _finite(problem.prox(1.0 / L, z), k + 1)
        np.subtract(z, x_new, shat[k])  # prox residual at unit normalized step
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        y = x_new + (t - 1.0) / t_new * (x_new - xs[k])
        xs[k + 1] = x_new
        _smooth_at(f_value_grad, x_new, L, f_vals, ghat[k + 1])
        t = t_new
    return _trace(problem, xs, ghat, shat, f_vals)


# ---------------------------------------------------------------------------
# Trace export
# ---------------------------------------------------------------------------


def trace_summary(trace: RunTrace, problem: ProxProblem) -> dict:
    """Per-iterate gaps, stationarity norms and distances as a JSON-ready dict.

    The gaps and distances are measured against the problem's reference
    optimum, which make_problem attaches; a problem without one raises
    ValueError.  Every non-finite value (indicator h at an infeasible start,
    a run that overflows) becomes None, since JSON has no representation for it.
    """
    from .reports import finite_or_none  # not at import time: peplift.__all__ lists its loaded modules

    if problem.x_star is None or problem.opt_value is None:
        raise ValueError("a trace export needs the problem's reference optimum, x_star and opt_value")
    n = trace.n
    return finite_or_none({
        "n": n,
        "obj": trace.obj_values.tolist(),
        "grad_plus_subgrad_sq": [None]
        + [float(np.dot(trace.grads[i] + trace.subgrads[i - 1], trace.grads[i] + trace.subgrads[i - 1])) for i in range(1, n + 1)],
        "obj_gap": (trace.obj_values - problem.opt_value).tolist(),
        "dist_to_opt": [float(np.linalg.norm(x - problem.x_star)) for x in trace.xs],
    })


def write_trace_csv(trace: RunTrace, path, problem: ProxProblem) -> None:
    """One row per iterate: objective, gap and stationarity columns."""
    doc = trace_summary(trace, problem)
    fields = ["obj", "grad_plus_subgrad_sq", "obj_gap", "dist_to_opt"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", *fields])
        for k in range(trace.n + 1):
            writer.writerow([k, *("" if doc[name][k] is None else repr(doc[name][k]) for name in fields)])
