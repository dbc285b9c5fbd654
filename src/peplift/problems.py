"""Prox-friendly composite test instances with exact oracles.

Instance kinds: lasso (least squares + l1), box-constrained least squares
(indicator h), smooth-only quadratic or Huber, and l1-regularized logistic
regression.  Smoothness constants come from the largest eigenvalue of the
Gram matrix.  Optimal values are produced by a high-accuracy reference solve
(FISTA with adaptive restart, capped at 1e5 iterations, plus an active-set
polish when the structure allows); an instance whose optimum leaves float
range is rejected.  Results are deterministic given the seed; cross-platform
agreement is to tolerance, not bit-exact.
"""

from __future__ import annotations

import hashlib
import json
import math
import reprlib
import sys
from dataclasses import dataclass, replace

import numpy as np

from .methods import ProxProblem

KINDS = ("lasso", "boxqp", "smooth_quadratic", "smooth_huber", "l1_logistic")

REFERENCE_MAX_ITERS = 100_000

_FLOAT_MAX = sys.float_info.max


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Declarative description of a test instance.

    rows=0 with kind 'lasso' or 'boxqp' means the identity design matrix, for
    which the minimizer has a closed form.  Explicit a/b arrays (a spec
    file's inline a and b) override the seeded random draw.
    """

    kind: str
    dim: int
    rows: int = 0
    seed: int = 0
    tau: float = 0.1
    lo: float = -1.0
    hi: float = 1.0
    delta: float = 1.0  # Huber knee
    a: np.ndarray | None = None
    b: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown problem kind {reprlib.repr(self.kind)}; valid: {KINDS}")
        if self.dim < 1:
            raise ValueError(f"dimension must be positive, got {self.dim}")
        # "not > 0" also rejects nan
        if self.kind in ("lasso", "l1_logistic") and not self.tau > 0:
            raise ValueError(f"l1 weight must be positive, got {self.tau}")
        if self.kind == "smooth_huber" and not self.delta > 0:
            raise ValueError(f"Huber knee must be positive, got {self.delta}")
        if self.kind == "boxqp" and not self.lo <= self.hi:
            raise ValueError(f"box requires lo <= hi, got [{self.lo}, {self.hi}]")

    def canonical(self) -> dict:
        doc = {"kind": self.kind, "dim": self.dim, "rows": self.rows, "seed": self.seed,
               "tau": self.tau, "lo": self.lo, "hi": self.hi, "delta": self.delta}
        if self.a is not None:
            doc["a"] = np.asarray(self.a).tolist()
        if self.b is not None:
            doc["b"] = np.asarray(self.b).tolist()
        return doc

    def digest(self) -> str:
        payload = json.dumps(self.canonical(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:16]


def spec_from_json(path) -> ProblemSpec:
    """Read a problem spec file; malformed fields raise ValueError.

    The file is outside input, so the field types are checked here: kind and
    dim are required, dim/rows/seed are integers (dim >= 1, the others >= 0)
    and tau/lo/hi/delta are finite numbers.  An explicit design must be a
    finite 2-D a with dim columns, and b, which needs a, a finite 1-D vector
    with one entry per row of a.  A message echoes a field through
    reprlib.repr, so its length is bounded whatever the file holds.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except RecursionError:  # the decoder recurses once per nesting level
            raise ValueError("problem spec is nested too deeply to decode") from None
    if not isinstance(doc, dict):
        raise ValueError(f"problem spec must be a JSON object, got {type(doc).__name__}")
    a = b = None
    if "a" in doc:
        a = _float_array(doc.pop("a"), "a")
    if "b" in doc:
        b = _float_array(doc.pop("b"), "b")
    known = {"kind", "dim", "rows", "seed", "tau", "lo", "hi", "delta"}
    unknown = set(doc) - known
    if unknown:
        raise ValueError(f"unknown problem spec fields: {reprlib.repr(sorted(unknown))}")
    for name in ("kind", "dim"):
        if name not in doc:
            raise ValueError(f"problem spec needs a {name!r} field")
    for name, low in (("dim", 1), ("rows", 0), ("seed", 0)):
        value = doc.get(name, low)
        if isinstance(value, bool) or not isinstance(value, int) or value < low:
            raise ValueError(f"{name!r} must be an integer >= {low}, got {reprlib.repr(value)}")
    for name in ("tau", "lo", "hi", "delta"):
        value = doc.get(name, 0.0)
        # the comparisons also fail for nan and for integers beyond float range
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not -_FLOAT_MAX <= value <= _FLOAT_MAX:
            raise ValueError(f"{name!r} must be a finite number, got {reprlib.repr(value)}")
    if a is not None and (a.ndim != 2 or a.shape[1] != doc["dim"]):
        raise ValueError(f"'a' must be a 2-D array with dim={doc['dim']} columns, got shape {a.shape}")
    if b is not None and a is None:
        raise ValueError("'b' needs an explicit 'a'; the seeded design draws its own b")
    if b is not None and b.shape != (a.shape[0],):
        raise ValueError(f"'b' must be a 1-D array with one entry per row of 'a' ({a.shape[0]}), got shape {b.shape}")
    for name, value in (("a", a), ("b", b)):
        if value is not None and not np.isfinite(value).all():
            raise ValueError(f"{name!r} must hold finite numbers only")
    return ProblemSpec(a=a, b=b, **doc)


def _float_array(value, name: str) -> np.ndarray:
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):  # ragged lists, strings, objects
        raise ValueError(f"{name!r} must be an array of numbers") from None


def soft_threshold(x: np.ndarray, t: float) -> np.ndarray:
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def _design(spec: ProblemSpec) -> tuple[np.ndarray, np.ndarray]:
    if spec.a is not None:
        a = np.asarray(spec.a, dtype=float)
        b = np.asarray(spec.b, dtype=float) if spec.b is not None else np.zeros(a.shape[0])
        return a, b
    rng = np.random.default_rng(spec.seed)
    if spec.rows == 0:
        a = np.eye(spec.dim)
        b = rng.standard_normal(spec.dim)
    else:
        a = rng.standard_normal((spec.rows, spec.dim)) / math.sqrt(spec.rows)
        b = rng.standard_normal(spec.rows)
    return a, b


def initial_point(spec: ProblemSpec) -> np.ndarray:
    """Deterministic start drawn from the spec's seed; inside the box for
    box-constrained instances so the initial objective is finite."""
    rng = np.random.default_rng(spec.seed + 1)
    if spec.kind == "boxqp":
        return rng.uniform(spec.lo, spec.hi, size=spec.dim)
    return rng.standard_normal(spec.dim)


# ---------------------------------------------------------------------------
# Reference solve
# ---------------------------------------------------------------------------


def _fista_reference(problem: ProxProblem, x0, max_iters=REFERENCE_MAX_ITERS):
    """FISTA with function-value adaptive restart; returns the best point.

    One fused smooth call at each new point gives F there and the gradient
    of the prox-gradient residual; when y is that point (the start, or a
    restart) the same gradient takes the next step.  Stops early once the
    residual is at rounding level.
    """
    f_value_grad, f_grad, h_value, prox = problem.f_value_grad, problem.f_grad, problem.h_value, problem.prox
    smoothness = problem.smoothness
    x = y = best_x = np.array(x0, dtype=float)  # no iterate is ever written in place
    value, grad_y = f_value_grad(x)
    val = best_val = value + h_value(x)  # val is F(x), kept from the step that produced x
    t = 1.0
    step = 1.0 / smoothness
    for _ in range(max_iters):
        if grad_y is None:
            grad_y = f_grad(y)
        x_new = prox(step, y - grad_y / smoothness)
        value, grad = f_value_grad(x_new)
        val_new = value + h_value(x_new)
        if val_new < best_val:
            best_val, best_x = val_new, x_new
        if val_new > val:  # restart on objective increase
            y, grad_y = x_new, grad
            t = 1.0
        else:
            t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            y, grad_y = x_new + (t - 1.0) / t_new * (x_new - x), None
            t = t_new
        d = x_new - prox(step, x_new - grad / smoothness)
        x, val = x_new, val_new
        if math.sqrt(d.dot(d)) <= 1e-15 * (1.0 + math.sqrt(x.dot(x))):  # np.linalg.norm's own formula
            break
    return best_x, best_val


def _polish_lasso(a, b, tau, x):
    """Exact active-set solve seeded by an almost-converged point; returns
    None when the resulting KKT conditions do not check out."""
    scale = max(1.0, float(np.max(np.abs(x))))
    active = np.abs(x) > 1e-9 * scale
    if not np.any(active):
        cand = np.zeros_like(x)
    else:
        signs = np.sign(x[active])
        a_s = a[:, active]
        try:
            x_s = np.linalg.solve(a_s.T @ a_s, a_s.T @ b - tau * signs)
        except np.linalg.LinAlgError:
            return None
        if np.any(np.sign(x_s) != signs):
            return None
        cand = np.zeros_like(x)
        cand[active] = x_s
    grad = a.T @ (a @ cand - b)
    if np.any(np.abs(grad[~active]) > tau * (1.0 + 1e-10)):
        return None
    return cand


def _polish_boxqp(a, b, lo, hi, x):
    margin = 1e-9 * max(1.0, hi - lo)
    at_lo = x <= lo + margin
    at_hi = x >= hi - margin
    free = ~(at_lo | at_hi)
    cand = np.where(at_hi, hi, np.where(at_lo, lo, x)).astype(float)
    if np.any(free):
        a_f = a[:, free]
        rhs = a_f.T @ (b - a @ (cand * ~free))
        try:
            cand_f = np.linalg.solve(a_f.T @ a_f, rhs)
        except np.linalg.LinAlgError:
            return None
        if np.any(cand_f < lo - margin) or np.any(cand_f > hi + margin):
            return None
        cand[free] = np.clip(cand_f, lo, hi)
    grad = a.T @ (a @ cand - b)
    if np.any(grad[at_lo & ~at_hi] < -1e-9) or np.any(grad[at_hi & ~at_lo] > 1e-9):
        return None
    return cand


# ---------------------------------------------------------------------------
# Instance construction
# ---------------------------------------------------------------------------


def make_problem(spec: ProblemSpec) -> ProxProblem:
    """Wire the oracles for a spec and attach the reference optimum; an
    optimum that is not finite raises ValueError."""
    a, b = _design(spec)
    gram_scale = float(np.linalg.eigvalsh(a.T @ a)[-1])
    if gram_scale <= 0.0:
        raise ValueError("singular design: the smooth part has zero curvature scale")

    # f_value_grad shares one residual between the value and the gradient;
    # each of the three oracles performs the same operations on it.
    a_t = a.T
    if spec.kind in ("lasso", "boxqp", "smooth_quadratic"):
        def f_value(x):
            r = a.dot(x) - b
            return 0.5 * float(r.dot(r))

        f_grad = lambda x: a_t.dot(a.dot(x) - b)

        def f_value_grad(x):
            r = a.dot(x) - b
            return 0.5 * float(r.dot(r)), a_t.dot(r)

        smoothness = gram_scale
    elif spec.kind == "smooth_huber":
        delta = spec.delta

        def huber(r):
            quad = np.abs(r) <= delta
            return float(np.sum(np.where(quad, 0.5 * r * r, delta * (np.abs(r) - 0.5 * delta))))

        f_value = lambda x: huber(a.dot(x) - b)
        f_grad = lambda x: a_t.dot(np.clip(a.dot(x) - b, -delta, delta))

        def f_value_grad(x):
            r = a.dot(x) - b
            return huber(r), a_t.dot(np.clip(r, -delta, delta))

        smoothness = gram_scale
    else:  # l1_logistic, on the margins z = m x
        rng = np.random.default_rng(spec.seed + 2)
        labels = np.where(rng.standard_normal(a.shape[0]) > 0, 1.0, -1.0)
        m = labels[:, None] * a
        neg_m_t = -m.T
        f_value = lambda x: float(np.sum(np.logaddexp(0.0, -m.dot(x))))
        f_grad = lambda x: neg_m_t.dot(1.0 / (1.0 + np.exp(m.dot(x))))

        def f_value_grad(x):
            z = m.dot(x)
            return float(np.sum(np.logaddexp(0.0, -z))), neg_m_t.dot(1.0 / (1.0 + np.exp(z)))

        smoothness = gram_scale / 4.0

    # h_rows performs h_value's operations on each row of a run's iterates
    if spec.kind in ("lasso", "l1_logistic"):
        tau = spec.tau
        h_value = lambda x: tau * float(np.add.reduce(np.abs(x)))
        h_rows = lambda xs: tau * np.add.reduce(np.abs(xs), axis=1)
        prox = lambda t, x: soft_threshold(x, t * tau)
    elif spec.kind == "boxqp":
        lo, hi = spec.lo, spec.hi
        lo_tol, hi_tol = lo - 1e-12, hi + 1e-12
        # nan fails both comparisons
        h_value = lambda x: 0.0 if lo_tol <= np.minimum.reduce(x) and np.maximum.reduce(x) <= hi_tol else math.inf
        h_rows = lambda xs: np.where((lo_tol <= np.minimum.reduce(xs, axis=1))
                                     & (np.maximum.reduce(xs, axis=1) <= hi_tol), 0.0, math.inf)
        prox = lambda t, x: x.clip(lo, hi)
    else:
        h_value = lambda x: 0.0
        h_rows = lambda xs: np.zeros(xs.shape[0])
        prox = lambda t, x: x

    problem = ProxProblem(
        dim=spec.dim,
        f_value=f_value,
        f_grad=f_grad,
        h_value=h_value,
        prox=prox,
        smoothness=smoothness,
        f_value_grad=f_value_grad,
        h_rows=h_rows,
    )
    x_star, opt_value = _reference_optimum(spec, a, b, problem)
    if not math.isfinite(opt_value):
        raise ValueError(f"the reference optimum is {opt_value}: the instance leaves float range")
    return replace(problem, x_star=x_star, opt_value=opt_value)


def _reference_optimum(spec, a, b, problem: ProxProblem):
    identity_design = spec.a is None and spec.rows == 0
    if spec.kind == "lasso" and identity_design:
        x_star = soft_threshold(b, spec.tau)
    elif spec.kind == "boxqp" and identity_design:
        x_star = np.clip(b, spec.lo, spec.hi)
    elif spec.kind == "smooth_quadratic":
        x_star = np.linalg.lstsq(a, b, rcond=None)[0]
    else:
        prox, f_grad, smoothness = problem.prox, problem.f_grad, problem.smoothness

        def fp_residual(x):
            return float(np.max(np.abs(prox(1.0 / smoothness, x - f_grad(x) / smoothness) - x)))

        x0 = np.zeros(spec.dim) if spec.kind != "boxqp" else np.clip(np.zeros(spec.dim), spec.lo, spec.hi)
        x_star, _ = _fista_reference(problem, x0)
        polished = None
        if spec.kind == "lasso":
            polished = _polish_lasso(a, b, spec.tau, x_star)
        elif spec.kind == "boxqp":
            polished = _polish_boxqp(a, b, spec.lo, spec.hi, x_star)
        # the polished point is a machine-exact stationary solve; adopt it on
        # the fixed-point residual (objective differences sit below rounding)
        if polished is not None and fp_residual(polished) <= fp_residual(x_star):
            x_star = polished

    return x_star, problem.f_value(x_star) + problem.h_value(x_star)

