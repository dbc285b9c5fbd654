"""Second constructions of library objects and negative-control helpers.

The tests compare the library against these: the recursive silver doubling,
the theta recursion on numpy scalars, the triangular factorizations of the
OGM/OGM-G matrices, the aggregate form of a certificate's identity, the
partial-sum kernel, and the plain forms of the OGM-G schedule loop, the
runners, the lasso/box-QP oracles and the reference solve, which the
library's faster forms must reproduce bit for bit.  None of them is used by
the library itself.
"""

import math
from dataclasses import replace

import numpy as np

from peplift.certificates import FuncCertificate, GradCertificate, aggregates
from peplift.lift import CompositeFuncLift
from peplift.methods import ProxProblem, RunTrace
from peplift.schedules import SILVER_RATIO, StepsizeMatrix, cumulative, theta_sequence, unit_upper


def u_matrix(diag) -> np.ndarray:
    """Upper-triangular matrix with the given diagonal and ones above it."""
    a = np.asarray(diag, dtype=float)
    n = a.shape[0]
    out = np.triu(np.ones((n, n)), k=1)
    out[np.diag_indices(n)] = a
    return out


def silver_schedule_recursive(k: int) -> np.ndarray:
    """Silver stepsizes built by recursive doubling: [pi, rho**(k-1)+1, pi]."""
    if k < 1:
        raise ValueError(f"silver schedule needs k >= 1, got {k}")
    steps = np.array([math.sqrt(2.0)])
    for kk in range(1, k):
        steps = np.concatenate([steps, [SILVER_RATIO ** (kk - 1) + 1.0], steps])
    return steps


def theta_sequence_plain(n: int) -> np.ndarray:
    """theta_0..theta_n by the same recursion, run on numpy scalars."""
    t = np.empty(n + 1)
    t[0] = 1.0
    for i in range(1, n):
        t[i] = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t[i - 1] ** 2))
    t[n] = 0.5 * (1.0 + math.sqrt(1.0 + 8.0 * t[n - 1] ** 2))
    return t


def ogmg_stepsize_matrix_plain(n: int) -> np.ndarray:
    """OGM-G stepsize entries by the entrywise double loop: each column fills
    right to left, older entries scaling their right neighbour by
    (theta_{n-j-1} - 1)/theta_{n-j}."""
    t = theta_sequence(n)
    a = np.zeros((n, n))
    for i in range(n):
        a[i, i] = 1.0 + (2.0 * t[n - i - 1] - 1.0) / t[n - i]
        if i >= 1:
            a[i - 1, i] = (t[n - i] - 1.0) / t[n - i + 1] * (a[i, i] - 1.0)
        for j in range(i - 2, -1, -1):
            a[j, i] = (t[n - j - 1] - 1.0) / t[n - j] * a[j + 1, i]
    return a


def phi_sequence(t: np.ndarray) -> np.ndarray:
    """phi_1..phi_n: the diagonal of the triangular factor of the OGM matrix.

    phi_i = 1 + theta_{i-1}/(2 theta_i) for i < n and 1 + theta_{n-1}/theta_n
    at the end.
    """
    n = t.shape[0] - 1
    phi = 1.0 + t[:-1] / (2.0 * t[1:])
    phi[n - 1] = 1.0 + t[n - 1] / t[n]
    return phi


def ogm_factored(n: int) -> np.ndarray:
    """OGM stepsize matrix rebuilt from its triangular factorization:
    diag(2 theta_0..2 theta_{n-1}) U(phi_1..phi_n) U(theta_1..theta_n)^{-1}.
    """
    t = theta_sequence(n)
    phi = phi_sequence(t)
    left = np.diag(2.0 * t[:-1]) @ u_matrix(phi)
    return np.linalg.solve(u_matrix(t[1:]).T, left.T).T


def ogmg_factored(n: int) -> np.ndarray:
    """Mirrored factorization of the OGM-G matrix:
    U(theta_n..theta_1)^{-1} U(phi_n..phi_1) diag(2 theta_{n-1}..2 theta_0).
    """
    t = theta_sequence(n)
    phi = phi_sequence(t)
    right = u_matrix(phi[::-1]) @ np.diag(2.0 * t[-2::-1])
    return np.linalg.solve(u_matrix(t[:0:-1]), right)


def aggregate_identity_residual(H: StepsizeMatrix, cert: FuncCertificate | GradCertificate) -> float:
    """Residual of the quadratic-form consequence of a valid certificate:
    hat + Hc tilde + (Hc tilde)^T equals -gamma_head gamma_head^T for an
    objective certificate and zero for a gradient one (Hc cumulative)."""
    hat, tilde = aggregates(cert)
    hc = cumulative(H)
    m = hat + hc @ tilde + (hc @ tilde).T
    if isinstance(cert, FuncCertificate):
        m = m + np.outer(cert.gamma[:-1], cert.gamma[:-1])
    return float(np.max(np.abs(m)))


def perturbed_func_lift(lift: CompositeFuncLift, *, mu_entry=None, slack_entry=None, delta=1e-3) -> CompositeFuncLift:
    """Copy of a lift with one multiplier or slack entry bumped (negative
    controls for the verifiers)."""
    if mu_entry is not None:
        mu = np.array(lift.mu)
        mu[mu_entry] += delta
        return replace(lift, mu=mu)
    if slack_entry is not None:
        slack = np.array(lift.slack)
        slack[slack_entry] += delta
        return replace(lift, slack=slack)
    raise ValueError("pick one of mu_entry or slack_entry")


def partial_sum_kernel(steps, a: np.ndarray) -> np.ndarray:
    """-Hc^{-1} A^T Hc^T for diagonal stepsizes, via the scaled partial-sum
    closed form, cross-checked against direct triangular solves.

    Row i of the result compares the column-tail sums of A at positions i and
    i+1, scaled by the stepsizes; the last row is a single tail sum.
    """
    steps = np.asarray(steps, dtype=float)
    a = np.asarray(a, dtype=float)
    n = steps.shape[0]
    if np.any(steps == 0.0):
        raise ValueError("diagonal stepsizes must be nonzero")
    if a.shape != (n, n):
        raise ValueError(f"matrix must be {n}x{n}, got {a.shape}")

    tails = np.cumsum(a[::-1], axis=0)[::-1]  # tails[j, c] = sum_{l >= j} a[l, c]
    out = np.empty((n, n))
    for r in range(n - 1):
        out[r] = steps * (tails[:, r + 1] / steps[r + 1] - tails[:, r] / steps[r])
    out[n - 1] = -steps * tails[:, n - 1] / steps[n - 1]

    hc = np.diag(steps) @ unit_upper(n)
    direct = -np.linalg.solve(hc, a.T @ hc.T)
    scale = max(1.0, float(np.max(np.abs(direct))))
    if np.max(np.abs(out - direct)) > 1e-10 * scale:
        raise AssertionError("partial-sum closed form disagrees with direct matrix algebra")
    return out


# ---------------------------------------------------------------------------
# Plain forms of the runners, oracles and reference solve: list histories,
# per-step coefficient closures, numpy's convenience wrappers, and a reference
# loop that evaluates F again at the point it valued on the step before.
# ---------------------------------------------------------------------------


def soft_threshold_plain(x, t):
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def plain_oracles(spec, a, b):
    """(f_value, f_grad, h_value, prox) of a lasso or box-QP spec on design (a, b)."""
    f_value = lambda x: 0.5 * float(np.dot(a @ x - b, a @ x - b))
    f_grad = lambda x: a.T @ (a @ x - b)
    if spec.kind == "lasso":
        h_value = lambda x: spec.tau * float(np.sum(np.abs(x)))
        prox = lambda t, x: soft_threshold_plain(x, t * spec.tau)
    else:
        lo, hi = spec.lo, spec.hi
        h_value = lambda x: 0.0 if np.all((x >= lo - 1e-12) & (x <= hi + 1e-12)) else math.inf
        prox = lambda t, x: np.clip(x, lo, hi)
    return f_value, f_grad, h_value, prox


def _plain_trace(problem: ProxProblem, xs, ghat, shat) -> RunTrace:
    L = problem.smoothness
    xs = np.asarray(xs)
    f_vals = np.array([problem.f_value(x) for x in xs])
    h_vals = np.array([problem.h_value(x) for x in xs])
    return RunTrace(
        xs=xs,
        grads=L * np.asarray(ghat),
        subgrads=L * np.asarray(shat) if len(shat) else np.zeros((0, problem.dim)),
        f_values=f_vals,
        h_values=h_vals,
        obj_values=f_vals + h_vals,
    )


def run_unconstrained_plain(H: StepsizeMatrix, problem: ProxProblem, x0) -> RunTrace:
    x = np.asarray(x0, dtype=float)
    L = problem.smoothness
    a = H.entries
    xs = [x]
    ghat = [problem.f_grad(x) / L]
    for k in range(1, H.n + 1):
        x = xs[-1] - np.tensordot(a[:k, k - 1], np.asarray(ghat[:k]), axes=1)
        xs.append(x)
        ghat.append(problem.f_grad(x) / L)
    return _plain_trace(problem, xs, ghat, np.zeros((H.n, problem.dim)))


def run_composite_plain(H: StepsizeMatrix, problem: ProxProblem, x0) -> RunTrace:
    x = np.asarray(x0, dtype=float)
    L = problem.smoothness
    a = H.entries
    xs = [x]
    ghat, shat, combined = [], [], []
    for k in range(1, H.n + 1):
        x_prev = xs[-1]
        g_prev = problem.f_grad(x_prev) / L
        ghat.append(g_prev)
        akk = a[k - 1, k - 1]
        drift = np.zeros_like(x_prev)
        if k >= 2:
            drift = np.tensordot(a[: k - 1, k - 1], np.asarray(combined), axes=1)
        x_new = problem.prox(akk / L, x_prev - drift - akk * g_prev)
        s_new = (x_prev - x_new - drift) / akk - g_prev
        xs.append(x_new)
        shat.append(s_new)
        combined.append(g_prev + s_new)
    ghat.append(problem.f_grad(xs[-1]) / L)
    return _plain_trace(problem, xs, ghat, shat)


def _three_sequence_plain(n: int, problem: ProxProblem, x0, momentum, fresh_steps) -> RunTrace:
    x = np.asarray(x0, dtype=float)
    L = problem.smoothness
    xs = [x]
    ghat = [problem.f_grad(x) / L]
    shat = []
    y = x.copy()
    z = x.copy()
    for k in range(n):
        y_new = xs[-1] - ghat[-1]
        coef1, coef2 = momentum(k)
        z_new = y_new + coef2 * (y_new - xs[-1])
        if k == 0:
            z_new = z_new + coef1 * (y_new - y)
        else:
            z_new = z_new + coef1 * (y_new - y + (z - xs[-1]) / fresh_steps(k))
        step = fresh_steps(k + 1)
        x_new = problem.prox(step / L, z_new)
        shat.append((z_new - x_new) / step)
        xs.append(x_new)
        ghat.append(problem.f_grad(x_new) / L)
        y, z = y_new, z_new
    return _plain_trace(problem, xs, ghat, shat)


def run_pogm_plain(n: int, problem: ProxProblem, x0) -> RunTrace:
    t = theta_sequence(n)

    def momentum(k):
        return (t[k] - 1.0) / t[k + 1], t[k] / t[k + 1]

    def fresh(k):
        return 1.0 + (2.0 * t[k - 1] - 1.0) / t[k]

    return _three_sequence_plain(n, problem, x0, momentum, fresh)


def run_pogmg_plain(n: int, problem: ProxProblem, x0) -> RunTrace:
    t = theta_sequence(n)

    def momentum(k):
        c1 = (t[n - k] - 1.0) * (2.0 * t[n - k - 1] - 1.0) / (t[n - k] * (2.0 * t[n - k] - 1.0))
        c2 = (2.0 * t[n - k - 1] - 1.0) / (2.0 * t[n - k] - 1.0)
        return c1, c2

    def fresh(k):
        return 1.0 + (2.0 * t[n - k] - 1.0) / t[n - k + 1]

    return _three_sequence_plain(n, problem, x0, momentum, fresh)


def run_fista_plain(n: int, problem: ProxProblem, x0) -> RunTrace:
    x = np.asarray(x0, dtype=float)
    L = problem.smoothness
    xs = [x]
    ghat = [problem.f_grad(x) / L]
    shat = []
    y = x.copy()
    t = 1.0
    for _ in range(n):
        z = y - problem.f_grad(y) / L
        x_new = problem.prox(1.0 / L, z)
        shat.append(z - x_new)
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        y = x_new + (t - 1.0) / t_new * (x_new - xs[-1])
        xs.append(x_new)
        ghat.append(problem.f_grad(x_new) / L)
        t = t_new
    return _plain_trace(problem, xs, ghat, shat)


def fista_reference_plain(f_grad, prox, smoothness, x0, f_full, max_iters=100_000):
    x = np.array(x0, dtype=float)
    y = x.copy()
    t = 1.0
    best_x, best_val = x.copy(), f_full(x)
    for _ in range(max_iters):
        x_new = prox(1.0 / smoothness, y - f_grad(y) / smoothness)
        val = f_full(x_new)
        if val < best_val:
            best_val, best_x = val, x_new.copy()
        if val > f_full(x):  # restart on objective increase
            y = x_new.copy()
            t = 1.0
        else:
            t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            y = x_new + (t - 1.0) / t_new * (x_new - x)
            t = t_new
        residual = np.linalg.norm(x_new - prox(1.0 / smoothness, x_new - f_grad(x_new) / smoothness))
        x = x_new
        if residual <= 1e-15 * (1.0 + np.linalg.norm(x)):
            break
    return best_x, best_val
