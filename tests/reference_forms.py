"""Second constructions of library objects and negative-control helpers.

The tests compare the library against these: the recursive silver doubling,
the theta recursion on numpy scalars, the triangular factorizations of the
OGM/OGM-G matrices, the aggregate form of a certificate's identity, the
partial-sum kernel, the pair and per-row forms of a problem's fused oracles,
and the plain forms of the OGM and OGM-G schedule loops, U(d)'s row loop,
the runners, the lasso/box-QP oracles, the reference solve, the ledger
assembly, the lifts and the feasibility checks, which the library's faster
forms must reproduce bit for bit.  The plain lifts take their shifted multiplier rows
from the library's kernel; the dense solve that formed those rows before
(`dense_rows`) is compared with the kernel at a tolerance, and the exact
oracle in exact_lift.py judges which of the two is closer.  None of them is
used by the library itself.
"""

import math
from dataclasses import replace

import numpy as np

from peplift import config
from peplift.certificates import FuncCertificate, GradCertificate, aggregates
from peplift.ledger import _DENSE_STEPS, GramLedger, ix_dist, ix_g, ix_s, ix_s_star
from peplift.lift import CompositeLift, FeasibilityReport, _shifted_rows, _sigma, pseudoinverse_xi
from peplift.methods import ProxProblem, RunTrace
from peplift.schedules import SILVER_RATIO, StepsizeMatrix, phi_sequence, theta_sequence


def hc_product(H: StepsizeMatrix) -> np.ndarray:
    """Hc = H U, the partial sums of H's rows, by a dense product with the
    all-ones upper triangle U; column i-1 expands x_0 - x_i."""
    n = H.n
    return H.entries @ np.triu(np.ones((n, n)))


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


def ogm_stepsize_matrix_plain(n: int) -> np.ndarray:
    """OGM stepsize entries a column at a time: each column's older entries
    are the previous column's scaled by (theta_{i} - 1)/theta_{i+1}."""
    t = theta_sequence(n)
    a = np.zeros((n, n))
    for i in range(n):
        a[i, i] = 1.0 + (2.0 * t[i] - 1.0) / t[i + 1]
        if i >= 1:
            scale = (t[i] - 1.0) / t[i + 1]
            a[i - 1, i] = scale * (a[i - 1, i - 1] - 1.0)
            a[: i - 1, i] = scale * a[: i - 1, i - 1]
    return a


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
    objective certificate and zero for a gradient one (Hc = H U)."""
    hat, tilde = aggregates(cert)
    hc = hc_product(H)
    m = hat + hc @ tilde + (hc @ tilde).T
    if isinstance(cert, FuncCertificate):
        m = m + np.outer(cert.gamma[:-1], cert.gamma[:-1])
    return float(np.max(np.abs(m)))


def perturbed_func_lift(lift: CompositeLift, *, mu_entry=None, slack_entry=None, delta=1e-3) -> CompositeLift:
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

    hc = np.diag(steps) @ np.triu(np.ones((n, n)))
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


def fused_oracles(f_value, f_grad, h_value) -> dict:
    """f_value_grad and h_rows of a hand-built problem, as keyword arguments
    of ProxProblem: the pair of smooth oracles at one point, and h_value on
    each row.  Each agrees with the plain oracles bit for bit."""
    return {"f_value_grad": lambda x: (f_value(x), f_grad(x)),
            "h_rows": lambda xs: np.array([h_value(x) for x in xs])}


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


# ---------------------------------------------------------------------------
# Plain forms of the ledger assembly, the lifts and the feasibility checks:
# full-size temporaries for every intermediate (np.triu/np.tril copies, np.outer,
# np.ix_ gathers, np.abs passes), with the arithmetic the library keeps.
# ---------------------------------------------------------------------------


def add_square_plain(led: GramLedger, coeffs: np.ndarray, weight: float) -> None:
    led.quad += weight * np.outer(coeffs, coeffs)


def add_block_plain(led: GramLedger, indices: np.ndarray, block: np.ndarray, weight: float) -> None:
    sym = 0.5 * (block + block.T)
    led.quad[np.ix_(indices, indices)] += weight * sym


def _add_sym_plain(quad: np.ndarray, rows: slice, cols: slice, block: np.ndarray) -> None:
    """quad[rows, cols] += block / 2 and quad[cols, rows] += block^T / 2."""
    half = 0.5 * block
    quad[rows, cols] += half
    quad[cols, rows] += half.T


def coco_block_plain(
    led: GramLedger,
    W: np.ndarray,
    H: StepsizeMatrix,
    smooth: bool,
    composite: bool,
    coupled_star: bool,
) -> None:
    """Add sum_{i != j} W[i, j] * coco(i, j) to led, in matrix form.

    W is (n+2, n+2) over the points 0..n with STAR last; its diagonal is
    ignored.  H is the stepsize matrix: column k-1 of its entries holds the
    coefficients of the past directions in x_{k-1} - x_k, and the sums of
    row l over the first i columns those in x_0 - x_i; direction l is
    g_l + s_{l+1} when composite and g_l otherwise.  The gradient at STAR is
    -s_star when coupled_star and zero otherwise.  Nonsmooth inequalities take
    the subgradient at j, which point 0 lacks, so their column 0 must be zero.
    """
    h = H.entries
    n = h.shape[0]
    star = n + 1
    W = np.array(W, dtype=float)
    if led.n != n or W.shape != (n + 2, n + 2):
        raise ValueError(f"need an {n}-step ledger and a {(n + 2, n + 2)} weight matrix, "
                         f"got {led.n} and {W.shape}")
    np.fill_diagonal(W, 0.0)
    if not smooth and np.any(W[:, 0]):
        raise ValueError("nonsmooth inequalities need a subgradient at j; point 0 has none")
    r, c = W.sum(axis=1), W.sum(axis=0)
    lin = led.lin_f if smooth else led.lin_h
    lin += r - c

    # Column p of X^T W - X^T diag(c) is sum_i W[i, p] (x_i - x_p).  X is
    # nonzero on the past directions, where columns 1..n hold minus the
    # running sums of H's rows, and at x0 - x*, where STAR's column holds -1.
    # Along the directions, x_i - x_p is summed from the steps x_k - x_{k-1},
    # which are minus H's columns, with prefix and suffix sums of W's columns,
    # so c[p] x_p never cancels against sum_i W[i, p] x_i; for p = STAR,
    # x_i - x_p is x_i on the directions.
    x_dir = np.zeros((n, star))
    x_dir[:, 1:] = -np.cumsum(h, axis=1)
    before = np.cumsum(W[:star, :star], axis=0)[:-1]  # sum_{i<k} W[i, p], k = 1..n
    after = np.cumsum(W[n::-1], axis=0)[-2::-1]  # sum_{i>=k} W[i, p]
    steps = np.tril(after[:, :star]) - np.triu(before, 1)  # step k counts for p < k, against for p >= k
    if n <= _DENSE_STEPS and np.count_nonzero(h) > np.count_nonzero(np.diagonal(h)):
        m_dir = (steps.T @ -h.T).T  # directions x points
        m_star = W[:star, star] @ x_dir.T.copy()
    else:
        m_dir = 0.0 - H.apply(steps)
        m_star = 0.0 - H.apply(after[:, star:].copy())[:, 0]  # step k counts for STAR
    m_dir -= W[star, :star] * x_dir
    m_dist = -W[star]
    m_dist[star] += c[star]
    dir_cols = [slice(ix_g(n, 0), ix_g(n, n))]
    if composite:
        dir_cols.append(slice(ix_s(n, 1), ix_s(n, n) + 1))

    # G as (basis rows, points, sign) groups: g_0..g_n or s_1..s_n, then STAR
    if smooth:
        groups = [(slice(ix_g(n, 0), ix_g(n, n) + 1), slice(0, star), 1.0)]
        star_sign = -1.0 if coupled_star else 0.0
    else:
        groups = [(slice(ix_s(n, 1), ix_s(n, n) + 1), slice(1, star), 1.0)]
        star_sign = 1.0
    if star_sign:
        groups.append((slice(ix_s_star(n), ix_s_star(n) + 1), slice(star, star + 1), star_sign))
    if smooth:
        lap = np.diag(r + c) - W - W.T

    quad = led.quad
    dirs = np.column_stack([m_dir, m_star])  # directions x points, STAR last
    for rows, pts, sign in groups:
        for cols in dir_cols:
            _add_sym_plain(quad, rows, cols, -sign * dirs[:, pts].T)
        _add_sym_plain(quad, rows, slice(ix_dist(n), ix_dist(n) + 1), -sign * m_dist[pts, None])
        if smooth:
            for rows2, pts2, sign2 in groups:
                quad[rows, rows2] -= 0.5 * sign * sign2 * lap[pts, pts2]


def rows_inputs(cert: FuncCertificate | GradCertificate) -> tuple:
    """(tilde, left, right) as the library's lifts feed them to the rows
    kernel: tilde from `aggregates`, and for the objective-gap metric
    left = gamma and right = gamma + sigma over positions 1..n."""
    _, tilde = aggregates(cert)
    if isinstance(cert, GradCertificate):
        return tilde, None, None
    n, gamma = cert.n, cert.gamma
    return tilde, gamma[:n], gamma[:n] + _sigma(cert)[:n]


def library_rows(H: StepsizeMatrix, cert: FuncCertificate | GradCertificate) -> np.ndarray:
    """The shifted rows the library's lift of cert writes into mu."""
    return _shifted_rows(H, *rows_inputs(cert))


def dense_rows(H: StepsizeMatrix, cert: FuncCertificate | GradCertificate) -> np.ndarray:
    """The same rows by a dense product with Hc and one dense solve with it."""
    tilde, left, right = rows_inputs(cert)
    hc = hc_product(H)
    rhs = (hc @ tilde).T
    if left is not None:
        rhs += np.outer(left, right)
    return -np.linalg.solve(hc, rhs)


def lift_func_plain(H: StepsizeMatrix, cert: FuncCertificate, xi: float | str, rows: np.ndarray) -> CompositeLift:
    """Lift an objective-gap certificate to the composite setting.

    xi is either an explicit positive constant or the string 'pseudo',
    which picks the pseudoinverse diagnostic value v^T L^+ v.  rows are the
    shifted nonsmooth multipliers, -Hc^{-1} ((Hc tilde)^T + gamma (gamma +
    sigma)^T), as the library's kernel forms them (see `library_rows`); they
    are cross-checked against the second closed form through hat, and a
    mismatch means the input certificate does not satisfy the unconstrained
    identity.
    """
    if xi != "pseudo" and (isinstance(xi, str) or not 0.0 < xi < math.inf):
        raise ValueError(f"xi must be 'pseudo' or positive and finite for the func metric, got {xi!r}")
    n = cert.n
    if H.n != n:
        raise ValueError(f"stepsize matrix is {H.n}-step but certificate has n={n}")
    lam, gamma, r = cert.lam, cert.gamma, cert.r
    gamma_n = gamma[n]
    if gamma_n == 0.0:
        raise ValueError("degenerate certificate: the last square coefficient is zero")

    sigma = np.empty(n + 1)
    sigma[:n] = (lam[:n, n] + lam[n, :n]) / gamma_n
    sigma[n] = lam[n + 1, n] / gamma_n  # optimum slot
    gamma_head = gamma[:n]
    sigma_head = sigma[:n]

    hat, tilde = aggregates(cert)
    hc = hc_product(H)
    via_quad = np.array(rows)
    via_hat = np.linalg.solve(hc, hat - np.outer(gamma_head, sigma_head)) + tilde
    scale = max(np.max(np.abs(via_quad)), np.max(np.abs(via_hat)), 1.0)
    if np.max(np.abs(via_quad - via_hat)) > 1e-9 * scale:
        raise ValueError("closed-form multiplier expressions disagree; certificate does not satisfy the identity")

    mu = np.zeros((n + 1, n))
    mu[:n] = via_quad
    mu[np.arange(n), np.arange(n)] = 0.0
    mu[n] = -via_quad.sum(axis=0)  # optimum row

    v = np.empty(n + 1)
    v[:n] = sigma[:n] + lam[n + 1, :n] - mu[n]
    v[n] = sigma[n]

    lam_star_total = float(lam[n + 1].sum())
    block = np.empty((n + 1, n + 1))
    block[:n, :n] = -hat
    block[:n, n] = -gamma_head
    block[n, :n] = -gamma_head
    block[n, n] = lam_star_total
    laplacian = block - np.outer(sigma, sigma)

    xi_val = pseudoinverse_xi(v, laplacian) if xi == "pseudo" else float(xi)

    slack = np.empty((n + 2, n + 2))
    slack[0, 0] = xi_val
    slack[0, 1:] = v
    slack[1:, 0] = v
    slack[1:, 1:] = laplacian

    return CompositeLift("func", n, mu, xi_val, slack, r)


def lift_grad_plain(H: StepsizeMatrix, cert: GradCertificate, xi: float | None, rows: np.ndarray) -> CompositeLift:
    """Lift a gradient-norm certificate to the composite setting.

    Defaults xi' to 1 - (lam[n-1, n] + lam[n, n-1]) / r, which zeroes the
    critical corner of the slack matrix and keeps it diagonally dominant.
    rows are the shifted nonsmooth multipliers -Hc^{-1} (Hc tilde)^T as the
    library's kernel forms them (see `library_rows`).
    """
    if xi is not None and (isinstance(xi, str) or not 0.0 <= xi < 1.0):
        raise ValueError(f"xi must lie in [0, 1) for the grad metric, got {xi!r}")
    n = cert.n
    if H.n != n:
        raise ValueError(f"stepsize matrix is {H.n}-step but certificate has n={n}")
    lam, r = cert.lam, cert.r
    hat, _ = aggregates(cert)
    solved = np.array(rows)

    mu = np.zeros((n + 1, n))
    mu[0] = -solved.sum(axis=0)
    mu[1:] = solved
    mu[np.arange(1, n + 1), np.arange(n)] = 0.0

    v = lam[:n, n] + lam[n, :n]
    if xi is None:
        xi = 1.0 - (lam[n - 1, n] + lam[n, n - 1]) / r
    xi = float(xi)

    base = np.empty((n + 1, n + 1))
    base[0, 0] = r
    base[0, 1:] = v
    base[1:, 0] = v
    base[1:, 1:] = -hat
    corner = np.zeros(n + 1)
    corner[0] = 1.0
    corner[n] = 1.0
    slack = base - r * (1.0 - xi) * np.outer(corner, corner)

    return CompositeLift("grad", n, mu, xi, slack, r)


def laplacian_violations_plain(m: np.ndarray) -> tuple[float, float]:
    """(largest positive off-diagonal, largest |row sum|)."""
    off = m - np.diag(np.diag(m))
    return float(off.max(initial=0.0)), float(np.max(np.abs(m.sum(axis=1))))


def diag_dominance_margin_plain(m: np.ndarray) -> float:
    """min over rows of diag - sum |offdiag|; nonnegative means dominant."""
    off = np.abs(m) - np.diag(np.abs(np.diag(m)))
    return float(np.min(np.diag(m) - off.sum(axis=1)))


def gershgorin_rows_plain(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(m_ii - sum_{j != i} |m_ij| as (m_ii + |m_ii|) - sum_j |m_ij|, sum_j |m_ij|)."""
    abs_sums = np.abs(m).sum(axis=1)
    return (np.diag(m) + np.abs(np.diag(m))) - abs_sums, abs_sums


def gamma_plain(m: int) -> float:
    """Higham's gamma_m = m u / (1 - m u), u = 2^-53."""
    return m * 2.0**-53 / (1.0 - m * 2.0**-53)


def psd_verdict_plain(slack: np.ndarray, floor: float) -> tuple[str, float, float]:
    """(route, min_eig, spectral_norm): the floor and max_i ||S_i,:|| (1 - gamma_{m+3})
    when the floor clears -PSD_TOL max(norm, 1), and S's eigenvalues otherwise."""
    snorm = float(np.sqrt(np.max(np.sum(slack * slack, axis=1))) * (1.0 - gamma_plain(slack.shape[1] + 3)))
    if floor >= -config.PSD_TOL * max(snorm, 1.0) and math.isfinite(snorm):
        return "gershgorin", floor, snorm
    eigs = np.linalg.eigvalsh(slack)
    return "eigvalsh", float(eigs[0]), max(abs(float(eigs[0])), abs(float(eigs[-1])))


def check_func_feasibility_plain(lift: CompositeLift) -> FeasibilityReport:
    """Nonnegativity of the nonsmooth multipliers plus two-route evidence
    that S is positive semidefinite, both through the Schur complement
    M = L - (1/xi) v v^T with v and L read from S: the structural route
    requires M to stay Laplacian, and the PSD verdict takes the Gershgorin
    floor of M less its rounding bound, or S's eigenvalues when that floor
    misses the bar."""
    if lift.xi <= 0.0:
        raise ValueError(f"the Schur route needs xi > 0, got {lift.xi}")
    n = lift.n
    mu_scale = max(1.0, float(np.max(np.abs(lift.mu))))
    min_mu = float(lift.mu.min())

    v, laplacian = lift.slack[1:, 0], lift.slack[1:, 1:]
    schur = laplacian - np.outer(v, v) / lift.xi
    lap_scale = max(1.0, float(np.max(np.abs(schur))))
    s_off, s_row = laplacian_violations_plain(schur)

    radius, abs_sums = gershgorin_rows_plain(schur)
    rounding = gamma_plain(n + 10) * abs_sums + gamma_plain(8) * np.abs(v) * (np.abs(v).sum() / lift.xi)
    floor = float(np.min(np.append(radius - rounding, 0.0))) if lift.slack[0, 0] >= lift.xi else -math.inf
    route, min_eig, snorm = psd_verdict_plain(lift.slack, floor)

    tol_lap = config.LAPLACIAN_TOL
    return FeasibilityReport(
        metric="func",
        xi=lift.xi,
        min_mu=min_mu,
        mu_scale=mu_scale,
        min_eig=min_eig,
        spectral_norm=snorm,
        mu_ok=min_mu >= -config.MU_TOL * mu_scale,
        eig_ok=min_eig >= -config.PSD_TOL * max(snorm, 1.0),
        structural_ok=(s_off <= tol_lap * lap_scale and s_row <= tol_lap * lap_scale),
        psd_route=route,
    )


def check_grad_feasibility_plain(lift: CompositeLift) -> FeasibilityReport:
    """Nonnegativity of the multipliers plus PSD evidence for S' from its
    Gershgorin rows: diagonal dominance, whose only nontrivial requirement
    after the rank-one subtraction is a nonnegative (1, n+1) corner entry,
    and the PSD verdict, the same rows less their rounding bound, or S's
    eigenvalues when that floor misses the bar."""
    mu_scale = max(1.0, float(np.max(np.abs(lift.mu))))
    min_mu = float(lift.mu.min())
    scale = max(1.0, float(np.max(np.abs(lift.slack))))
    radius, abs_sums = gershgorin_rows_plain(lift.slack)
    route, min_eig, snorm = psd_verdict_plain(lift.slack, float(np.min(radius - gamma_plain(lift.n + 6) * abs_sums)))
    return FeasibilityReport(
        metric="grad",
        xi=lift.xi,
        min_mu=min_mu,
        mu_scale=mu_scale,
        min_eig=min_eig,
        spectral_norm=snorm,
        mu_ok=min_mu >= -config.MU_TOL * mu_scale,
        eig_ok=min_eig >= -config.PSD_TOL * max(snorm, 1.0),
        structural_ok=float(np.min(radius)) >= -config.LAPLACIAN_TOL * scale,
        psd_route=route,
    )
