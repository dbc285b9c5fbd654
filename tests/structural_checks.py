"""Numeric checkers for the structural facts behind the feasibility proofs.

Each function returns the worst violation found (0.0 when everything holds),
so tests and the acceptance suite can assert against a single tolerance.
"""

import numpy as np

from peplift.certificates import gsw_grad_certificate, silver_lambda_bar
from peplift.schedules import gsw_schedule, silver_schedule, theta_sequence
from reference_forms import phi_sequence, u_matrix


def scaled_partial_sum_violation(lam: np.ndarray, gammas: np.ndarray, j_max: int) -> float:
    """Sign pattern of lam[i, j-1]/gamma[j-1] - lam[i, j]/gamma[j]:
    nonnegative above the band (i <= j-2), nonpositive below (i >= j+1)."""
    worst = 0.0
    rows = lam.shape[0]
    for j in range(1, j_max + 1):
        diff = lam[:, j - 1] / gammas[j - 1] - lam[:, j] / gammas[j]
        for i in range(rows):
            if i <= j - 2:
                worst = max(worst, -diff[i])
            elif i >= j + 1:
                worst = max(worst, diff[i])
    return worst


def silver_partial_sum_violation(k: int) -> float:
    """Iterate-row multipliers of the silver certificate, with the last
    column compared at weight one."""
    lam = silver_lambda_bar(k)
    n = 2**k - 1
    gammas = np.append(silver_schedule(k), 1.0)
    return scaled_partial_sum_violation(lam, gammas, n)


def gsw_partial_sum_violation(k: int) -> float:
    lam = gsw_grad_certificate(k).lam
    n = 2**k - 1
    gammas = np.append(gsw_schedule(k).steps, 1.0)
    return scaled_partial_sum_violation(lam, gammas, n)


def silver_t_sum_violation(k: int) -> float:
    """Nonnegativity of pi_j * sum_{l<j} lam[l, n] - lam[j-1, n] - lam[n, j-1]."""
    if k < 2:
        return 0.0
    lam = silver_lambda_bar(k)
    n = 2**k - 1
    pi = silver_schedule(k)
    worst = 0.0
    for j in range(1, n):
        t_j = pi[j - 1] * lam[1:j, n].sum() - lam[j - 1, n] - lam[n, j - 1]
        worst = max(worst, -t_j)
    return worst


def theta_phi_bound_violation(n: int) -> float:
    """Window bounds on theta increments and the triangular-factor diagonal."""
    theta = theta_sequence(n)
    t = theta.values
    phi = phi_sequence(theta)
    worst = 0.0
    inc = np.diff(t)
    worst = max(worst, float(np.max(0.5 - inc, initial=0.0)))  # all increments > 1/2
    if n >= 2:
        worst = max(worst, float(np.max(inc[:-1] - 0.75, initial=0.0)))  # interior < 3/4
    # lower bounds phi_j >= 4/3 (j >= 2), 15/11 (j >= 3), 7/5 (j >= 4)
    for j0, bound in ((2, 4.0 / 3.0), (3, 15.0 / 11.0), (4, 7.0 / 5.0)):
        if n >= j0:
            worst = max(worst, float(np.max(bound - phi[j0 - 1 :], initial=0.0)))
    # upper bounds phi_j <= 3/2 (j <= n-1) and phi_j <= 1 + 1/sqrt(2) (2 <= j <= n)
    if n >= 2:
        worst = max(worst, float(np.max(phi[: n - 1] - 1.5, initial=0.0)))
        worst = max(worst, float(np.max(phi[1:] - (1.0 + 1.0 / np.sqrt(2.0)), initial=0.0)))
    return worst


def ogm_column_sign_violation(n: int) -> float:
    """Sign pattern of the triangular systems behind the nonnegativity of the
    lifted multipliers: x[j+1] < 0, x[i] > 0 for i <= j, zeros beyond, plus
    the ratio identity between consecutive positive entries."""
    theta = theta_sequence(n)
    t = theta.values
    phi = phi_sequence(theta)
    u = u_matrix(phi)
    worst = 0.0
    for j in range(1, n + 1):
        rhs = np.zeros(n)
        rhs[:j] = 2.0 * t[j - 1]
        if j + 1 <= n:
            rhs[j] -= t[j] - 1.0
        x = np.linalg.solve(u, rhs)
        scale = max(1.0, float(np.max(np.abs(x))))
        if j + 2 <= n:
            worst = max(worst, float(np.max(np.abs(x[j + 1 :]))) / scale)
        if j + 1 <= n:
            worst = max(worst, x[j] / scale)  # x_{j+1} < 0 (0-based x[j])
        worst = max(worst, float(np.max(-x[:j])) / scale)  # x_1..x_j > 0
        for i in range(1, j):  # ratio x_i = (theta_{i+1}-1)/(theta_{i-1}+2 theta_i) x_{i+1}
            ratio = (t[i + 1] - 1.0) / (t[i - 1] + 2.0 * t[i])
            worst = max(worst, abs(x[i - 1] - ratio * x[i]) / scale)
    return worst


def ogmg_typical_column_violation(n: int) -> float:
    """Sign pattern and the two compensation inequalities for the interior
    columns of the reversed-index triangular systems."""
    if n < 3:
        return 0.0
    theta = theta_sequence(n)
    t = theta.values
    phi = phi_sequence(theta)
    u = u_matrix(phi[::-1])
    worst = 0.0
    for j in range(2, n):
        i = n - j
        rhs = np.zeros(n)
        rhs[: j - 2] = -1.0
        rhs[j - 2] = t[i + 2] * t[i + 1] - t[i + 2] - t[i + 1]
        rhs[j - 1] = -(2.0 * t[i + 1] - 1.0) * t[i + 1]
        rhs[j] = t[i + 1] * t[i]
        x = np.linalg.solve(u, rhs)
        scale = max(1.0, float(np.max(np.abs(x))))
        if j + 2 <= n:
            worst = max(worst, float(np.max(np.abs(x[j + 1 :]))) / scale)
        worst = max(worst, -x[j] / scale)  # x_{j+1} > 0
        worst = max(worst, x[j - 1] / scale)  # x_j < 0
        worst = max(worst, -x[j - 2] / scale)  # x_{j-1} > 0
        if j >= 3:
            worst = max(worst, x[j - 3] / scale)  # x_{j-2} < 0
            for kk in range(1, j - 2):  # ratio chain along the zero right-hand rows
                ratio = (phi[n - kk - 1] - 1.0) / phi[n - kk]
                worst = max(worst, abs(x[kk - 1] - ratio * x[kk]) / scale)
        # compensation inequalities keeping the two negative entries dominated
        c_val = -t[i + 1] ** 2 + 0.5 * x[j - 2] - t[i + 1] / (2.0 * t[i]) * x[j - 1]
        worst = max(worst, -c_val / scale)
        if j >= 3:
            d_val = t[i] ** 2 + t[i + 1] / (2.0 * t[i + 2]) * x[j - 3] - 0.5 * x[j - 2]
            worst = max(worst, -d_val / scale)
    return worst


def ogmg_last_column_violation(n: int) -> float:
    """Alternating signs and closed-form anchors of the final-column system."""
    if n < 3:
        return 0.0
    theta = theta_sequence(n)
    t = theta.values
    phi = phi_sequence(theta)
    u = u_matrix(phi[::-1])
    rhs = np.concatenate([
        np.full(n - 2, -(2.0 * t[1] ** 2 - 1.0)),
        [t[2] - 2.0 * t[1] ** 2, -2.0 * t[1] ** 3],
    ])
    y = np.linalg.solve(u, rhs)
    scale = max(1.0, float(np.max(np.abs(y))))
    worst = abs(y[n - 1] + 4.0 * t[1]) / scale
    worst = max(worst, abs(y[n - 2] - (t[2] + 2.0 * t[1] - 2.0) / phi[1]) / scale)
    anchor = -(t[2] - 1.0 - (phi[1] - 1.0) * y[n - 2]) / phi[2]
    worst = max(worst, abs(y[n - 3] - anchor) / scale)
    worst = max(worst, y[n - 1] / scale)  # y_n < 0
    worst = max(worst, -y[n - 2] / scale)  # y_{n-1} > 0
    worst = max(worst, y[n - 3] / scale)  # y_{n-2} < 0
    for kk in range(1, n - 2):
        ratio = (phi[n - kk - 1] - 1.0) / phi[n - kk]
        worst = max(worst, abs(y[kk - 1] - ratio * y[kk]) / scale)
    return worst
