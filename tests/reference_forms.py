"""Second constructions of library objects and negative-control helpers.

The tests compare the library against these: the recursive silver doubling,
the triangular factorizations of the OGM/OGM-G matrices, the aggregate form
of a certificate's identity and the partial-sum kernel.  None of them is used
by the library itself.
"""

import math
from dataclasses import replace

import numpy as np

from peplift.certificates import FuncCertificate, GradCertificate, aggregates
from peplift.lift import CompositeFuncLift
from peplift.schedules import SILVER_RATIO, StepsizeMatrix, ThetaSequence, cumulative, theta_sequence, unit_upper


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


def phi_sequence(theta: ThetaSequence) -> np.ndarray:
    """phi_1..phi_n: the diagonal of the triangular factor of the OGM matrix.

    phi_i = 1 + theta_{i-1}/(2 theta_i) for i < n and 1 + theta_{n-1}/theta_n
    at the end.
    """
    t = theta.values
    n = theta.n
    phi = 1.0 + t[:-1] / (2.0 * t[1:])
    phi[n - 1] = 1.0 + t[n - 1] / t[n]
    return phi


def ogm_factored(n: int) -> np.ndarray:
    """OGM stepsize matrix rebuilt from its triangular factorization:
    diag(2 theta_0..2 theta_{n-1}) U(phi_1..phi_n) U(theta_1..theta_n)^{-1}.
    """
    theta = theta_sequence(n)
    t = theta.values
    phi = phi_sequence(theta)
    left = np.diag(2.0 * t[:-1]) @ u_matrix(phi)
    return np.linalg.solve(u_matrix(t[1:]).T, left.T).T


def ogmg_factored(n: int) -> np.ndarray:
    """Mirrored factorization of the OGM-G matrix:
    U(theta_n..theta_1)^{-1} U(phi_n..phi_1) diag(2 theta_{n-1}..2 theta_0).
    """
    theta = theta_sequence(n)
    t = theta.values
    phi = phi_sequence(theta)
    right = u_matrix(phi[::-1]) @ np.diag(2.0 * t[-2::-1])
    return np.linalg.solve(u_matrix(t[:0:-1]), right)


def aggregate_identity_residual(H: StepsizeMatrix, cert: FuncCertificate | GradCertificate) -> float:
    """Residual of the quadratic-form consequence of a valid certificate:
    hat + Hc tilde + (Hc tilde)^T equals -gamma_head gamma_head^T for an
    objective certificate and zero for a gradient one (Hc cumulative)."""
    agg = aggregates(cert)
    hc = cumulative(H).entries
    m = agg.hat + hc @ agg.tilde + (hc @ agg.tilde).T
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
