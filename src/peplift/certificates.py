"""Dual multiplier certificates for unconstrained rate proofs, plus their
exact verification by coefficient matching.

A :class:`FuncCertificate` packages the nonnegative multipliers ``lam`` (with
the optimum row stored last), the square-term coefficients ``gamma`` and the
total weight ``r`` appearing in the objective-gap identity

    sum lam[i,j] Q_ij + ||x0 - xstar - sum gamma_i g_i||^2 / 2
        = r (f_star - f_n) + ||x0 - xstar||^2 / 2.

A :class:`GradCertificate` packages ``lam`` and ``r`` for the gradient-norm
identity  sum lam[i,j] Q_ij = -(r/2) ||g_n||^2 + f_0 - f_n.  Both are checked
instance-free: the two sides are expanded over the symbol basis and compared
coefficient by coefficient.  The constructors reject what would make no
proof, so a certificate whose identity holds is one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import config
from .ledger import STAR, GramLedger, coco_block, ix_dist, ix_g
from .schedules import (
    SILVER_RATIO,
    StepsizeMatrix,
    _frozen,
    gsw_taus,
    silver_schedule,
    theta_sequence,
)


def _check_multipliers(lam: np.ndarray, r, *coeffs: np.ndarray) -> None:
    """Reject what makes no proof: a non-finite entry, r <= 0, a nonzero
    lam[i, i] (the identities ignore it, aggregates reads it) or an entry of
    lam below -MU_TOL times its scale, the slack the mu check allows."""
    low, high = float(lam.min()), float(lam.max())  # a NaN anywhere makes both NaN
    if not (np.isfinite([r, low, high]).all() and all(np.isfinite(c).all() for c in coeffs)):
        raise ValueError("certificate entries must be finite")
    if not r > 0.0:
        raise ValueError(f"certificate weight r must be positive, got {r!r}")
    if np.any(np.diagonal(lam)):
        raise ValueError("certificate multipliers lam[i, i] must be zero")
    if low < -config.MU_TOL * max(1.0, -low, high):
        i, j = np.unravel_index(np.argmin(lam), lam.shape)
        raise ValueError(f"certificate multipliers must be nonnegative, got lam[{i}, {j}] = {low:.6g}")


@dataclass(frozen=True)
class FuncCertificate:
    """Multipliers certifying an objective-gap rate.

    lam has shape (n+2, n+1) with n >= 1: rows are iterate indices 0..n plus
    the optimum row last, columns are 0..n.  gamma has length n+1 and r > 0.
    """

    lam: np.ndarray
    gamma: np.ndarray
    r: float

    def __post_init__(self):
        lam = _frozen(self.lam)
        gamma = _frozen(self.gamma)
        if lam.ndim != 2 or lam.shape[0] != lam.shape[1] + 1 or lam.shape[1] < 2:
            raise ValueError(f"lam must be (n+2, n+1) with n >= 1, got {lam.shape}")
        if gamma.shape != (lam.shape[1],):
            raise ValueError(f"gamma length {gamma.shape} does not match lam {lam.shape}")
        _check_multipliers(lam, self.r, gamma)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "gamma", gamma)

    @property
    def n(self) -> int:
        return self.lam.shape[1] - 1


@dataclass(frozen=True)
class GradCertificate:
    """Multipliers certifying a gradient-norm rate; lam is (n+1, n+1), n >= 1."""

    lam: np.ndarray
    r: float

    def __post_init__(self):
        lam = _frozen(self.lam)
        if lam.ndim != 2 or lam.shape[0] != lam.shape[1] or lam.shape[1] < 2:
            raise ValueError(f"lam must be square (n+1, n+1) with n >= 1, got {lam.shape}")
        _check_multipliers(lam, self.r)
        object.__setattr__(self, "lam", lam)

    @property
    def n(self) -> int:
        return self.lam.shape[1] - 1


# ---------------------------------------------------------------------------
# Aggregated multiplier matrices
# ---------------------------------------------------------------------------


def aggregates(cert: FuncCertificate | GradCertificate) -> tuple[np.ndarray, np.ndarray]:
    """The symmetrized (hat) and shifted (tilde) multiplier matrices.

    hat[i, j] = lam[i, j] + lam[j, i] off the diagonal and minus the full
    cross sum on it; tilde collects rows 1..n over columns 0..n-1 with the
    diagonal positions replaced by minus the column sums.
    """
    lam = cert.lam
    n = cert.n
    col = lam.sum(axis=0)
    row = lam[: n + 1].sum(axis=1)
    hat = lam[:n, :n] + lam[:n, :n].T
    hat[np.diag_indices(n)] = -(col[:n] + row[:n])
    tilde = lam[1 : n + 1, :n].copy()
    for i in range(1, n):
        tilde[i - 1, i] = -col[i]
    return hat, tilde


# ---------------------------------------------------------------------------
# Certificate constructors
# ---------------------------------------------------------------------------


def _doubled(lam: np.ndarray, scale: float, block: np.ndarray, kk: int, glue: float, down: float) -> np.ndarray:
    """One doubling from order kk to kk+1: lam and scale * block (written in
    place) on the diagonal, glue * (silver_schedule(kk), 1) along lam's last
    row, glue * silver_schedule(kk) along block's, and down under lam's corner."""
    n = 2**kk - 1
    m = 2 * n + 1
    new = np.zeros((m + 1, m + 1))
    new[: n + 1, : n + 1] = lam
    np.multiply(scale, block, out=new[n + 1 :, n + 1 :])
    new[n, m] += glue
    new[m, n] += down
    pi = silver_schedule(kk)
    new[n, n + 1 : m] += glue * pi
    new[m, n + 1 : m] += glue * pi
    return new


def silver_lambda_bar(k: int) -> np.ndarray:
    """Iterate-row multipliers for silver-stepsize GD, by recursive gluing.

    Each doubling pastes the previous block, its copy scaled by rho**2, a
    two-entry sparse correction, and a low-rank correction along the rows of
    the two glue indices.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    rho = SILVER_RATIO
    lam = np.array([[0.0, rho], [1.0, 0.0]])
    for kk in range(1, k):
        lam = _doubled(lam, rho**2, lam, kk, rho, rho**kk)
    return lam


def silver_func_certificate(k: int) -> FuncCertificate:
    """Objective-gap certificate for GD with the silver stepsizes of order k."""
    rho = SILVER_RATIO
    bar = silver_lambda_bar(k)
    star = np.concatenate([silver_schedule(k), [rho**k]])
    lam = np.vstack([bar, star])
    return FuncCertificate(lam=lam, gamma=star, r=2.0 * rho**k - 1.0)


def ogm_func_certificate(n: int) -> FuncCertificate:
    """Objective-gap certificate for the optimized gradient method."""
    t = theta_sequence(n)
    lam = np.zeros((n + 2, n + 1))
    for i in range(n):
        lam[i, i + 1] = 2.0 * t[i] ** 2
    gamma = np.concatenate([2.0 * t[:n], [t[n]]])
    lam[n + 1] = gamma  # the optimum row
    return FuncCertificate(lam=lam, gamma=gamma, r=float(t[n] ** 2))


def gsw_grad_certificate(k: int) -> GradCertificate:
    """Gradient-norm certificate for GD with the bridge-augmented stepsizes.

    Each doubling glues on silver's iterate-row block of its order, carried by
    silver's own doubling and rescaled by tau_{kk+1}/rho**(2 kk).
    """
    rho = SILVER_RATIO
    taus = gsw_taus(k)
    lam = np.array([[0.0, 2.0], [1.0, 0.0]])
    bar = silver_lambda_bar(1)  # silver_lambda_bar(kk) at doubling kk
    for kk in range(1, k):
        t = taus[kk]  # tau_{kk+1}
        scale = t / rho ** (2 * kk)
        lam = _doubled(lam, scale, bar, kk, 0.5 * scale, t / (2.0 * rho**kk) - 1.0)
        if kk < k - 1:
            bar = _doubled(bar, rho**2, bar, kk, rho, rho**kk)
    return GradCertificate(lam=lam, r=float(taus[-1] - 1.0))


def ogmg_grad_certificate(n: int) -> GradCertificate:
    """Gradient-norm certificate for the gradient-norm optimized method."""
    t = theta_sequence(n)
    tn2 = t[n] ** 2
    lam = np.zeros((n + 1, n + 1))
    for i in range(n):
        lam[i, i + 1] = tn2 / (2.0 * t[n - i - 1] ** 2)
    for j in range(1, n):
        lam[n, j] = tn2 * (1.0 / (2.0 * t[n - j - 1] ** 2) - 1.0 / (2.0 * t[n - j] ** 2))
    lam[n, 0] = tn2 * (1.0 / (2.0 * t[n - 1] ** 2) - 1.0 / tn2)
    return GradCertificate(lam=lam, r=float(tn2 - 1.0))


# ---------------------------------------------------------------------------
# Identity verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityReport:
    """Max-abs coefficient mismatch between the two sides of an identity."""

    quad_residual: float
    lin_f_residual: float
    lin_h_residual: float
    scale: float
    tol: float

    @property
    def max_residual(self) -> float:
        # np.max keeps a NaN from any group; max() would keep it only from the first
        return float(np.max([self.quad_residual, self.lin_f_residual, self.lin_h_residual]))

    @property
    def passed(self) -> bool:
        return self.max_residual < self.tol * self.scale

    def to_dict(self) -> dict:
        return {
            "residuals": {
                "quad": self.quad_residual,
                "linF": self.lin_f_residual,
                "linH": self.lin_h_residual,
            },
            "scale": self.scale,
            "tol": self.tol,
            "pass": self.passed,
        }


def _report(lhs: GramLedger, rhs: GramLedger) -> IdentityReport:
    quad, lf, lh = lhs.residual_vs(rhs)
    scale = max(lhs.max_abs(), rhs.max_abs(), 1.0)
    return IdentityReport(
        quad_residual=quad,
        lin_f_residual=lf,
        lin_h_residual=lh,
        scale=scale,
        tol=config.REL_TOL,
    )


def _smooth_ledger(H: StepsizeMatrix, cert: FuncCertificate | GradCertificate, composite: bool) -> GramLedger:
    """A fresh ledger holding the certificate's smooth inequalities, sum
    lam[i, j] Q_ij, along the plain method or, when composite, along its
    composite extension; a func certificate's optimum row lands on STAR.

    The composite ledger's leading n+2 symbols, with lin_f and lin_h, hold
    the unconstrained ledger bit for bit: the composite extension adds the
    subgradient columns and STAR's -s_star and leaves the rest as it is.  So
    a lift cell (verify_cell) assembles the smooth inequalities once, on the
    composite basis, and hands the ledger to both identities as `smooth`:
    the unconstrained one copies its leading block, the composite one
    continues from it."""
    n = cert.n
    if H.n != n:
        raise ValueError(f"stepsize matrix is {H.n}-step but certificate has n={n}")
    led = GramLedger(n, composite)
    coco_block(led, cert.lam, H, "composite_f" if composite else "unconstrained")
    return led


def func_identity_ledgers(
    H: StepsizeMatrix, cert: FuncCertificate, *, smooth: GramLedger | None = None
) -> tuple[GramLedger, GramLedger]:
    """Both sides of the objective-gap identity as unconstrained-basis ledgers.

    smooth, when given, is _smooth_ledger(H, cert, composite=True); the lhs
    starts from a copy of its leading block, and smooth is left as it is."""
    n = cert.n
    lhs = _smooth_ledger(H, cert, composite=False) if smooth is None else smooth.leading_block()
    square = np.zeros(lhs.quad.shape[0])
    square[ix_dist(n)] = 1.0
    for i in range(n + 1):
        square[ix_g(n, i)] -= cert.gamma[i]
    lhs.add_square(square, 0.5)

    rhs = GramLedger(n, composite=False)
    rhs.add_f(STAR, cert.r)
    rhs.add_f(n, -cert.r)
    rhs.quad[ix_dist(n), ix_dist(n)] += 0.5
    return lhs, rhs


def verify_func_identity(
    H: StepsizeMatrix, cert: FuncCertificate, *, smooth: GramLedger | None = None
) -> IdentityReport:
    """Check the objective-gap identity for the plain method with H, from
    the composite smooth ledger when one is given (see func_identity_ledgers).

    Failure is reported, not raised: the report carries the residuals split
    by coefficient group and the pass flag at the configured tolerance.
    """
    return _report(*func_identity_ledgers(H, cert, smooth=smooth))


def grad_identity_ledgers(
    H: StepsizeMatrix, cert: GradCertificate, *, smooth: GramLedger | None = None
) -> tuple[GramLedger, GramLedger]:
    """Both sides of the gradient-norm identity as unconstrained-basis
    ledgers; smooth as for func_identity_ledgers."""
    n = cert.n
    lhs = _smooth_ledger(H, cert, composite=False) if smooth is None else smooth.leading_block()

    rhs = GramLedger(n, composite=False)
    rhs.add_f(0, 1.0)
    rhs.add_f(n, -1.0)
    rhs.quad[ix_g(n, n), ix_g(n, n)] -= 0.5 * cert.r
    return lhs, rhs


def verify_grad_identity(
    H: StepsizeMatrix, cert: GradCertificate, *, smooth: GramLedger | None = None
) -> IdentityReport:
    """Check the gradient-norm identity for the plain method with H; smooth
    as for func_identity_ledgers."""
    return _report(*grad_identity_ledgers(H, cert, smooth=smooth))
