"""Lifting unconstrained certificates to the composite (proximal) setting.

Given a verified objective-gap certificate (lam, gamma, r) for a method with
stepsize matrix H, the lift produces in closed form the extra multipliers for
the nonsmooth inequalities, the single-square coefficients and the structured
slack matrix

    S = [[xi, v^T], [v, L]],      L Laplacian,  sum(v) = 0,

such that the composite identity holds exactly and, whenever the multipliers
are nonnegative and S is positive semidefinite, certifies

    F_n - F_star <= (1 + xi) / (2 r) * ||x0 - xstar||^2.

The gradient-norm analogue carries slack S' built from a diagonally dominant
block minus a rank-one term and certifies
||g_n + s_n||^2 <= 2 / (r (1 - xi')) * (F_0 - F_n).

Feasibility and identity checks report; they never raise on failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import config
from .certificates import (
    FuncCertificate,
    GradCertificate,
    IdentityReport,
    _report,
    aggregates,
    verify_func_identity,
    verify_grad_identity,
)
from .ledger import (
    STAR,
    GramLedger,
    basis_dim,
    coco_block,
    ix_dist,
    ix_g,
    ix_s,
    ix_s_star,
)
from .schedules import StepsizeMatrix, cumulative


def _frozen(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class CompositeFuncLift:
    """Closed-form composite certificate derived from an objective one.

    sigma stacks the subgradient square-term weights (positions 1..n plus the
    optimum slot); mu has one row per nonsmooth-inequality source index
    (1..n, optimum last) and one column per subgradient 1..n.  u_coeffs is
    the single-square linear combination expanded over the global symbol
    basis.  slack is the full (n+2) x (n+2) matrix S.
    """

    n: int
    sigma: np.ndarray
    mu_tilde: np.ndarray
    mu: np.ndarray
    v: np.ndarray
    laplacian: np.ndarray
    xi: float
    slack: np.ndarray
    u_coeffs: np.ndarray
    r: float

    def __post_init__(self):
        for name in ("sigma", "mu_tilde", "mu", "v", "laplacian", "slack", "u_coeffs"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))


@dataclass(frozen=True)
class CompositeGradLift:
    """Closed-form composite certificate derived from a gradient-norm one."""

    n: int
    mu_tilde: np.ndarray
    mu: np.ndarray
    v: np.ndarray
    xi: float
    base_block: np.ndarray  # [[r, v^T], [v, -hat]], diagonally dominant
    slack: np.ndarray  # base_block minus the rank-one corner term
    r: float

    def __post_init__(self):
        for name in ("mu_tilde", "mu", "v", "base_block", "slack"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))


def pseudoinverse_xi(v: np.ndarray, laplacian: np.ndarray) -> float:
    """Smallest xi making S positive semidefinite: v^T L^+ v, with the
    pseudoinverse taken by eigendecomposition (cutoff 1e-10 * ||L||)."""
    w, q = np.linalg.eigh(laplacian)
    cutoff = 1e-10 * max(abs(w[0]), abs(w[-1]), 1e-300)
    inv = np.where(w > cutoff, 1.0 / np.where(w > cutoff, w, 1.0), 0.0)
    proj = q.T @ v
    return float(proj @ (inv * proj))


def lift_func(H: StepsizeMatrix, cert: FuncCertificate, xi: float | str) -> CompositeFuncLift:
    """Lift an objective-gap certificate to the composite setting.

    xi is either an explicit positive constant or the string 'pseudo',
    which picks the pseudoinverse diagnostic value v^T L^+ v.  The shifted
    nonsmooth multipliers are computed through both closed-form expressions
    and cross-checked; a mismatch means the input certificate does not
    satisfy the unconstrained identity.
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

    agg = aggregates(cert)
    hc = cumulative(H).entries
    via_quad = -np.linalg.solve(hc, (hc @ agg.tilde).T + np.outer(gamma_head, gamma_head + sigma_head))
    via_hat = np.linalg.solve(hc, agg.hat - np.outer(gamma_head, sigma_head)) + agg.tilde
    scale = max(np.max(np.abs(via_quad)), np.max(np.abs(via_hat)), 1.0)
    if np.max(np.abs(via_quad - via_hat)) > 1e-9 * scale:
        raise ValueError("closed-form multiplier expressions disagree; certificate does not satisfy the identity")
    mu_tilde = via_quad

    mu = np.zeros((n + 1, n))
    mu[:n] = mu_tilde
    mu[np.arange(n), np.arange(n)] = 0.0
    mu[n] = -mu_tilde.sum(axis=0)  # optimum row

    v = np.empty(n + 1)
    v[:n] = sigma[:n] + lam[n + 1, :n] - mu[n]
    v[n] = sigma[n]

    lam_star_total = float(lam[n + 1].sum())
    block = np.empty((n + 1, n + 1))
    block[:n, :n] = -agg.hat
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

    u = np.zeros(basis_dim(n))
    for i in range(n + 1):
        u[ix_g(n, i)] += gamma[i]
    for j in range(1, n + 1):
        u[ix_s(n, j)] += gamma[j - 1] + sigma[j - 1]
    u[ix_s_star(n)] += sigma[n]

    return CompositeFuncLift(
        n=n, sigma=sigma, mu_tilde=mu_tilde, mu=mu, v=v,
        laplacian=laplacian, xi=xi_val, slack=slack, u_coeffs=u, r=r,
    )


def lift_grad(H: StepsizeMatrix, cert: GradCertificate, xi: float | None = None) -> CompositeGradLift:
    """Lift a gradient-norm certificate to the composite setting.

    Defaults xi' to 1 - (lam[n-1, n] + lam[n, n-1]) / r, which zeroes the
    critical corner of the slack matrix and keeps it diagonally dominant.
    """
    if xi is not None and (isinstance(xi, str) or not 0.0 <= xi < 1.0):
        raise ValueError(f"xi must lie in [0, 1) for the grad metric, got {xi!r}")
    n = cert.n
    if H.n != n:
        raise ValueError(f"stepsize matrix is {H.n}-step but certificate has n={n}")
    lam, r = cert.lam, cert.r
    agg = aggregates(cert)
    hc = cumulative(H).entries
    mu_tilde = -np.linalg.solve(hc, (hc @ agg.tilde).T)

    mu = np.zeros((n + 1, n))
    mu[0] = -mu_tilde.sum(axis=0)
    mu[1:] = mu_tilde
    mu[np.arange(1, n + 1), np.arange(n)] = 0.0

    v = lam[:n, n] + lam[n, :n]
    if xi is None:
        xi = 1.0 - (lam[n - 1, n] + lam[n, n - 1]) / r
    xi = float(xi)

    base = np.empty((n + 1, n + 1))
    base[0, 0] = r
    base[0, 1:] = v
    base[1:, 0] = v
    base[1:, 1:] = -agg.hat
    corner = np.zeros(n + 1)
    corner[0] = 1.0
    corner[n] = 1.0
    slack = base - r * (1.0 - xi) * np.outer(corner, corner)

    return CompositeGradLift(n=n, mu_tilde=mu_tilde, mu=mu, v=v, xi=xi, base_block=base, slack=slack, r=r)


# ---------------------------------------------------------------------------
# Feasibility checks
# ---------------------------------------------------------------------------


def _laplacian_violations(m: np.ndarray) -> tuple[float, float]:
    """(largest positive off-diagonal, largest |row sum|)."""
    off = m - np.diag(np.diag(m))
    return float(off.max(initial=0.0)), float(np.max(np.abs(m.sum(axis=1))))


def _diag_dominance_margin(m: np.ndarray) -> float:
    """min over rows of diag - sum |offdiag|; nonnegative means dominant."""
    off = np.abs(m) - np.diag(np.abs(np.diag(m)))
    return float(np.min(np.diag(m) - off.sum(axis=1)))


@dataclass(frozen=True)
class FuncFeasibilityReport:
    """Feasibility evidence: `passed` covers the two required items
    (nonnegative multipliers, S positive semidefinite by its eigenvalues);
    the Schur-Laplacian flag reports the structural route separately, since
    the eigenvalue-minimal xi is PSD-feasible without being Laplacian-checkable.
    """

    xi: float
    min_mu: float
    mu_scale: float
    min_eig: float
    spectral_norm: float
    schur_offdiag_max: float
    schur_rowsum_max: float
    l_offdiag_max: float
    l_rowsum_max: float
    v_sum: float
    mu_ok: bool
    eig_ok: bool
    schur_laplacian_ok: bool
    l_laplacian_ok: bool

    @property
    def passed(self) -> bool:
        return self.mu_ok and self.eig_ok

    def to_dict(self) -> dict:
        return {
            "xi": self.xi,
            "min_mu": self.min_mu,
            "min_eig_S": self.min_eig,
            "laplacian_ok": self.schur_laplacian_ok,
            "mu_ok": self.mu_ok,
            "eig_ok": self.eig_ok,
            "pass": self.passed,
        }


def check_func_feasibility(lift: CompositeFuncLift, xi: float | None = None) -> FuncFeasibilityReport:
    """Nonnegativity of the nonsmooth multipliers plus two-route evidence
    that S is positive semidefinite: eigenvalues of S itself, and the Schur
    route requiring L - (1/xi) v v^T to stay Laplacian."""
    xi_val = lift.xi if xi is None else float(xi)
    mu_scale = max(1.0, float(np.max(np.abs(lift.mu))))
    min_mu = float(lift.mu.min())

    slack = np.array(lift.slack)
    slack[0, 0] = xi_val
    eigs = np.linalg.eigvalsh(slack)
    snorm = max(abs(float(eigs[0])), abs(float(eigs[-1])))

    if xi_val <= 0.0:
        raise ValueError(f"the Schur route needs xi > 0, got {xi_val}")
    schur = lift.laplacian - np.outer(lift.v, lift.v) / xi_val
    lap_scale = max(1.0, float(np.max(np.abs(schur))))
    s_off, s_row = _laplacian_violations(schur)

    l_scale = max(1.0, float(np.max(np.abs(lift.laplacian))))
    l_off, l_row = _laplacian_violations(lift.laplacian)

    tol_lap = config.LAPLACIAN_TOL
    return FuncFeasibilityReport(
        xi=xi_val,
        min_mu=min_mu,
        mu_scale=mu_scale,
        min_eig=float(eigs[0]),
        spectral_norm=snorm,
        schur_offdiag_max=s_off,
        schur_rowsum_max=s_row,
        l_offdiag_max=l_off,
        l_rowsum_max=l_row,
        v_sum=float(lift.v.sum()),
        mu_ok=min_mu >= -config.MU_TOL * mu_scale,
        eig_ok=float(eigs[0]) >= -config.PSD_TOL * max(snorm, 1.0),
        schur_laplacian_ok=(s_off <= tol_lap * lap_scale and s_row <= tol_lap * lap_scale),
        l_laplacian_ok=(l_off <= tol_lap * l_scale and l_row <= tol_lap * l_scale),
    )


@dataclass(frozen=True)
class GradFeasibilityReport:
    """As in the objective case: `passed` is the two required items, with
    diagonal dominance reported as the structural route."""

    xi: float
    min_mu: float
    mu_scale: float
    min_eig: float
    spectral_norm: float
    base_dd_margin: float
    slack_dd_margin: float
    corner_value: float
    mu_ok: bool
    eig_ok: bool
    dd_ok: bool

    @property
    def passed(self) -> bool:
        return self.mu_ok and self.eig_ok

    def to_dict(self) -> dict:
        return {
            "xi": self.xi,
            "min_mu": self.min_mu,
            "min_eig_S": self.min_eig,
            "diag_dominant_ok": self.dd_ok,
            "mu_ok": self.mu_ok,
            "eig_ok": self.eig_ok,
            "pass": self.passed,
        }


def check_grad_feasibility(lift: CompositeGradLift) -> GradFeasibilityReport:
    """Nonnegativity of the multipliers plus PSD evidence for S': eigenvalues
    and diagonal dominance, whose only nontrivial requirement after the
    rank-one subtraction is a nonnegative (1, n+1) corner entry."""
    mu_scale = max(1.0, float(np.max(np.abs(lift.mu))))
    min_mu = float(lift.mu.min())
    eigs = np.linalg.eigvalsh(lift.slack)
    snorm = max(abs(float(eigs[0])), abs(float(eigs[-1])))
    scale = max(1.0, float(np.max(np.abs(lift.slack))))
    base_margin = _diag_dominance_margin(lift.base_block)
    slack_margin = _diag_dominance_margin(lift.slack)
    corner = float(lift.slack[0, -1])
    tol = config.LAPLACIAN_TOL
    return GradFeasibilityReport(
        xi=lift.xi,
        min_mu=min_mu,
        mu_scale=mu_scale,
        min_eig=float(eigs[0]),
        spectral_norm=snorm,
        base_dd_margin=base_margin,
        slack_dd_margin=slack_margin,
        corner_value=corner,
        mu_ok=min_mu >= -config.MU_TOL * mu_scale,
        eig_ok=float(eigs[0]) >= -config.PSD_TOL * max(snorm, 1.0),
        dd_ok=slack_margin >= -tol * scale,
    )


# ---------------------------------------------------------------------------
# Composite identity verification
# ---------------------------------------------------------------------------


def _slack_indices_func(n: int) -> np.ndarray:
    return np.array([ix_dist(n)] + [ix_s(n, j) for j in range(1, n + 1)] + [ix_s_star(n)])


def composite_func_ledgers(
    H: StepsizeMatrix,
    cert: FuncCertificate,
    lift: CompositeFuncLift,
    xi: float | None = None,
) -> tuple[GramLedger, GramLedger]:
    """Both sides of the lifted objective-gap identity as ledgers."""
    n = cert.n
    xi_val = lift.xi if xi is None else float(xi)
    hcum = cumulative(H).entries

    lhs = GramLedger(n)
    W = np.zeros((n + 2, n + 2))
    W[:, : n + 1] = cert.lam
    coco_block(lhs, W, hcum, smooth=True, composite=True, coupled_star=True)
    W[:] = 0.0
    W[1:, 1 : n + 1] = lift.mu  # sources 1..n and STAR, subgradients 1..n
    coco_block(lhs, W, hcum, smooth=False, composite=True, coupled_star=True)

    square = -np.array(lift.u_coeffs)
    square[ix_dist(n)] += 1.0
    lhs.add_square(square, 0.5)

    slack = np.array(lift.slack)
    if xi is not None:  # re-anchor the corner only on an explicit override
        slack[0, 0] = xi_val
    lhs.add_block(_slack_indices_func(n), slack, 0.5)

    rhs = GramLedger(n)
    rhs.add_f(STAR, cert.r)
    rhs.add_h(STAR, cert.r)
    rhs.add_f(n, -cert.r)
    rhs.add_h(n, -cert.r)
    rhs.quad[ix_dist(n), ix_dist(n)] += 0.5 * (1.0 + xi_val)
    return lhs, rhs


def verify_composite_func_identity(
    H: StepsizeMatrix,
    cert: FuncCertificate,
    lift: CompositeFuncLift,
    xi: float | None = None,
    tol: float | None = None,
) -> IdentityReport:
    """Exact coefficient check of the lifted objective-gap identity.

    The trace term over S is expanded symbolically (never instantiated with
    vectors), so the check is independent of any problem instance.  The
    identity holds for every xi since it enters both sides identically.
    """
    lhs, rhs = composite_func_ledgers(H, cert, lift, xi)
    return _report(lhs, rhs, tol)


def composite_grad_ledgers(
    H: StepsizeMatrix,
    cert: GradCertificate,
    lift: CompositeGradLift,
) -> tuple[GramLedger, GramLedger]:
    """Both sides of the lifted gradient-norm identity as ledgers."""
    n = cert.n
    hcum = cumulative(H).entries

    lhs = GramLedger(n)
    W = np.zeros((n + 2, n + 2))
    W[: n + 1, : n + 1] = cert.lam
    coco_block(lhs, W, hcum, smooth=True, composite=True, coupled_star=True)
    W[:] = 0.0
    W[: n + 1, 1 : n + 1] = lift.mu  # sources 0..n, subgradients 1..n
    coco_block(lhs, W, hcum, smooth=False, composite=True, coupled_star=True)

    indices = np.array([ix_g(n, n)] + [ix_s(n, j) for j in range(1, n + 1)])
    lhs.add_block(indices, lift.slack, 0.5)

    rhs = GramLedger(n)
    rhs.add_f(0, 1.0)
    rhs.add_f(n, -1.0)
    rhs.add_h(0, 1.0)
    rhs.add_h(n, -1.0)
    final = np.zeros(basis_dim(n))
    final[[ix_g(n, n), ix_s(n, n)]] = 1.0
    rhs.add_square(final, -0.5 * cert.r * (1.0 - lift.xi))
    return lhs, rhs


def verify_composite_grad_identity(
    H: StepsizeMatrix,
    cert: GradCertificate,
    lift: CompositeGradLift,
    tol: float | None = None,
) -> IdentityReport:
    """Exact coefficient check of the lifted gradient-norm identity."""
    lhs, rhs = composite_grad_ledgers(H, cert, lift)
    return _report(lhs, rhs, tol)


# ---------------------------------------------------------------------------
# Rates and the whole recipe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertifiedRate:
    metric: str  # 'func' or 'grad'
    constant: float


def certified_rate(lift: CompositeFuncLift | CompositeGradLift) -> CertifiedRate:
    """The constant certified by a feasible lift: (1 + xi)/(2 r) in front of
    the squared initial distance, or 2/(r (1 - xi)) in front of the initial
    composite gap."""
    if isinstance(lift, CompositeFuncLift):
        return CertifiedRate(metric="func", constant=(1.0 + lift.xi) / (2.0 * lift.r))
    return CertifiedRate(metric="grad", constant=2.0 / (lift.r * (1.0 - lift.xi)))


@dataclass(frozen=True)
class Cell:
    """One run of the recipe on a certificate.  The lift fields stay None
    when only the unconstrained identity was checked.  structural_ok is the
    structural PSD route of the metric: the Schur complement stays Laplacian
    (func) or the slack stays diagonally dominant (grad)."""

    n: int
    identity: IdentityReport
    passed: bool  # every check that ran
    lifted: CompositeFuncLift | CompositeGradLift | None = None
    feasibility: FuncFeasibilityReport | GradFeasibilityReport | None = None
    composite: IdentityReport | None = None
    structural_ok: bool = False
    rate: float | None = None


def verify_cell(
    H: StepsizeMatrix,
    cert: FuncCertificate | GradCertificate,
    xi: float | str | None = None,
    *,
    lift: bool = True,
) -> Cell:
    """Certificate -> lift -> feasibility -> composite identity.

    Checks the unconstrained identity and, unless lift is False, lifts with
    the given xi and checks feasibility and the composite identity.  This is
    the one place that picks the objective-gap or gradient-norm form of a step.
    """
    func = isinstance(cert, FuncCertificate)
    identity = (verify_func_identity if func else verify_grad_identity)(H, cert)
    if not lift:
        return Cell(cert.n, identity, identity.passed)
    lifted = (lift_func if func else lift_grad)(H, cert, xi)
    feasibility = (check_func_feasibility if func else check_grad_feasibility)(lifted)
    composite = (verify_composite_func_identity if func else verify_composite_grad_identity)(H, cert, lifted)
    structural_ok = feasibility.schur_laplacian_ok if func else feasibility.dd_ok
    passed = identity.passed and composite.passed and feasibility.passed
    return Cell(cert.n, identity, passed, lifted, feasibility, composite, structural_ok, certified_rate(lifted).constant)
