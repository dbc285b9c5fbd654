"""Lifting unconstrained certificates to the composite (proximal) setting.

Given an objective-gap certificate (lam, gamma, r) for a method with
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

The lift assumes, and never checks, that its certificate satisfies the
unconstrained identity; the identity and feasibility checks judge both, and
report rather than raise on failure.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import config
from .certificates import (
    FuncCertificate,
    GradCertificate,
    IdentityReport,
    _report,
    _smooth_ledger,
    aggregates,
    verify_func_identity,
    verify_grad_identity,
)
from .ledger import (
    STAR,
    GramLedger,
    _max_abs,
    _row_blocks,
    basis_dim,
    coco_block,
    ix_dist,
    ix_g,
    ix_s,
    ix_s_star,
)
from .schedules import StepsizeMatrix, _frozen, cumulative


@dataclass(frozen=True)
class CompositeFuncLift:
    """Closed-form composite certificate derived from an objective one.

    sigma stacks the subgradient square-term weights (positions 1..n plus the
    optimum slot); mu has one row per nonsmooth-inequality source index
    (1..n, optimum last) and one column per subgradient 1..n, and its
    optimum row makes each column sum minus the diagonal entry the rows
    above drop (the self-pair, which is no inequality).  u_coeffs is
    the single-square linear combination expanded over the global symbol
    basis.  slack is the full (n+2) x (n+2) matrix S, and laplacian its
    lower-right block L (a view of slack when built by lift_func).
    """

    n: int
    sigma: np.ndarray
    mu: np.ndarray
    v: np.ndarray
    laplacian: np.ndarray
    xi: float
    slack: np.ndarray
    u_coeffs: np.ndarray
    r: float

    def __post_init__(self):
        for name in ("sigma", "mu", "v", "laplacian", "slack", "u_coeffs"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))


@dataclass(frozen=True)
class CompositeGradLift:
    """Closed-form composite certificate derived from a gradient-norm one."""

    n: int
    mu: np.ndarray
    v: np.ndarray
    xi: float
    slack: np.ndarray  # [[r, v^T], [v, -hat]] minus r (1 - xi) at its four corners
    r: float

    def __post_init__(self):
        for name in ("mu", "v", "slack"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))


def _freeze(*arrays: np.ndarray) -> None:
    """Make arrays built here read-only, so the lift's _frozen keeps them
    instead of copying."""
    for a in arrays:
        a.setflags(write=False)


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
    nonsmooth multipliers come from one closed form; verify_cell judges them.
    """
    if xi != "pseudo" and not (isinstance(xi, numbers.Real) and 0.0 < xi < math.inf):
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

    # Every n x n intermediate is formed in place, and outer products a block
    # of rows at a time.  L is written into S's corner, and is a view of S.
    hat, tilde = aggregates(cert)
    hc = cumulative(H)
    rhs = (hc @ tilde).T
    del tilde
    gamma_sum = gamma_head + sigma[:n]
    for rows in _row_blocks(n):
        rhs[rows] += np.outer(gamma_head[rows], gamma_sum)
    mu = np.empty((n + 1, n))
    mu[:n] = np.linalg.solve(hc, rhs)
    del rhs
    np.negative(mu[:n], out=mu[:n])
    mu[n] = -mu[:n].sum(axis=0)  # optimum row, taken before the diagonal is zeroed
    mu[np.arange(n), np.arange(n)] = 0.0

    slack = np.empty((n + 2, n + 2))
    laplacian = slack[1:, 1:]
    np.negative(hat, out=laplacian[:n, :n])
    del hat
    laplacian[:n, n] = -gamma_head
    laplacian[n, :n] = -gamma_head
    laplacian[n, n] = float(lam[n + 1].sum())
    for rows in _row_blocks(n + 1):
        laplacian[rows] -= np.outer(sigma[rows], sigma)

    v = np.empty(n + 1)
    v[:n] = sigma[:n] + lam[n + 1, :n] - mu[n]
    v[n] = sigma[n]

    xi_val = pseudoinverse_xi(v, laplacian) if xi == "pseudo" else float(xi)

    slack[0, 0] = xi_val
    slack[0, 1:] = v
    slack[1:, 0] = v

    u = np.zeros(basis_dim(n))
    for i in range(n + 1):
        u[ix_g(n, i)] += gamma[i]
    for j in range(1, n + 1):
        u[ix_s(n, j)] += gamma[j - 1] + sigma[j - 1]
    u[ix_s_star(n)] += sigma[n]

    _freeze(sigma, mu, v, laplacian, slack, u)
    return CompositeFuncLift(
        n=n, sigma=sigma, mu=mu, v=v,
        laplacian=laplacian, xi=xi_val, slack=slack, u_coeffs=u, r=r,
    )


def lift_grad(H: StepsizeMatrix, cert: GradCertificate, xi: float | None = None) -> CompositeGradLift:
    """Lift a gradient-norm certificate to the composite setting.

    Defaults xi' to 1 - (lam[n-1, n] + lam[n, n-1]) / r, which zeroes the
    critical corner of the slack matrix and keeps it diagonally dominant;
    a default outside [0, 1) raises, as an explicit xi' there does.
    """
    if xi is not None and not (isinstance(xi, numbers.Real) and 0.0 <= xi < 1.0):
        raise ValueError(f"xi must lie in [0, 1) for the grad metric, got {xi!r}")
    n = cert.n
    if H.n != n:
        raise ValueError(f"stepsize matrix is {H.n}-step but certificate has n={n}")
    lam, r = cert.lam, cert.r
    hat, tilde = aggregates(cert)
    hc = cumulative(H)
    mu = np.empty((n + 1, n))
    mu[1:] = np.linalg.solve(hc, (hc @ tilde).T)
    del tilde
    np.negative(mu[1:], out=mu[1:])
    mu[0] = -mu[1:].sum(axis=0)  # taken before the diagonal is zeroed
    mu[np.arange(1, n + 1), np.arange(n)] = 0.0

    v = lam[:n, n] + lam[n, :n]
    if xi is None:
        corner = float(lam[n - 1, n] + lam[n, n - 1])
        xi = 1.0 - corner / r
        if not 0.0 <= xi < 1.0:
            raise ValueError(
                f"the default xi' = 1 - (lam[{n - 1}, {n}] + lam[{n}, {n - 1}]) / r = {xi!r} lies outside [0, 1):"
                f" the two corner entries sum to {corner!r}, and r = {r!r}"
            )
    xi = float(xi)

    slack = np.empty((n + 1, n + 1))
    slack[0, 0] = r
    slack[0, 1:] = v
    slack[1:, 0] = v
    np.negative(hat, out=slack[1:, 1:])
    del hat
    slack[np.ix_([0, n], [0, n])] -= r * (1.0 - xi)  # r (1 - xi) e e^T, e the indicator of 0 and n

    _freeze(mu, v, slack)
    return CompositeGradLift(n=n, mu=mu, v=v, xi=xi, slack=slack, r=r)


# ---------------------------------------------------------------------------
# Feasibility checks
# ---------------------------------------------------------------------------


def _laplacian_violations(m: np.ndarray) -> tuple[float, float]:
    """(largest positive off-diagonal, largest |row sum|).

    Overwrites the diagonal of m, so m must be scratch."""
    row_max = _max_abs(m.sum(axis=1))
    diag = np.diagonal(m).copy()
    np.fill_diagonal(m, diag - diag)  # zero where finite, as m - diag(diag(m)) has it
    return float(m.max(initial=0.0)), row_max


def _diag_dominance_margin(m: np.ndarray) -> float:
    """min over rows of diag - sum |offdiag|; nonnegative means dominant."""
    off = np.abs(m)
    diag = np.diagonal(off).copy()
    np.fill_diagonal(off, diag - diag)  # zero where finite, as |m| - diag(|diag(m)|) has it
    return float(np.min(np.diag(m) - off.sum(axis=1)))


@dataclass(frozen=True)
class _FeasibilityReport:
    """Feasibility evidence: `passed` covers the two required items
    (nonnegative multipliers, S positive semidefinite by its eigenvalues);
    each metric's subclass reports its structural PSD route separately, as
    `structural_ok`, under the JSON key STRUCTURAL_KEY."""

    STRUCTURAL_KEY: ClassVar[str]

    xi: float
    min_mu: float
    mu_scale: float
    min_eig: float
    spectral_norm: float
    mu_ok: bool
    eig_ok: bool

    @property
    def passed(self) -> bool:
        return self.mu_ok and self.eig_ok

    def to_dict(self) -> dict:
        return {
            "xi": self.xi,
            "min_mu": self.min_mu,
            "min_eig_S": self.min_eig,
            self.STRUCTURAL_KEY: self.structural_ok,
            "mu_ok": self.mu_ok,
            "eig_ok": self.eig_ok,
            "pass": self.passed,
        }


def _required_items(lift: CompositeFuncLift | CompositeGradLift) -> dict:
    """The fields of the two required items, as _FeasibilityReport names them."""
    mu_scale = max(1.0, _max_abs(lift.mu))
    min_mu = float(lift.mu.min())
    eigs = np.linalg.eigvalsh(lift.slack)
    snorm = max(abs(float(eigs[0])), abs(float(eigs[-1])))
    return {
        "xi": lift.xi,
        "min_mu": min_mu,
        "mu_scale": mu_scale,
        "min_eig": float(eigs[0]),
        "spectral_norm": snorm,
        "mu_ok": min_mu >= -config.MU_TOL * mu_scale,
        "eig_ok": float(eigs[0]) >= -config.PSD_TOL * max(snorm, 1.0),
    }


@dataclass(frozen=True)
class FuncFeasibilityReport(_FeasibilityReport):
    """The structural route is the Schur-Laplacian flag, reported apart from
    `passed` since the eigenvalue-minimal xi is PSD-feasible without being
    Laplacian-checkable."""

    STRUCTURAL_KEY = "laplacian_ok"

    schur_offdiag_max: float
    schur_rowsum_max: float
    schur_laplacian_ok: bool

    @property
    def structural_ok(self) -> bool:
        return self.schur_laplacian_ok


def check_func_feasibility(lift: CompositeFuncLift) -> FuncFeasibilityReport:
    """Nonnegativity of the nonsmooth multipliers plus two-route evidence
    that S is positive semidefinite: eigenvalues of S itself, and the Schur
    route requiring L - (1/xi) v v^T to stay Laplacian."""
    if lift.xi <= 0.0:
        raise ValueError(f"the Schur route needs xi > 0, got {lift.xi}")
    schur = np.empty_like(lift.laplacian)
    for rows in _row_blocks(lift.n + 1):
        np.subtract(lift.laplacian[rows], np.outer(lift.v[rows], lift.v) / lift.xi, out=schur[rows])
    lap_scale = max(1.0, _max_abs(schur))
    s_off, s_row = _laplacian_violations(schur)
    del schur

    tol = config.LAPLACIAN_TOL * lap_scale
    return FuncFeasibilityReport(
        **_required_items(lift),
        schur_offdiag_max=s_off,
        schur_rowsum_max=s_row,
        schur_laplacian_ok=(s_off <= tol and s_row <= tol),
    )


@dataclass(frozen=True)
class GradFeasibilityReport(_FeasibilityReport):
    """The structural route is diagonal dominance of the slack."""

    STRUCTURAL_KEY = "diag_dominant_ok"

    slack_dd_margin: float
    dd_ok: bool

    @property
    def structural_ok(self) -> bool:
        return self.dd_ok


def check_grad_feasibility(lift: CompositeGradLift) -> GradFeasibilityReport:
    """Nonnegativity of the multipliers plus PSD evidence for S': eigenvalues
    and diagonal dominance, whose only nontrivial requirement after the
    rank-one subtraction is a nonnegative (1, n+1) corner entry."""
    scale = max(1.0, _max_abs(lift.slack))
    slack_margin = _diag_dominance_margin(lift.slack)
    return GradFeasibilityReport(
        **_required_items(lift),
        slack_dd_margin=slack_margin,
        dd_ok=slack_margin >= -config.LAPLACIAN_TOL * scale,
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
) -> tuple[GramLedger, GramLedger]:
    """Both sides of the lifted objective-gap identity as ledgers."""
    n = cert.n
    lhs = _smooth_ledger(H, cert, composite=True)
    # sources 1..n and STAR, subgradients 1..n
    coco_block(lhs, lift.mu, cumulative(H), "composite_h", origin=(1, 1))

    square = -np.array(lift.u_coeffs)
    square[ix_dist(n)] += 1.0
    lhs.add_square(square, 0.5)

    lhs.add_block(_slack_indices_func(n), lift.slack, 0.5)

    rhs = GramLedger(n)
    rhs.add_f(STAR, cert.r)
    rhs.add_h(STAR, cert.r)
    rhs.add_f(n, -cert.r)
    rhs.add_h(n, -cert.r)
    rhs.quad[ix_dist(n), ix_dist(n)] += 0.5 * (1.0 + lift.xi)
    return lhs, rhs


def verify_composite_func_identity(
    H: StepsizeMatrix,
    cert: FuncCertificate,
    lift: CompositeFuncLift,
) -> IdentityReport:
    """Exact coefficient check of the lifted objective-gap identity.

    The trace term over S is expanded symbolically (never instantiated with
    vectors), so the check is independent of any problem instance.  The
    identity holds for every xi since it enters both sides identically.
    """
    return _report(*composite_func_ledgers(H, cert, lift))


def composite_grad_ledgers(
    H: StepsizeMatrix,
    cert: GradCertificate,
    lift: CompositeGradLift,
) -> tuple[GramLedger, GramLedger]:
    """Both sides of the lifted gradient-norm identity as ledgers."""
    n = cert.n
    lhs = _smooth_ledger(H, cert, composite=True)
    # sources 0..n, subgradients 1..n
    coco_block(lhs, lift.mu, cumulative(H), "composite_h", origin=(0, 1))

    indices = np.array([ix_g(n, n)] + [ix_s(n, j) for j in range(1, n + 1)])
    lhs.add_block(indices, lift.slack, 0.5)

    rhs = GramLedger(n)
    rhs.add_f(0, 1.0)
    rhs.add_f(n, -1.0)
    rhs.add_h(0, 1.0)
    rhs.add_h(n, -1.0)
    rhs.add_block([ix_g(n, n), ix_s(n, n)], np.ones((2, 2)), -0.5 * cert.r * (1.0 - lift.xi))
    return lhs, rhs


def verify_composite_grad_identity(
    H: StepsizeMatrix,
    cert: GradCertificate,
    lift: CompositeGradLift,
) -> IdentityReport:
    """Exact coefficient check of the lifted gradient-norm identity."""
    return _report(*composite_grad_ledgers(H, cert, lift))


# ---------------------------------------------------------------------------
# Rates and the whole recipe
# ---------------------------------------------------------------------------


def certified_rate(lift: CompositeFuncLift | CompositeGradLift) -> float:
    """The constant certified by a feasible lift: (1 + xi)/(2 r) in front of
    the squared initial distance, or 2/(r (1 - xi)) in front of the initial
    composite gap."""
    if isinstance(lift, CompositeFuncLift):
        return (1.0 + lift.xi) / (2.0 * lift.r)
    return 2.0 / (lift.r * (1.0 - lift.xi))


@dataclass(frozen=True)
class Cell:
    """One run of the recipe on a certificate.  The lift fields stay None
    when only the unconstrained identity was checked."""

    n: int
    identity: IdentityReport
    passed: bool  # every check that ran
    lifted: CompositeFuncLift | CompositeGradLift | None = None
    feasibility: FuncFeasibilityReport | GradFeasibilityReport | None = None
    composite: IdentityReport | None = None
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
    passed = identity.passed and composite.passed and feasibility.passed
    return Cell(cert.n, identity, passed, lifted, feasibility, composite, certified_rate(lifted))
