"""Lifting unconstrained certificates to the composite (proximal) setting.

Given an objective-gap certificate (lam, gamma, r) for a method with
stepsize matrix H, the lift produces in closed form the extra multipliers for
the nonsmooth inequalities and the structured slack matrix

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
from .schedules import StepsizeMatrix, _frozen


@dataclass(frozen=True)
class CompositeLift:
    """Closed-form composite certificate derived from an unconstrained one.

    metric is 'func' (objective gap) or 'grad' (gradient norm).  mu has one
    row per nonsmooth-inequality source index and one column per subgradient
    1..n.  The func sources are 1..n with the optimum last, whose row makes
    each column sum minus the diagonal entry the rows above drop (the
    self-pair, which is no inequality); the grad sources are 0..n.  slack is
    the whole matrix S and its only copy: [[xi, v^T], [v, L]] for func, and
    [[r, v^T], [v, -hat]] minus r (1 - xi) at its four corners for grad.
    """

    metric: str
    n: int
    mu: np.ndarray
    xi: float
    slack: np.ndarray
    r: float

    def __post_init__(self):
        for name in ("mu", "slack"):
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


def _sigma(cert: FuncCertificate) -> np.ndarray:
    """The subgradient square-term weights: positions 1..n, then the
    optimum slot."""
    n, lam, gamma_n = cert.n, cert.lam, cert.gamma[cert.n]
    sigma = np.empty(n + 1)
    sigma[:n] = (lam[:n, n] + lam[n, :n]) / gamma_n
    sigma[n] = lam[n + 1, n] / gamma_n
    return sigma


def _suffix_sums(x: np.ndarray) -> np.ndarray:
    """Row i becomes the sum of rows i..n-1, in place, with compensation.

    The running sum's rounding error at each step is recovered exactly by
    Knuth's TwoSum and accumulated apart, and each row is the running sum
    plus that correction, as accurate as a sum in twice the precision.  A
    plain running sum's rounding dominated the rows kernel's distance from
    the exact lift (1.18x the dense solve's at silver k=7, 0.05x with it)."""
    running = x[-1].copy()
    total, delta, err, tmp = (np.empty_like(running) for _ in range(4))
    correction = np.zeros_like(running)
    for row in x[-2::-1]:
        np.add(running, row, total)
        np.subtract(total, running, delta)
        np.subtract(total, delta, err)
        np.subtract(running, err, err)
        np.subtract(row, delta, tmp)
        err += tmp
        correction += err
        running, total = total, running
        np.add(running, correction, row)
    return x


def _transposed(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """x^T as a C-ordered array (written into out when given), copied 64 rows
    of x at a time.  One strided copy of the whole matrix is 2-4x slower when
    a row is a power of two long (the strided side maps to few cache sets):
    65-95 ms against 25-50 ms at n = 2048, while n = 2047 takes 20-30 ms
    either way (x86-64, numpy 2.4)."""
    if out is None:
        out = np.empty(x.shape[::-1])
    for start in range(0, x.shape[0], 64):
        out[:, start : start + 64] = x[start : start + 64].T
    return out


def _shifted_rows(
    H: StepsizeMatrix,
    tilde: np.ndarray,
    left: np.ndarray | None = None,
    right: np.ndarray | None = None,
    *,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """The shifted nonsmooth multiplier rows
    -Hc^{-1} ((Hc tilde)^T + left right^T), with Hc = H U the partial sums
    of H's rows (U the all-ones upper triangle), never formed: O(n^2) work
    per factor of H, written into out when given.  tilde is overwritten.

    Hc tilde is H T with T the suffix sums of tilde's rows, and Hc^{-1} is
    U^{-1} H^{-1}: H^{-1}, then one row difference.  The tilde term is formed
    as (U^{-1} H^{-1} T^T) H^T, so for a diagonal H it divides by h, takes
    the row difference and only then scales the columns by h, an order that
    keeps the exact zeros of the silver and gsw rows.  The rank-one term is
    U^{-1} H^{-1} left times right^T, added a block of rows at a time.
    Unless H has a dense factor, no step is a BLAS call, so the bits do not
    depend on BLAS's thread count.
    """
    n = tilde.shape[0]
    rows = H.solve(_transposed(_suffix_sums(tilde)))
    rows[:-1] -= rows[1:]
    rows = H.apply(_transposed(rows))
    out = _transposed(rows, out)
    del rows
    if left is not None:
        weights = H.solve(np.array(left, dtype=float)[:, None])[:, 0]
        weights[:-1] -= weights[1:]
        for block in _row_blocks(n):
            out[block] += np.outer(weights[block], right)
    return np.negative(out, out=out)


def lift_func(H: StepsizeMatrix, cert: FuncCertificate, xi: float | str) -> CompositeLift:
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
    if gamma[n] == 0.0:
        raise ValueError("degenerate certificate: the last square coefficient is zero")

    sigma = _sigma(cert)
    gamma_head = gamma[:n]

    # Outer products are formed a block of rows at a time.  L is written into
    # S's corner.
    hat, tilde = aggregates(cert)
    mu = np.empty((n + 1, n))
    _shifted_rows(H, tilde, gamma_head, gamma_head + sigma[:n], out=mu[:n])
    del tilde
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

    _freeze(mu, slack)
    return CompositeLift("func", n, mu, xi_val, slack, r)


def lift_grad(H: StepsizeMatrix, cert: GradCertificate, xi: float | None = None) -> CompositeLift:
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
    mu = np.empty((n + 1, n))
    _shifted_rows(H, tilde, out=mu[1:])
    del tilde
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

    _freeze(mu, slack)
    return CompositeLift("grad", n, mu, xi, slack, r)


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
class FeasibilityReport:
    """Feasibility evidence: `passed` covers the two required items
    (nonnegative multipliers, S positive semidefinite by its eigenvalues).
    structural_ok is the metric's structural PSD route, reported apart from
    `passed`: for func the Schur-Laplacian route, since the eigenvalue-minimal
    xi is PSD-feasible without being Laplacian-checkable, and for grad
    diagonal dominance of the slack."""

    metric: str
    xi: float
    min_mu: float
    mu_scale: float
    min_eig: float
    spectral_norm: float
    mu_ok: bool
    eig_ok: bool
    structural_ok: bool

    @property
    def passed(self) -> bool:
        return self.mu_ok and self.eig_ok

    def to_dict(self) -> dict:
        return {
            "xi": self.xi,
            "min_mu": self.min_mu,
            "min_eig_S": self.min_eig,
            "laplacian_ok" if self.metric == "func" else "diag_dominant_ok": self.structural_ok,
            "mu_ok": self.mu_ok,
            "eig_ok": self.eig_ok,
            "pass": self.passed,
        }


def _feasibility(lift: CompositeLift, structural_ok: bool) -> FeasibilityReport:
    """The report: the two required items judged here, the structural route
    as its check function judged it."""
    mu_scale = max(1.0, _max_abs(lift.mu))
    min_mu = float(lift.mu.min())
    eigs = np.linalg.eigvalsh(lift.slack)
    snorm = max(abs(float(eigs[0])), abs(float(eigs[-1])))
    return FeasibilityReport(
        metric=lift.metric,
        xi=lift.xi,
        min_mu=min_mu,
        mu_scale=mu_scale,
        min_eig=float(eigs[0]),
        spectral_norm=snorm,
        mu_ok=min_mu >= -config.MU_TOL * mu_scale,
        eig_ok=float(eigs[0]) >= -config.PSD_TOL * max(snorm, 1.0),
        structural_ok=structural_ok,
    )


def check_func_feasibility(lift: CompositeLift) -> FeasibilityReport:
    """Nonnegativity of the nonsmooth multipliers plus two-route evidence
    that S is positive semidefinite: eigenvalues of S itself, and the Schur
    route requiring L - (1/xi) v v^T to stay Laplacian, with v and L read
    from S."""
    if lift.xi <= 0.0:
        raise ValueError(f"the Schur route needs xi > 0, got {lift.xi}")
    v, laplacian = lift.slack[1:, 0], lift.slack[1:, 1:]
    schur = np.empty_like(laplacian)
    for rows in _row_blocks(lift.n + 1):
        np.subtract(laplacian[rows], np.outer(v[rows], v) / lift.xi, out=schur[rows])
    tol = config.LAPLACIAN_TOL * max(1.0, _max_abs(schur))
    schur_offdiag_max, schur_rowsum_max = _laplacian_violations(schur)
    del schur
    return _feasibility(lift, schur_offdiag_max <= tol and schur_rowsum_max <= tol)


def check_grad_feasibility(lift: CompositeLift) -> FeasibilityReport:
    """Nonnegativity of the multipliers plus PSD evidence for S': eigenvalues
    and diagonal dominance, whose only nontrivial requirement after the
    rank-one subtraction is a nonnegative (1, n+1) corner entry."""
    slack_dd_margin = _diag_dominance_margin(lift.slack)
    return _feasibility(lift, slack_dd_margin >= -config.LAPLACIAN_TOL * max(1.0, _max_abs(lift.slack)))


# ---------------------------------------------------------------------------
# Composite identity verification
# ---------------------------------------------------------------------------


def _slack_indices_func(n: int) -> np.ndarray:
    return np.array([ix_dist(n)] + [ix_s(n, j) for j in range(1, n + 1)] + [ix_s_star(n)])


def composite_func_ledgers(
    H: StepsizeMatrix,
    cert: FuncCertificate,
    lift: CompositeLift,
) -> tuple[GramLedger, GramLedger]:
    """Both sides of the lifted objective-gap identity as ledgers."""
    n = cert.n
    lhs = _smooth_ledger(H, cert, composite=True)
    # sources 1..n and STAR, subgradients 1..n
    coco_block(lhs, lift.mu, H, "composite_h", origin=(1, 1))

    # the single square's linear combination over the global symbol basis
    sigma = _sigma(cert)
    u = np.zeros(basis_dim(n))
    u[ix_g(n, 0):ix_g(n, n) + 1] += cert.gamma
    u[ix_s(n, 1):ix_s(n, n) + 1] += cert.gamma[:n] + sigma[:n]
    u[ix_s_star(n)] += sigma[n]
    square = -u
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
    lift: CompositeLift,
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
    lift: CompositeLift,
) -> tuple[GramLedger, GramLedger]:
    """Both sides of the lifted gradient-norm identity as ledgers."""
    n = cert.n
    lhs = _smooth_ledger(H, cert, composite=True)
    # sources 0..n, subgradients 1..n
    coco_block(lhs, lift.mu, H, "composite_h", origin=(0, 1))

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
    lift: CompositeLift,
) -> IdentityReport:
    """Exact coefficient check of the lifted gradient-norm identity."""
    return _report(*composite_grad_ledgers(H, cert, lift))


# ---------------------------------------------------------------------------
# Rates and the whole recipe
# ---------------------------------------------------------------------------


def certified_rate(lift: CompositeLift) -> float:
    """The constant certified by a feasible lift: (1 + xi)/(2 r) in front of
    the squared initial distance, or 2/(r (1 - xi)) in front of the initial
    composite gap."""
    if lift.metric == "func":
        return (1.0 + lift.xi) / (2.0 * lift.r)
    return 2.0 / (lift.r * (1.0 - lift.xi))


@dataclass(frozen=True)
class Cell:
    """One run of the recipe on a certificate.  The lift fields stay None
    when only the unconstrained identity was checked."""

    n: int
    identity: IdentityReport
    passed: bool  # every check that ran
    lifted: CompositeLift | None = None
    feasibility: FeasibilityReport | None = None
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
