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
    _BLOCK_ROWS,
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
    U^{-1} H^{-1} left times right^T, added a block of rows at a time.  Its
    weights U^{-1} H^{-1} left are the last column of the solve block: left
    rides beside T^T, so H^{-1} is applied once, and as the factor loops
    work elementwise across columns, the column keeps the bits of a pass of
    its own (a dense factor's LAPACK solve need not).
    Unless H has a dense factor, no step is a BLAS call, so the bits do not
    depend on BLAS's thread count.
    """
    n = tilde.shape[0]
    rows = np.empty((n, n + (left is not None)))
    _transposed(_suffix_sums(tilde), rows[:, :n])
    if left is not None:
        rows[:, n] = left
    rows = H.solve(rows)
    rows[:-1] -= rows[1:]
    weights = rows[:, n:].copy()  # the rank-one weights, if any
    rows = H.apply(_transposed(rows[:, :n]))
    out = _transposed(rows, out)
    del rows
    if left is not None:
        for block in _row_blocks(n):
            out[block] += np.outer(weights[block, 0], right)
    return np.negative(out, out=out)


def check_xi(metric: str, xi) -> None:
    """Raise ValueError unless the metric's lift accepts xi: 'pseudo' or a
    positive finite number for func, None (the lift's default) or a number
    in [0, 1) for grad."""
    if metric == "func":
        if xi != "pseudo" and not (isinstance(xi, numbers.Real) and 0.0 < xi < math.inf):
            raise ValueError(f"xi must be 'pseudo' or positive and finite for the func metric, got {xi!r}")
    elif xi is not None and not (isinstance(xi, numbers.Real) and 0.0 <= xi < 1.0):
        raise ValueError(f"xi must lie in [0, 1) for the grad metric, got {xi!r}")


def lift_func(H: StepsizeMatrix, cert: FuncCertificate, xi: float | str) -> CompositeLift:
    """Lift an objective-gap certificate to the composite setting.

    xi is either an explicit positive constant or the string 'pseudo',
    which picks the pseudoinverse diagnostic value v^T L^+ v.  The shifted
    nonsmooth multipliers come from one closed form; verify_cell judges them.
    """
    check_xi("func", xi)
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
    check_xi("grad", xi)
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


_UNIT_ROUNDOFF = 2.0**-53


def _gamma(m: int) -> float:
    """Higham's gamma_m = m u / (1 - m u): a sum of k terms, in any order,
    is within gamma_{k-1} sum |x| of its exact value, and m roundings in a
    row make a relative error of at most gamma_m (Accuracy and Stability of
    Numerical Algorithms, 2002, Lemma 3.1 and eq. 4.4)."""
    return m * _UNIT_ROUNDOFF / (1.0 - m * _UNIT_ROUNDOFF)


def _row_sums(m: np.ndarray, op) -> np.ndarray:
    """op(m).sum(axis=1), with op(m) formed a block of rows at a time in one
    reused buffer; each row's sum has the bits of the whole-matrix form."""
    buf = np.empty((min(_BLOCK_ROWS, m.shape[0]), m.shape[1]))
    out = np.empty(m.shape[0])
    for rows in _row_blocks(m.shape[0]):
        op(m[rows], out=buf[: rows.stop - rows.start]).sum(axis=1, out=out[rows])
    return out


def _gershgorin_rows(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(m_ii - sum_{j != i} |m_ij|, sum_j |m_ij|) for each row of the square
    matrix m, the first as (m_ii + |m_ii|) - sum_j |m_ij|, whose first term
    is exact: gamma_{size-1} sum_j |m_ij| for the sum and under 3u sum_j |m_ij|
    for the subtraction put it within gamma_{size+2} sum_j |m_ij| of its
    exact value."""
    abs_sums = _row_sums(m, np.abs)
    diag = np.diagonal(m)
    return (diag + np.abs(diag)) - abs_sums, abs_sums


def _norm_floor(s: np.ndarray) -> float:
    """max_i ||s_i,:||_2 (1 - gamma_{m+3}) for m columns: a lower bound on
    ||s||_2 for a symmetric s, which is at least ||s e_i||_2.  A computed row
    norm exceeds its exact value by at most a factor 1 + gamma_{m+1}, and the
    factor, rounded and applied in floats, brings it back below."""
    return float(np.sqrt(np.max(_row_sums(s, np.square))) * (1.0 - _gamma(s.shape[1] + 3)))


@dataclass(frozen=True)
class FeasibilityReport:
    """Feasibility evidence: `passed` covers the two required items
    (nonnegative multipliers, S positive semidefinite up to PSD_TOL).

    psd_route names how S was judged.  On 'gershgorin', min_eig is a proven
    lower bound on lambda_min(S), from Gershgorin discs with the rounding of
    every float operation bounded, and spectral_norm a proven lower bound on
    ||S||_2; on 'eigvalsh', taken only when that bound misses the bar, both
    are read from S's computed eigenvalues.  Either way eig_ok is
    min_eig >= -PSD_TOL max(spectral_norm, 1).  structural_ok is the metric's
    structural PSD route, reported apart from `passed`: for func the
    Schur-Laplacian route, since the eigenvalue-minimal xi is PSD-feasible
    without being Laplacian-checkable, and for grad diagonal dominance of the
    slack."""

    metric: str
    xi: float
    min_mu: float
    mu_scale: float
    min_eig: float
    spectral_norm: float
    mu_ok: bool
    eig_ok: bool
    structural_ok: bool
    psd_route: str

    @property
    def passed(self) -> bool:
        return self.mu_ok and self.eig_ok

    def to_dict(self) -> dict:
        return {
            "xi": self.xi,
            "min_mu": self.min_mu,
            "min_eig_S": self.min_eig,
            "psd_route": self.psd_route,
            "laplacian_ok" if self.metric == "func" else "diag_dominant_ok": self.structural_ok,
            "mu_ok": self.mu_ok,
            "eig_ok": self.eig_ok,
            "pass": self.passed,
        }


def _feasibility(lift: CompositeLift, structural_ok: bool, floor: float) -> FeasibilityReport:
    """The report: the multipliers judged here, S by the proven floor on
    lambda_min(S) when it clears the bar and by eigvalsh when it does not,
    the structural route as its check function judged it."""
    mu_scale = max(1.0, _max_abs(lift.mu))
    min_mu = float(lift.mu.min())
    route, min_eig, snorm = "gershgorin", floor, _norm_floor(lift.slack)
    # a nan floor misses; an overflowed norm would make any floor clear the bar
    if not (floor >= -config.PSD_TOL * max(snorm, 1.0) and math.isfinite(snorm)):
        eigs = np.linalg.eigvalsh(lift.slack)
        route, min_eig = "eigvalsh", float(eigs[0])
        snorm = max(abs(min_eig), abs(float(eigs[-1])))
    return FeasibilityReport(
        metric=lift.metric,
        xi=lift.xi,
        min_mu=min_mu,
        mu_scale=mu_scale,
        min_eig=min_eig,
        spectral_norm=snorm,
        mu_ok=min_mu >= -config.MU_TOL * mu_scale,
        eig_ok=min_eig >= -config.PSD_TOL * max(snorm, 1.0),
        structural_ok=structural_ok,
        psd_route=route,
    )


def check_func_feasibility(lift: CompositeLift) -> FeasibilityReport:
    """Nonnegativity of the nonsmooth multipliers plus two-route evidence
    that S is positive semidefinite, both through the Schur complement
    M = L - (1/xi) v v^T, with v and L read from S.  The structural route
    requires M to stay Laplacian.  The PSD verdict rests on
    z^T S z = xi (a + v^T y / xi)^2 + y^T M y for z = (a, y), whenever
    S[0, 0] >= xi > 0, so lambda_min(S) >= min(0, lambda_min(M)); Gershgorin
    bounds lambda_min(M) from the computed M^, each of whose entries is
    within gamma_3 (|L_ij| + |v_i v_j| / xi) of M's, hence within
    gamma_4 |M^_ij| + gamma_7 |v_i| |v_j| / xi.  With the row sums'
    gamma_{n+3} (n + 1 rows), two units for the rounding of the final
    subtraction and one spare unit for forming the error terms, row i loses
    gamma_{n+10} sum_j |M^_ij| + gamma_8 |v_i| ||v||_1 / xi (gradual underflow
    aside, at most a few 2^-1074 a row, far beneath the bar).  S is symmetric,
    as the lift builds it."""
    if lift.xi <= 0.0:
        raise ValueError(f"the Schur route needs xi > 0, got {lift.xi}")
    n, v, laplacian = lift.n, lift.slack[1:, 0], lift.slack[1:, 1:]
    schur = np.empty_like(laplacian)
    for rows in _row_blocks(n + 1):
        np.subtract(laplacian[rows], np.outer(v[rows], v) / lift.xi, out=schur[rows])
    tol = config.LAPLACIAN_TOL * max(1.0, _max_abs(schur))
    radius, abs_sums = _gershgorin_rows(schur)
    floor = -math.inf
    if lift.slack[0, 0] >= lift.xi:
        v_abs = np.abs(v)
        rounding = _gamma(n + 10) * abs_sums + _gamma(8) * v_abs * (v_abs.sum() / lift.xi)
        floor = float(np.min(radius - rounding, initial=0.0))
    schur_offdiag_max, schur_rowsum_max = _laplacian_violations(schur)
    del schur
    return _feasibility(lift, schur_offdiag_max <= tol and schur_rowsum_max <= tol, floor)


def check_grad_feasibility(lift: CompositeLift) -> FeasibilityReport:
    """Nonnegativity of the multipliers plus PSD evidence for S' from its
    Gershgorin rows: diagonal dominance, whose only nontrivial requirement
    after the rank-one subtraction is a nonnegative (1, n+1) corner entry,
    and the PSD verdict, the same rows less gamma_{n+6} sum_j |S'_ij|
    (n + 1 rows: the row sums' gamma_{n+3}, two units for the rounding of the
    final subtraction and one spare unit for forming the error term)."""
    radius, abs_sums = _gershgorin_rows(lift.slack)
    structural_ok = float(np.min(radius)) >= -config.LAPLACIAN_TOL * max(1.0, _max_abs(lift.slack))
    return _feasibility(lift, structural_ok, float(np.min(radius - _gamma(lift.n + 6) * abs_sums)))


# ---------------------------------------------------------------------------
# Composite identity verification
# ---------------------------------------------------------------------------


def _slack_indices_func(n: int) -> np.ndarray:
    return np.array([ix_dist(n)] + [ix_s(n, j) for j in range(1, n + 1)] + [ix_s_star(n)])


def composite_func_ledgers(
    H: StepsizeMatrix,
    cert: FuncCertificate,
    lift: CompositeLift,
    *,
    smooth: GramLedger | None = None,
) -> tuple[GramLedger, GramLedger]:
    """Both sides of the lifted objective-gap identity as ledgers.

    smooth, when given, is _smooth_ledger(H, cert, composite=True); the lhs
    continues from it, in place, instead of assembling it again."""
    n = cert.n
    lhs = _smooth_ledger(H, cert, composite=True) if smooth is None else smooth
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
    *,
    smooth: GramLedger | None = None,
) -> IdentityReport:
    """Exact coefficient check of the lifted objective-gap identity.

    The trace term over S is expanded symbolically (never instantiated with
    vectors), so the check is independent of any problem instance.  The
    identity holds for every xi since it enters both sides identically.
    smooth, when given, becomes the lhs (see composite_func_ledgers).
    """
    return _report(*composite_func_ledgers(H, cert, lift, smooth=smooth))


def composite_grad_ledgers(
    H: StepsizeMatrix,
    cert: GradCertificate,
    lift: CompositeLift,
    *,
    smooth: GramLedger | None = None,
) -> tuple[GramLedger, GramLedger]:
    """Both sides of the lifted gradient-norm identity as ledgers; smooth
    as for composite_func_ledgers."""
    n = cert.n
    lhs = _smooth_ledger(H, cert, composite=True) if smooth is None else smooth
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
    *,
    smooth: GramLedger | None = None,
) -> IdentityReport:
    """Exact coefficient check of the lifted gradient-norm identity; smooth
    as for composite_func_ledgers."""
    return _report(*composite_grad_ledgers(H, cert, lift, smooth=smooth))


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

    A lift cell assembles the smooth inequalities once, on the composite
    basis, and holds that ledger through the lift and feasibility stages:
    the unconstrained identity reads a copy of its leading n+2 symbols, bit
    for bit the ledger it would assemble itself, and the composite identity
    continues from it.  A certify cell assembles them on the unconstrained
    basis alone.
    """
    func = isinstance(cert, FuncCertificate)
    smooth = _smooth_ledger(H, cert, composite=True) if lift else None
    identity = (verify_func_identity if func else verify_grad_identity)(H, cert, smooth=smooth)
    if not lift:
        return Cell(cert.n, identity, identity.passed)
    lifted = (lift_func if func else lift_grad)(H, cert, xi)
    feasibility = (check_func_feasibility if func else check_grad_feasibility)(lifted)
    composite = (verify_composite_func_identity if func else verify_composite_grad_identity)(
        H, cert, lifted, smooth=smooth)
    passed = identity.passed and composite.passed and feasibility.passed
    return Cell(cert.n, identity, passed, lifted, feasibility, composite, certified_rate(lifted))
