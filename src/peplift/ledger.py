"""Exact coefficient ledgers for the algebraic identities behind rate proofs.

Every identity we verify is linear in the function values {f_i}, {h_i} and
quadratic in the symbols

    [x0 - xstar, g_0..g_n, s_1..s_n, s_star]

where g_i is the smooth gradient at iterate i and s_i a subgradient of the
nonsmooth part.  A :class:`GramLedger` tracks the coefficient matrix of the
quadratic form plus the two linear forms, all as plain floats, so checking an
identity reduces to exact linear algebra: build both sides, subtract, and
look at the largest coefficient left over.

The basis ordering above is fixed globally.  Unconstrained identities are
forms in the leading n+2 symbols alone, so their ledgers hold only that
block (``GramLedger(n, composite=False)``, a quarter of the composite form);
the substitution at the optimum (the optimal gradient is zero, or minus
s_star in the composite setting) is applied during construction, so it
never appears as a basis element.

Every identity is a weighted sum of co-coercivity inequalities over the
points 0..n and STAR,

    smooth:     f_i - f_j - <g_j, x_i - x_j> - ||g_i - g_j||^2 / 2
    nonsmooth:  h_i - h_j - <s_j, x_i - x_j>,

and such a sum is linear in the Gram matrix of the basis.  Let row p of X
hold x_p - x_0 and row p of G the (sub)gradient at point p, both over the
basis, and let r, c be the row and column sums of the weight matrix W with
its diagonal zeroed.  Then :func:`coco_block` adds

    lin  += r - c
    quad -= sym(G^T (W^T X - diag(c) X))
    quad -= G^T (diag(r + c) - W - W^T) G / 2        (smooth inequalities only)

with sym(A) = (A + A^T) / 2.  The one-inequality-at-a-time expansion it
replaces is kept as the reference oracle in ``tests/coco_oracle.py``.

Callers name the kind of inequality by a mode: 'unconstrained' (smooth,
along the plain method, zero gradient at the optimum), 'composite_f'
(smooth, along the composite extension, gradient -s_star at the optimum) or
'composite_h' (nonsmooth, along the composite extension).  They pass their
multipliers as they hold them, with the position of their block; the
(n+2) x (n+2) weight matrix W lives only inside :func:`coco_block`, which
drops it once the step weights are summed from it.

The identities see the stepsize matrix H through its entries and its
factors.  The offsets x_p - x_0 are minus running sums of H's rows (one
np.cumsum), and the steps x_k - x_{k-1} are minus H's columns, so the step
term is -H times the step weights: running sums of W's rows, each row its
neighbour plus (or minus) one row of W.  H applies itself to them through
its factors in O(n^2) work (see schedules.py), in one pass over a block
with a column for each of the points 0..n and, in the composite modes,
whose optimum carries -s_star or s_star, a last column for the STAR point
(in the unconstrained mode the optimum's gradient is zero, so STAR's term
is never formed).  A pass costs n row steps per factor however few columns
it carries, and the factor loops work elementwise across columns, so
STAR's column costs almost nothing there and keeps the bits of a pass of
its own.  Unless H has a dense factor (no catalog family has one; it keeps
STAR's one-column pass) no step of the assembly is then a matrix product,
so its bits do not depend on BLAS's thread count.  For a diagonal H (plain
gradient descent: the silver and gsw schedules) the one 'diag' factor makes
each entry of the step term one product.  The step term is subtracted from
+0, so its zeros are +0; step weights holding an inf or a nan, or
overflowing, carry it into the ledger, whose identity then fails.

Up to _DENSE_STEPS steps, an H with entries off its diagonal (ogm, ogmg)
multiplies the step weights by its entries instead, in one matrix product,
and a composite mode's STAR term is a second, the offsets weighted by W's
STAR column.  At those sizes the entries' product is several times faster
than the factors' row loops and small enough for OpenBLAS to run on one
thread, and its coefficients lie nearer the exact sum of H's float entries:
the exact product of the float factors is a few ulps away from those
entries, so through the factors, even with a step term rounded once from
their exact product, some blocks land farther.

The offsets and the step term are kept directions x points, the layout the
running sums and the factors produce (the entries' product is formed points
x directions and read transposed), and are handed transposed to the
quadratic form.  Building a ledger allocates little beyond its own
quadratic form: the assembly's scratch is four n x n buffers (the weight
matrix, the directions, the step weights, which are summed and become the
step term in place, and for smooth inequalities the Laplacian), and outer
products, symmetrized blocks and differences are formed a block of rows or
a slice at a time.  Each stage performs the floating-point operations of its
one-expression form, in the same order, so the coefficients are bit for bit
those of the plain forms in ``tests/reference_forms.py``.
"""

from __future__ import annotations

import numpy as np

from .schedules import StepsizeMatrix

STAR = "*"

Index = int | str  # an iterate index 0..n or STAR


def basis_dim(n: int, composite: bool = True) -> int:
    return 2 * n + 3 if composite else n + 2


def ix_dist(n: int) -> int:
    """Position of x0 - xstar."""
    return 0


def ix_g(n: int, i: int) -> int:
    """Position of gradient g_i, 0 <= i <= n."""
    return 1 + i


def ix_s(n: int, i: int) -> int:
    """Position of subgradient s_i, 1 <= i <= n."""
    return n + 2 + (i - 1)


def ix_s_star(n: int) -> int:
    return 2 * n + 2


def ix_val(n: int, i: Index) -> int:
    """Position of f_i (or h_i) in a linear form; STAR maps to the last slot."""
    return n + 1 if i is STAR or i == STAR else int(i)


class GramLedger:
    """Quadratic + linear form of an identity side.

    The quadratic form is z^T quad z over the symbol basis, or unless
    composite its leading n+2 symbols (quad symmetric); lin_f and lin_h hold
    the coefficients of f_0..f_n, f_star and h_0..h_n, h_star.
    """

    __slots__ = ("n", "quad", "lin_f", "lin_h")

    def __init__(self, n: int, composite: bool = True):
        self.n = n
        d = basis_dim(n, composite)
        self.quad = np.zeros((d, d))
        self.lin_f = np.zeros(n + 2)
        self.lin_h = np.zeros(n + 2)

    def add_f(self, i: Index, weight: float) -> None:
        self.lin_f[ix_val(self.n, i)] += weight

    def add_h(self, i: Index, weight: float) -> None:
        self.lin_h[ix_val(self.n, i)] += weight

    def add_square(self, coeffs: np.ndarray, weight: float) -> None:
        """Add weight * ||sum_q coeffs[q] basis_q||^2, a block of rows of the
        outer product at a time in one reused buffer."""
        coeffs = np.asarray(coeffs, dtype=float)
        d = coeffs.shape[0]
        buf = np.empty((min(_BLOCK_ROWS, d), d))
        for rows in _row_blocks(d):
            part = np.multiply(coeffs[rows, None], coeffs, out=buf[: rows.stop - rows.start])
            part *= weight
            self.quad[rows] += part

    def add_block(self, indices: np.ndarray, block: np.ndarray, weight: float) -> None:
        """Add weight * sum_{p,q} block[p,q] <basis_{indices[p]}, basis_{indices[q]}>.

        The indices must be distinct basis positions.  Each run of
        consecutive positions is one slice of the quadratic form, so the
        symmetrized block is added run pair by run pair, without gathering."""
        indices = np.asarray(indices, dtype=int)
        ordered = np.sort(indices)
        if ordered.size and (ordered[0] < 0 or ordered[-1] >= self.quad.shape[0]):
            raise IndexError(f"block indices must lie in 0..{self.quad.shape[0] - 1}")
        if np.any(ordered[1:] == ordered[:-1]):
            raise ValueError("block indices must be distinct: a repeated index would add only once")
        cuts = [0, *(np.flatnonzero(np.diff(indices) != 1) + 1), indices.size]
        runs = [(slice(a, b), slice(indices[a], indices[a] + b - a)) for a, b in zip(cuts, cuts[1:]) if b > a]
        sym = block + block.T
        sym *= 0.5
        sym *= weight
        for at_p, to_p in runs:
            for at_q, to_q in runs:
                self.quad[to_p, to_q] += sym[at_p, at_q]

    def leading_block(self) -> "GramLedger":
        """A copy of this composite ledger's part in the leading n+2 symbols
        [x0 - xstar, g_0..g_n]: the (n+2) x (n+2) corner of quad, with lin_f
        and lin_h, as an unconstrained-basis ledger."""
        n, d = self.n, basis_dim(self.n, composite=False)
        if self.quad.shape[0] != basis_dim(n):
            raise ValueError(f"need a composite ledger of {basis_dim(n)} symbols, got {self.quad.shape[0]}")
        led = GramLedger(n, composite=False)
        led.quad[...] = self.quad[:d, :d]
        led.lin_f[...] = self.lin_f
        led.lin_h[...] = self.lin_h
        return led

    def max_abs(self) -> float:
        return max(_max_abs(self.quad), _max_abs(self.lin_f), _max_abs(self.lin_h))

    def residual_vs(self, other: "GramLedger") -> tuple[float, float, float]:
        """Max absolute coefficient mismatch: (quadratic, f-linear, h-linear)."""
        if (self.n, self.quad.shape) != (other.n, other.quad.shape):
            raise ValueError(f"cannot compare ledgers of shapes {self.quad.shape} and {other.quad.shape}")
        return (
            _max_abs_diff(self.quad, other.quad),
            _max_abs(self.lin_f - other.lin_f),
            _max_abs(self.lin_h - other.lin_h),
        )


_BLOCK_ROWS = 256  # rows of an outer product or difference formed at a time


def _max_abs(x: np.ndarray) -> float:
    """np.max(np.abs(x)) without the |x| temporary: the largest magnitude is
    at the maximum or the minimum.  abs() makes a -0.0 extreme +0.0, and a
    NaN anywhere makes both extremes NaN."""
    return max(abs(float(x.max())), abs(float(x.min())))


def _row_blocks(rows: int) -> list[slice]:
    """Consecutive slices of at most _BLOCK_ROWS rows covering range(rows)."""
    return [slice(start, min(start + _BLOCK_ROWS, rows)) for start in range(0, rows, _BLOCK_ROWS)]


def _max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    """_max_abs(a - b), with the difference formed a block of rows at a time
    in one reused buffer instead of as a full-size temporary."""
    buf = np.empty((min(_BLOCK_ROWS, a.shape[0]),) + a.shape[1:])
    peaks = [_max_abs(np.subtract(a[rows], b[rows], out=buf[: rows.stop - rows.start]))
             for rows in _row_blocks(a.shape[0])]
    return float(np.max(peaks))  # np.max, unlike max(), keeps a NaN wherever it sits


def _add_sym(quad: np.ndarray, rows: slice, cols: slice, half: np.ndarray) -> None:
    """quad[rows, cols] += half and quad[cols, rows] += half^T."""
    quad[rows, cols] += half
    quad[cols, rows] += half.T


def _step_weights(W: np.ndarray, n: int, out: np.ndarray) -> None:
    """Fill row k-1 (k = 1..n) of out, an (n, n+1) block, with
    sum_{i>=k} W[i, p] at p < k and -sum_{i<k} W[i, p] at p >= k, over the
    points p = 0..n.

    Each row is its neighbour plus (or minus) one row of W: the suffix sums
    walk up from W[n, :n], the prefix sums down from 0 - W[0, 1:], so each
    sum makes np.cumsum's additions in its order (0 - (a + b) is (0 - a) - b
    to the bit)."""
    rows, w = list(out), list(W)
    rows[n - 1][:n] = w[n][:n]
    for k in range(n - 1, 0, -1):
        np.add(rows[k][:k], w[k][:k], rows[k - 1][:k])
    np.subtract(0.0, w[0][1 : n + 1], rows[0][1:])
    for k in range(2, n + 1):
        np.subtract(rows[k - 2][k:], w[k - 1][k : n + 1], rows[k - 1][k:])


_DENSE_STEPS = 63  # the most steps an H off its diagonal multiplies by its entries


_MODES = {  # mode -> (smooth, composite); composite runs couple the optimum
    "unconstrained": (True, False),
    "composite_f": (True, True),
    "composite_h": (False, True),
}


def coco_block(
    led: GramLedger,
    weights: np.ndarray,
    H: StepsizeMatrix,
    mode: str,
    origin: tuple[int, int] = (0, 0),
) -> None:
    """Add sum_{i != j} W[i, j] * coco(i, j) to led, in matrix form.

    W is (n+2, n+2) over the points 0..n with STAR last: the block `weights`
    placed with its first entry at `origin`, zero elsewhere, and its diagonal
    ignored; `weights` itself is only read.  H is the stepsize matrix: column
    k-1 of its entries holds the coefficients of the past directions in the
    step x_{k-1} - x_k, so the sums of row l over its first i columns are
    those in x_0 - x_i; direction l is g_l + s_{l+1} in the composite modes
    and g_l otherwise.  A mode not in _MODES raises.  Nonsmooth inequalities
    ('composite_h') take the subgradient at j, which point 0 lacks, so their
    column 0 must be zero; composite modes need the composite basis.
    """
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}; valid: {tuple(_MODES)}")
    smooth, composite = _MODES[mode]
    h = H.entries
    n = h.shape[0]
    star = n + 1
    weights = np.asarray(weights, dtype=float)
    top, left = origin
    if (led.n != n or weights.ndim != 2 or top < 0 or left < 0
            or top + weights.shape[0] > n + 2 or left + weights.shape[1] > n + 2):
        raise ValueError(f"need an {n}-step ledger and a weight block inside {(n + 2, n + 2)} at a "
                         f"nonnegative origin, got {led.n} and {weights.shape} at {origin}")
    if led.quad.shape[0] < basis_dim(n, composite):
        raise ValueError(f"mode {mode!r} needs the {basis_dim(n)} symbols of the composite basis; "
                         f"the ledger has {led.quad.shape[0]}")
    W = np.zeros((n + 2, n + 2))
    W[top : top + weights.shape[0], left : left + weights.shape[1]] = weights
    np.fill_diagonal(W, 0.0)
    if not smooth and np.any(W[:, 0]):
        raise ValueError("nonsmooth inequalities need a subgradient at j; point 0 has none")
    r, c = W.sum(axis=1), W.sum(axis=0)
    lin = led.lin_f if smooth else led.lin_h
    lin += r - c

    # Column p of X^T W - X^T diag(c) is sum_i W[i, p] (x_i - x_p).  X is
    # nonzero on the past directions, where column p holds x_p - x_0, minus
    # the running sums of H's rows up to column p-1, and at x0 - x*, where
    # STAR's column holds -1.  Along the directions, x_i - x_p is summed from
    # the steps x_k - x_{k-1}, minus column k-1 of H, with prefix and suffix
    # sums of W's columns, so c[p] x_p never cancels against
    # sum_i W[i, p] x_i; for p = STAR, x_i - x_p is x_i on the directions.
    x_dir = np.empty((n, star))
    x_dir[:, 0] = 0.0
    np.cumsum(h, axis=1, out=x_dir[:, 1:])
    np.negative(x_dir[:, 1:], out=x_dir[:, 1:])
    w_star = W[star, :star].copy()
    m_dist = -W[star]
    m_dist[star] += c[star]

    # -(H steps) over the points 0..n and, where the mode couples the
    # optimum, sum_i W[i, STAR] x_i for STAR; H steps is subtracted from +0,
    # so each of its zeros gives +0.  Through the factors, STAR's step
    # weights ride as the block's last column (see the module text).  A
    # dense factor keeps STAR's own pass: there gemv's column met the
    # one-ulp bar from the exact sum in random dense draws at n = 100, and
    # the same column of the block's gemm missed it.
    entries = n <= _DENSE_STEPS and np.count_nonzero(h) > np.count_nonzero(np.diagonal(h))
    rides = composite and not entries and not H.dense
    steps = np.empty((n, star + rides))
    _step_weights(W, n, steps[:, :star])  # step k counts for p < k, against for p >= k
    if composite and entries:
        m_star = np.matmul(W[:star, star], np.ascontiguousarray(x_dir.T))[:, None]
    elif composite:  # step k counts for STAR
        m_star = steps[:, star:] if rides else np.empty((n, 1))
        np.cumsum(W[n:0:-1, star], out=m_star[::-1, 0])
        if not rides:
            np.subtract(0.0, H.apply(m_star), out=m_star)
    if entries:  # a small H off its diagonal multiplies by its entries, points x directions
        m_dir = np.matmul(steps.T, -h.T).T
    else:
        m_dir = np.subtract(0.0, H.apply(steps), out=steps)[:, :star]
    del steps
    if smooth:
        lap = np.zeros((n + 2, n + 2))
        np.fill_diagonal(lap, r + c)
        lap -= W
        lap -= W.T
    del W

    # minus x_dir diag(w_star), a block of rows at a time
    for rows in _row_blocks(n):
        m_dir[rows] -= x_dir[rows] * w_star
    del x_dir
    dir_cols = [slice(ix_g(n, 0), ix_g(n, n))]
    if composite:
        dir_cols.append(slice(ix_s(n, 1), ix_s(n, n) + 1))

    # G as (basis rows, points, their columns of the step term, sign)
    # groups: g_0..g_n or s_1..s_n, then STAR
    if smooth:
        groups = [(slice(ix_g(n, 0), ix_g(n, n) + 1), slice(0, star), m_dir, 1.0)]
    else:
        groups = [(slice(ix_s(n, 1), ix_s(n, n) + 1), slice(1, star), m_dir[:, 1:], 1.0)]
    if composite:  # the optimum's gradient is -s_star for smooth inequalities
        groups.append((slice(ix_s_star(n), ix_s_star(n) + 1), slice(star, star + 1), m_star,
                       -1.0 if smooth else 1.0))

    # The groups' points are disjoint, so each block of m_dir, m_star, m_dist
    # and lap is scaled in place once, just before its only use.
    quad = led.quad
    for rows, pts, dirs, sign in groups:
        for m in (dirs, m_dist[pts]):
            m *= -sign
            m *= 0.5
        for cols in dir_cols:
            _add_sym(quad, rows, cols, dirs.T)
        _add_sym(quad, rows, slice(ix_dist(n), ix_dist(n) + 1), m_dist[pts, None])
        if smooth:
            for rows2, pts2, _, sign2 in groups:
                block = lap[pts, pts2]
                block *= 0.5 * sign * sign2
                quad[rows, rows2] -= block
