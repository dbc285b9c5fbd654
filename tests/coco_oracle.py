"""Per-inequality reference expansion of co-coercivity sums.

peplift assembles every weighted sum of co-coercivity inequalities in matrix
form (:func:`peplift.ledger.coco_block`).  This module expands the same sums
one inequality at a time, straight from the definitions, and is the oracle
the matrix form is tested against; run on Fractions (`exact_coco_block`) it
gives the exact coefficients of the float inputs.  It also builds a single
inequality as a ledger and evaluates a ledger on concrete data, which ties
the symbols to the runs they describe.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from peplift.ledger import STAR, GramLedger, Index, coco_block, ix_dist, ix_g, ix_s, ix_s_star, ix_val
from peplift.schedules import Factor, StepsizeMatrix


class DrawnSteps:
    """Stand-in for a StepsizeMatrix with the entries it would reject for a
    zero on the diagonal, which drawn entries may hold: its entries, and H x
    through the one factor StepsizeMatrix would build from the entries
    alone, 'diag' for a diagonal matrix and 'dense' otherwise."""

    def __init__(self, entries):
        self.entries = np.asarray(entries, dtype=float)
        diagonal = np.count_nonzero(self.entries) == np.count_nonzero(np.diagonal(self.entries))
        self.factor = Factor("diag", np.diagonal(self.entries).copy()) if diagonal else Factor("dense", self.entries)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def dense(self) -> bool:
        return self.factor.kind == "dense"

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.factor.apply(x)


def stepsizes(entries) -> StepsizeMatrix | DrawnSteps:
    """A StepsizeMatrix of the entries, or a DrawnSteps where the diagonal
    holds a zero."""
    entries = np.asarray(entries, dtype=float)
    return StepsizeMatrix(entries) if np.all(np.diagonal(entries)) else DrawnSteps(entries)


def evaluate(led: GramLedger, vectors: np.ndarray, f_vals: np.ndarray, h_vals: np.ndarray) -> float:
    """Numeric value of the form on concrete data: vectors is a
    (basis_dim, space_dim) stack of realizations of the composite basis's
    symbols, of which a ledger on the unconstrained basis reads the leading
    n+2."""
    vectors = vectors[: led.quad.shape[0]]
    gram = vectors @ vectors.T
    return float(np.sum(led.quad * gram) + led.lin_f @ f_vals + led.lin_h @ h_vals)


def single_inequality(H: StepsizeMatrix, i: Index, j: Index, mode: str) -> GramLedger:
    """The co-coercivity inequality (i, j) of a mode as a standalone ledger
    on the mode's basis, along the method with stepsize matrix H."""
    led = GramLedger(H.n, composite=MODES[mode][1])
    coco_block(led, [[1.0]], H, mode, origin=(ix_val(H.n, i), ix_val(H.n, j)))
    return led


def iter_nonzero(lam: np.ndarray):
    rows, cols = np.nonzero(lam)
    for i, j in zip(rows.tolist(), cols.tolist()):
        yield i, j, lam[i, j]


def _add_inner_basis(led: GramLedger, p: int, coeffs: np.ndarray, weight: float) -> None:
    """Add weight * <basis_p, sum_q coeffs[q] basis_q>."""
    half = weight / 2
    led.quad[p, :] += half * coeffs
    led.quad[:, p] += half * coeffs


def _add_inner_sparse(led: GramLedger, a: list[tuple[int, float]], b: list[tuple[int, float]], weight: float) -> None:
    """Add weight * <sum a, sum b> where both sides are short index lists."""
    for p, ca in a:
        for q, cb in b:
            w = weight / 2 * ca * cb
            led.quad[p, q] += w
            led.quad[q, p] += w


class CocoExpander:
    """Expands co-coercivity inequalities of one method run over the basis.

    H is the stepsize matrix: entry [l, k-1] is the weight of direction l in
    the step x_{k-1} - x_k.  With composite, direction j is g_j + s_{j+1},
    otherwise g_j.  With coupled_star the gradient at the optimum is
    -s_star, otherwise zero.  With exact, the entries and every coefficient
    are Fractions, so the expansion makes no rounding.  Coefficient vectors
    have dim entries, the symbols of the ledger they are added to.
    """

    def __init__(self, H: StepsizeMatrix, composite: bool, coupled_star: bool, dim: int, exact: bool = False):
        self.h = _exact(H.entries) if exact else np.asarray(H.entries, dtype=float)
        self.n = self.h.shape[0]
        self.dim = dim
        self.composite = composite
        self.coupled_star = coupled_star

    def x_rel(self, i: Index) -> np.ndarray:
        """Coefficients of x_i - x_0 over the basis."""
        n = self.n
        c = np.zeros(self.dim, dtype=self.h.dtype)
        if i == STAR:
            c[ix_dist(n)] = -1
            return c
        i = int(i)
        if not 0 <= i <= n:
            raise IndexError(f"iterate index {i} out of range 0..{n}")
        for l in range(i):
            w = sum(self.h[l, :i].tolist())  # x_0 - x_i sums the steps 1..i
            c[ix_g(n, l)] -= w
            if self.composite:
                c[ix_s(n, l + 1)] -= w
        return c

    def grad_terms(self, i: Index) -> list[tuple[int, float]]:
        n = self.n
        if i == STAR:
            return [(ix_s_star(n), -1)] if self.coupled_star else []
        return [(ix_g(n, int(i)), 1)]

    def subgrad_terms(self, j: Index) -> list[tuple[int, float]]:
        n = self.n
        if j == STAR:
            return [(ix_s_star(n), 1)]
        j = int(j)
        if not 1 <= j <= n:
            raise IndexError(f"subgradient index {j} out of range 1..{n}")
        return [(ix_s(n, j), 1)]

    def add_smooth_coco(self, led: GramLedger, weight: float, i: Index, j: Index) -> None:
        """Accumulate weight * [f_i - f_j - <g_j, x_i - x_j> - ||g_i - g_j||^2 / 2]."""
        if i == j:
            raise ValueError("co-coercivity requires distinct indices")
        led.add_f(i, weight)
        led.add_f(j, -weight)
        diff = self.x_rel(i) - self.x_rel(j)
        gj = self.grad_terms(j)
        for p, c in gj:
            _add_inner_basis(led, p, diff, -weight * c)
        gd = self.grad_terms(i) + [(p, -c) for p, c in gj]
        _add_inner_sparse(led, gd, gd, -weight / 2)

    def add_nonsmooth_coco(self, led: GramLedger, weight: float, i: Index, j: Index) -> None:
        """Accumulate weight * [h_i - h_j - <s_j, x_i - x_j>]."""
        if i == j:
            raise ValueError("co-coercivity requires distinct indices")
        led.add_h(i, weight)
        led.add_h(j, -weight)
        diff = self.x_rel(i) - self.x_rel(j)
        for p, c in self.subgrad_terms(j):
            _add_inner_basis(led, p, diff, -weight * c)


def coco_block_reference(
    led: GramLedger,
    W: np.ndarray,
    H: StepsizeMatrix,
    smooth: bool,
    composite: bool,
    coupled_star: bool,
    exact: bool = False,
) -> None:
    """Drop-in for coco_block that adds the inequalities one at a time, over
    the ledger's basis; with exact, on Fractions into a ledger that holds
    Fractions."""
    n = led.n
    expand = CocoExpander(H, composite, coupled_star, led.quad.shape[0], exact)
    add = expand.add_smooth_coco if smooth else expand.add_nonsmooth_coco
    W = _exact(W) if exact else np.asarray(W, dtype=float)
    for i, j, w in iter_nonzero(W):
        if i != j:
            add(led, w, STAR if i == n + 1 else i, STAR if j == n + 1 else j)


def _exact(a) -> np.ndarray:
    """The float values of an array as an object array of Fractions."""
    a = np.asarray(a, dtype=float)
    return np.array([Fraction(x) for x in a.ravel().tolist()], dtype=object).reshape(a.shape)


def exact_coco_block(W: np.ndarray, H: StepsizeMatrix, mode: str) -> GramLedger:
    """A fresh ledger on the mode's basis holding coco_block(W, H, mode) in
    exact arithmetic on the float values of W and H's entries: its arrays
    hold Fractions."""
    led = GramLedger(H.n, composite=MODES[mode][1])
    for name in ("quad", "lin_f", "lin_h"):
        setattr(led, name, _exact(getattr(led, name)))
    coco_block_reference(led, W, H, *MODES[mode], exact=True)
    return led


def distance(led: GramLedger, exact: GramLedger) -> float:
    """The largest distance of a float ledger's coefficients from an exact
    ledger's of the same shapes, rounded once."""
    assert all(getattr(led, name).shape == getattr(exact, name).shape for name in ("quad", "lin_f", "lin_h"))
    gaps = [abs(Fraction(x) - y) for name in ("quad", "lin_f", "lin_h")
            for x, y in zip(getattr(led, name).ravel().tolist(), getattr(exact, name).ravel().tolist())]
    return float(max(gaps))


MODES = {  # coco_block's mode -> (smooth, composite, coupled_star) of the W-taking forms
    "unconstrained": (True, False, False),
    "composite_f": (True, True, True),
    "composite_h": (False, True, True),
}


def placed(block_form):
    """block_form, which takes the full (n+2, n+2) weight matrix and three
    booleans, behind coco_block's signature: a weight block placed at an
    origin, and a mode.  Lets a W-taking form stand in for coco_block in the
    library's callers."""

    def place(led, weights, H, mode, origin=(0, 0)):
        weights = np.asarray(weights, dtype=float)
        top, left = origin
        W = np.zeros((led.n + 2, led.n + 2))
        W[top : top + weights.shape[0], left : left + weights.shape[1]] = weights
        block_form(led, W, H, *MODES[mode])

    return place
