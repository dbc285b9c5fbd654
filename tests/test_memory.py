"""Peak memory of a verify cell, in units of one quadratic form.

numpy reports its array allocations to tracemalloc, so the traced peak above
the starting point counts every temporary a cell allocates, whether or not
its pages are ever touched.  One quad is the 8 (2n+3)^2 bytes of a composite
ledger's quadratic form.  A certify cell holds two (n+2) x (n+2) forms, the
unconstrained identity's lhs and rhs, about a quarter of a quad each, and
the stages of a lift cell hold two quads plus the lift's n x n fields.  A
lift cell assembles its smooth inequalities once, into a composite ledger
that it holds from the unconstrained identity (which copies its leading
(n+2) x (n+2) block) through the lift and feasibility stages until the
composite identity continues from it; those stages peak at about 2.3
quads, below the composite identity, so the peaks are as they were when
each identity assembled its own.  A certify cell of any family peaks at
1.26 quads and a lift cell of either metric at 3.00.  The bounds, 1.31 and
3.05, sit 0.05 quads above those peaks, so an unconstrained identity
assembled on the full composite basis (2.25 quads), a second (n+2) x (n+2)
weight matrix held beside coco_block's own, as when each caller built its W
and coco_block copied it, or a temporary the size of a quadratic form in
the ledger assembly, the lift or the feasibility checks pushes a cell past
them.

A certify cell peaks while the smooth inequalities are assembled into its
lhs: one (n+2) x (n+2) form and four n x n buffers, the weight matrix, the
directions, the step weights (which H's factors turn into the step term in
place) and the Laplacian.  Comparing the two sides afterwards stays lower.
"""

import tracemalloc

import pytest

from peplift.catalog import FAMILIES
from peplift.lift import verify_cell


def peak_in_quads(algo: str, size: int, lift: bool) -> float:
    family = FAMILIES[algo]
    H, cert = family.schedule(size), family.certificate(size)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        cell = verify_cell(H, cert, family.xi(size), lift=lift)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cell.passed
    return (peak - start) / (8 * (2 * cert.n + 3) ** 2)


def test_certify_cell_peak():
    assert peak_in_quads("ogm", 512, lift=False) < 1.31


@pytest.mark.parametrize("algo", ["silver", "gsw"])
def test_gradient_descent_certify_cell_peak(algo):
    assert peak_in_quads(algo, 9, lift=False) < 1.31


@pytest.mark.parametrize("algo", ["ogm", "ogmg"])
def test_lift_cell_peak(algo):
    assert peak_in_quads(algo, 256, lift=True) < 3.05
