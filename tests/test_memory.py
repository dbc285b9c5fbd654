"""Peak memory of a verify cell, in units of one quadratic form.

numpy reports its array allocations to tracemalloc, so the traced peak above
the starting point counts every temporary a cell allocates, whether or not
its pages are ever touched.  One quad is the 8 (2n+3)^2 bytes of a ledger's
quadratic form; a certify cell holds two of them (lhs and rhs), and the
stages of a lift cell hold two plus the lift's n x n fields.  A certify cell
of any family peaks at 2.25 quads and a lift cell of either metric at 3.00.
The bounds, 2.30 and 3.05, sit 0.05 quads above those peaks, so a second
(n+2) x (n+2) weight matrix held beside coco_block's own, as when each
caller built its W and coco_block copied it, pushes a cell past them, as
does a temporary the size of a quadratic form in the ledger assembly, the
lift or the feasibility checks.

A certify cell peaks while its two ledgers are compared (both quads and one
block of rows of their difference).  Assembling the smooth inequalities into
the lhs stays lower, at 2.06 quads for every family: one quad and four n x n
buffers, the weight matrix, the directions, the step weights (which H's
factors turn into the step term in place) and the Laplacian.
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
    assert peak_in_quads("ogm", 512, lift=False) < 2.30


@pytest.mark.parametrize("algo", ["silver", "gsw"])
def test_gradient_descent_certify_cell_peak(algo):
    assert peak_in_quads(algo, 9, lift=False) < 2.30


@pytest.mark.parametrize("algo", ["ogm", "ogmg"])
def test_lift_cell_peak(algo):
    assert peak_in_quads(algo, 256, lift=True) < 3.05
