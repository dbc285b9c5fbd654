"""Peak memory of a verify cell, in units of one quadratic form.

numpy reports its array allocations to tracemalloc, so the traced peak above
the starting point counts every temporary a cell allocates, whether or not
its pages are ever touched.  One quad is the 8 (2n+3)^2 bytes of a ledger's
quadratic form; a certify cell holds two of them (lhs and rhs), and the
stages of a lift cell hold two plus the lift's n x n fields.  The bounds are
the measured peaks plus a margin of 0.05 quads: 2.50 quads for a certify
cell of any family and 3.25 for a lift cell of either metric.  A second
(n+2) x (n+2) weight matrix held beside coco_block's own, as when each
caller built its W and coco_block copied it, puts a certify cell at 2.56
quads and the lift cells at 3.50 and 3.49.  A lift that keeps a second
n x n copy of its multipliers, or the gradient lift's slack before its
corner subtraction, peaks at 3.50 (ogm) and 3.75 (ogmg); full-size
temporaries in the ledger assembly, the lift or the feasibility checks push
the peak further past the bounds.

A certify cell peaks while its two ledgers are compared: both quads, the
cumulative form and one block of rows of their difference.  Its assembly
stays at 2.31 quads, for the diagonal silver and gsw schedules as for ogm.
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
    assert peak_in_quads("ogm", 512, lift=False) < 2.55


@pytest.mark.parametrize("algo", ["silver", "gsw"])
def test_gradient_descent_certify_cell_peak(algo):
    assert peak_in_quads(algo, 9, lift=False) < 2.55


@pytest.mark.parametrize("algo", ["ogm", "ogmg"])
def test_lift_cell_peak(algo):
    assert peak_in_quads(algo, 256, lift=True) < 3.30
