"""Peak memory of a verify cell, in units of one quadratic form.

numpy reports its array allocations to tracemalloc, so the traced peak above
the starting point counts every temporary a cell allocates, whether or not
its pages are ever touched.  One quad is the 8 (2n+3)^2 bytes of a ledger's
quadratic form; a certify cell holds two of them (lhs and rhs), and the
stages of a lift cell hold two plus the lift's n x n fields.  The bounds are
the measured peaks (2.51 and at most 3.81 quads) plus a margin; full-size
temporaries in the ledger assembly, the lift or the feasibility checks push
the peak past them (3.77 and 4.84 quads with them).

A silver or gsw certify cell at k=9 (n=511) peaks at 2.56 quads, and its
bound is tighter: a view of the direction differences kept alive past the
product (their diagonal, which scales the columns for these schedules) holds
the whole buffer and lifts the peak to 2.65 quads.
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
    assert peak_in_quads("ogm", 512, lift=False) < 2.75


@pytest.mark.parametrize("algo", ["silver", "gsw"])
def test_gradient_descent_certify_cell_peak(algo):
    assert peak_in_quads(algo, 9, lift=False) < 2.6


@pytest.mark.parametrize("algo", ["ogm", "ogmg"])
def test_lift_cell_peak(algo):
    assert peak_in_quads(algo, 256, lift=True) < 4.25
