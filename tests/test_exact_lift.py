"""The lift's shifted multiplier rows against the dense solve they replace
and against the exact rational lift of the same float inputs.

The rows kernel applies H and H^{-1} through the stepsize matrix's factors;
the dense route multiplies by the cumulative form Hc and solves with it.
Both round, so neither reproduces the other bit for bit.  The exact oracle
(exact_lift.py) says which is closer: at every checked size the kernel's
distance from the exact rows is at most 5 % above the dense solve's or
within one ulp of the largest entry, and for the silver and gsw schedules
it keeps every entry that is exactly zero.
"""

import functools

import numpy as np
import pytest

from exact_lift import distance, exact_rows, kept_zeros
from peplift.catalog import FAMILIES
from reference_forms import dense_rows, library_rows, rows_inputs

EXACT_CELLS = [(algo, k) for algo in ("silver", "gsw") for k in range(1, 6)]
EXACT_CELLS += [(algo, n) for algo in ("ogm", "ogmg") for n in (8, 16, 32)]
DENSE_CELLS = [(algo, k) for algo in ("silver", "gsw") for k in range(1, 9)]
DENSE_CELLS += [(algo, n) for algo in ("ogm", "ogmg") for n in (1, 2, 3, 5, 64, 300)]


def cell_inputs(algo, size):
    family = FAMILIES[algo]
    return family.schedule(size), family.certificate(size)


@pytest.mark.parametrize("algo, size", DENSE_CELLS)
def test_rows_match_the_dense_solve(algo, size):
    H, cert = cell_inputs(algo, size)
    rows, dense = library_rows(H, cert), dense_rows(H, cert)
    assert rows.shape == dense.shape == (cert.n, cert.n)
    assert np.max(np.abs(rows - dense)) <= 1e-12 * max(1.0, np.max(np.abs(rows)))


@functools.lru_cache(maxsize=None)
def rows_and_oracle(algo, size):
    """(kernel rows, dense rows, exact rows) of one cell, formed once."""
    H, cert = cell_inputs(algo, size)
    return library_rows(H, cert), dense_rows(H, cert), exact_rows(H.entries, *rows_inputs(cert))


@pytest.mark.parametrize("algo, size", EXACT_CELLS)
def test_rows_are_no_farther_from_exact_than_the_dense_solve(algo, size):
    rows, dense, exact = rows_and_oracle(algo, size)
    scale = max(1.0, float(np.max(np.abs(dense))))
    assert distance(dense, exact) <= 1e-10 * scale  # the oracle lifts what the float routes lift
    # below one ulp of the largest entry a ratio of distances compares single
    # roundings (silver k=2: 1.24e-15 against 1.02e-15, with ulp 1.8e-15)
    ulp = float(np.spacing(np.max(np.abs(rows))))
    assert distance(rows, exact) <= max(1.05 * distance(dense, exact), ulp)


@pytest.mark.parametrize("algo, size", [cell for cell in EXACT_CELLS if cell[0] in ("silver", "gsw")])
def test_diagonal_schedules_keep_every_exact_zero(algo, size):
    rows, _, exact = rows_and_oracle(algo, size)
    kept, zeros = kept_zeros(rows, exact)
    assert kept == zeros
