"""Exact rational lift of a float certificate, the oracle for the lift's rows.

The lift's shifted multiplier rows are -Hc^{-1} ((Hc tilde)^T + left right^T)
with Hc = H U the cumulative form (U the all-ones upper triangle).  Here they
are formed exactly from the float H and the float arrays the library feeds
its kernel (tilde from `aggregates`, and for the objective-gap metric gamma
and gamma + sigma), by a dense product and a dense back substitution with
Hc, so every digit of the result is the exact value of those inputs.
Stdlib only; O(n^3) operations on integers that grow with n, so meant for n
up to about 64.
"""

from fractions import Fraction

import numpy as np


def _scaled(values) -> tuple[list[int], int]:
    """(integers m_i, exponent e) with values[i] = m_i / 2**e exactly: every
    float is a dyadic rational."""
    fractions = [Fraction(float(x)) for x in values]
    e = max(f.denominator for f in fractions).bit_length() - 1
    return [f.numerator << (e - (f.denominator.bit_length() - 1)) for f in fractions], e


def exact_rows(H: np.ndarray, tilde: np.ndarray, left=None, right=None) -> list[list[Fraction]]:
    """-Hc^{-1} ((Hc tilde)^T + left right^T) in exact arithmetic, from the
    float entries of H and tilde (and the float vectors left, right).

    Every input is scaled to integers over a power of two, so the product
    and the back substitution run on Python integers: with d_i the product
    of Hc's diagonal from i on, x_i d_i is an integer vector, built from
    the rows below it without a division."""
    n = H.shape[0]
    flat, eh = _scaled(np.asarray(H, dtype=float).ravel())
    h = [flat[i * n : (i + 1) * n] for i in range(n)]
    hc = [[sum(row[i : j + 1]) if j >= i else 0 for j in range(n)] for i, row in enumerate(h)]
    flat, et = _scaled(np.asarray(tilde, dtype=float).ravel())
    t = [flat[i * n : (i + 1) * n] for i in range(n)]
    nonzero = [[(l, t[l][c]) for l in range(n) if t[l][c]] for c in range(n)]
    # rhs[r][c] = ((Hc tilde)[c][r] + left[r] right[c]) * 2**scale
    rhs = [[sum(hc[c][l] * value for l, value in nonzero[r]) for c in range(n)] for r in range(n)]
    scale = eh + et
    if left is not None:
        (lv, el), (rv, er) = _scaled(left), _scaled(right)
        shift = el + er - scale
        if shift > 0:
            rhs, scale = [[x << shift for x in row] for row in rhs], el + er
        rhs = [[x + ((a * b) << (scale - el - er)) for b, x in zip(rv, row)] for a, row in zip(lv, rhs)]
    # back substitution with the integer Hc (its float value times 2**eh):
    # y_i = d_{i+1} rhs_i - sum_j hc[i][j] y_j (d_{i+1} / d_j), x_i = y_i / d_i
    y, d = [None] * n, [1] * (n + 1)
    for i in range(n - 1, -1, -1):
        acc, between = [d[i + 1] * x for x in rhs[i]], 1  # between = d_{i+1} / d_j
        for j in range(i + 1, n):
            if hc[i][j]:
                coeff = hc[i][j] * between
                acc = [a - coeff * x for a, x in zip(acc, y[j])]
            between *= hc[j][j]
        y[i], d[i] = acc, hc[i][i] * d[i + 1]
    return [[-Fraction(x << eh, d[i] << scale) for x in row] for i, row in enumerate(y)]


def distance(rows: np.ndarray, exact: list[list[Fraction]]) -> float:
    """max |rows - exact| over every entry, the difference taken exactly."""
    return float(max(abs(Fraction(x) - e) for row, erow in zip(rows.tolist(), exact) for x, e in zip(row, erow)))


def kept_zeros(rows: np.ndarray, exact: list[list[Fraction]]) -> tuple[int, int]:
    """(entries that are exactly zero in both, entries exactly zero in exact)."""
    zeros = [(x, e) for row, erow in zip(rows.tolist(), exact) for x, e in zip(row, erow) if e == 0]
    return sum(x == 0.0 for x, _ in zeros), len(zeros)
