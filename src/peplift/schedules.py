"""Stepsize schedules and triangular stepsize-matrix utilities.

Index convention, stated once and used everywhere: an n-step method places
weight ``alpha[k, j]`` on gradient j at step k (1 <= k <= n, 0 <= j <= k-1).
We store these in a dense upper-triangular array where ``entries[j, k-1]``
holds alpha[k, j], so column k-1 lists the weights used by step k and the
diagonal holds the "fresh gradient" weights alpha[k, k-1], which must be
nonzero.  Column k-1 holds the coefficients of x_{k-1} - x_k over past
gradients, and the sums of row j over the first i columns those of
x_0 - x_i; the identities take those offsets from the entries.

A stepsize matrix also carries factors whose product is H, so H and H^{-1}
apply to a block of columns in O(n) work per column: diag(d); U(d), which is
diag(d) plus ones strictly above the diagonal; U(d)^{-1}; or a dense
triangular block, the fallback for a matrix given by its entries alone.  The
lift and the identities' step term apply H through them (see ledger.py for
the small matrices whose step term multiplies by the entries).

All constructors are pure and return immutable values (arrays are marked
read-only), so schedule objects are safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

SILVER_RATIO = 1.0 + math.sqrt(2.0)


def _frozen(a) -> np.ndarray:
    """Read-only C-ordered float array with the values of an array-like.

    A C-contiguous float array read-only all the way down (it and every array
    it views) is returned as it is; anything else is copied in C order, so no
    caller keeps a writable handle on the result or picks how BLAS sums it."""
    base = a
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        base = base.base
    if base is None and a.dtype == float and a.flags.c_contiguous:
        return a
    out = np.array(a, dtype=float, order="C")
    out.setflags(write=False)
    return out


def _upper(d: np.ndarray, x: np.ndarray) -> np.ndarray:
    """U(d) x in place: row i becomes d_i x_i plus the sum of the rows below
    it, kept as a running sum."""
    below, spare = np.zeros(x.shape[1:]), np.empty(x.shape[1:])
    for row, di in zip(x[::-1], d[::-1].tolist()):
        np.add(below, row, spare)
        row *= di
        row += below
        below, spare = spare, below
    return x


def _upper_solve(d: np.ndarray, y: np.ndarray) -> np.ndarray:
    """U(d)^{-1} y in place, by back substitution with a running sum of the
    rows already solved."""
    below = np.zeros(y.shape[1:])
    for row, di in zip(y[::-1], d[::-1].tolist()):
        row -= below
        row /= di
        below += row
    return y


class Factor(NamedTuple):
    """One factor of a stepsize matrix: kind 'diag' is diag(data), 'upper'
    is U(data), 'upper_inv' is U(data)^{-1} and 'dense' is the triangular
    block data itself.  apply and solve take a block of columns (n rows),
    which they may overwrite, and return F x and F^{-1} x."""

    kind: str
    data: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "diag":
            x *= self.data[:, None]
            return x
        if self.kind == "upper":
            return _upper(self.data, x)
        if self.kind == "upper_inv":
            return _upper_solve(self.data, x)
        return self.data @ x

    def solve(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "diag":
            x /= self.data[:, None]
            return x
        if self.kind == "upper":
            return _upper_solve(self.data, x)
        if self.kind == "upper_inv":
            return _upper(self.data, x)
        return np.linalg.solve(self.data, x)


@dataclass(frozen=True)
class StepsizeMatrix:
    """Upper-triangular stepsize matrix of an n-step first-order method.

    Rejects matrices with a non-finite entry, with entries below the
    diagonal or with a zero on the diagonal (a zero fresh-gradient weight
    would make an iterate redundant and the matrix singular).

    factors multiply to the entries, leftmost first; the builders of the
    structured families pass them.  Without them a diagonal matrix is one
    'diag' factor and any other one 'dense' factor.  The lift applies H and
    H^{-1} through them, and so do the identities for their step term, but
    their offsets x_i - x_0 read the entries, and below ledger._DENSE_STEPS
    steps a matrix off its diagonal multiplies its step term by the entries
    too.  Factors that do not match the entries therefore make the lift fail
    its checks at any size, and the identities fail theirs above that size,
    unless the mismatch is too small for the tolerance to see.
    """

    entries: np.ndarray
    factors: tuple[Factor, ...] = field(default=(), compare=False)

    def __post_init__(self):
        a = _frozen(self.entries)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
            raise ValueError(f"stepsize matrix must be square and nonempty, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise ValueError("stepsize matrix entries must be finite")
        if np.any(np.tril(a, k=-1) != 0.0):
            raise ValueError("stepsize matrix must be upper triangular (exact zeros below the diagonal)")
        if np.any(np.diag(a) == 0.0):
            raise ValueError("diagonal entries alpha[k, k-1] must be nonzero")
        n = a.shape[0]
        if not self.factors:
            diagonal = np.count_nonzero(a) == n
            factors = (Factor("diag", _frozen(np.diag(a))) if diagonal else Factor("dense", a),)
        else:
            factors = tuple(Factor(kind, _frozen(data)) for kind, data in self.factors)
            for kind, data in factors:
                if kind not in ("diag", "upper", "upper_inv", "dense") or data.shape != ((n, n) if kind == "dense" else (n,)):
                    raise ValueError(f"a {kind!r} factor of shape {data.shape} cannot be a factor of an {n}-step matrix")
        object.__setattr__(self, "entries", a)
        object.__setattr__(self, "factors", factors)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def dense(self) -> bool:
        """Whether a factor is 'dense', applied and solved by BLAS and
        LAPACK, whose sums for a column can change with the block's width."""
        return any(factor.kind == "dense" for factor in self.factors)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """H x for a block of columns x (n rows, float), through the factors;
        x is overwritten."""
        for factor in reversed(self.factors):
            x = factor.apply(x)
        return x

    def solve(self, x: np.ndarray) -> np.ndarray:
        """H^{-1} x for a block of columns x (n rows, float), through the
        factors; x is overwritten."""
        for factor in self.factors:
            x = factor.solve(x)
        return x


def from_diagonal(steps) -> StepsizeMatrix:
    """Stepsize matrix of plain gradient descent with the given steps."""
    return StepsizeMatrix(np.diag(np.asarray(steps, dtype=float)))


# ---------------------------------------------------------------------------
# Silver stepsizes and the gradient-norm variant
# ---------------------------------------------------------------------------


def silver_schedule(k: int) -> np.ndarray:
    """Silver stepsizes of length 2**k - 1, from the dyadic closed form.

    Step i equals 1 + rho**(nu(i) - 1) where rho is the silver ratio and
    nu(i) is the 2-adic valuation of i.  The output is allocated before any
    step is computed, so a size beyond memory fails at once; the i with
    nu(i) = v are the odd multiples of 2**v, one strided slice per value.
    """
    if k < 1:
        raise ValueError(f"silver schedule needs k >= 1, got {k}")
    steps = np.empty(2**k - 1)
    for v in range(k):
        steps[2**v - 1 :: 2 ** (v + 1)] = 1.0 + SILVER_RATIO ** (v - 1)
    return steps


def gsw_taus(k: int) -> np.ndarray:
    """The scalars tau_1..tau_k driving the gradient-norm stepsize recursion."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    taus = np.empty(k)
    taus[0] = 4.0
    for i in range(1, k):
        t, r = taus[i - 1], SILVER_RATIO**i
        taus[i] = 0.5 * (t + 4.0 * r + math.sqrt(t * t + 8.0 * r * t))
    return taus


def gsw_schedule(k: int) -> np.ndarray:
    """GD stepsizes tuned for final gradient norm: [w, eta_k, silver] doubling.

    Starts from [3/2]; each doubling appends the bridge step
    eta_k = 1 + (sqrt(tau_k**2 + 8 rho**k tau_k) - tau_k)/4 and a full silver
    block.
    """
    if k < 1:
        raise ValueError(f"gsw schedule needs k >= 1, got {k}")
    # doubling kk appends its bridge as step 2**kk and its silver block as
    # steps 2**kk + 1 .. 2**(kk+1) - 1, where step i is the block's step
    # i - 2**kk, of the same 2-adic valuation: the order-k silver schedule
    # holds every block, and only its steps 2**kk (kk < k) change, to the
    # first step and the bridges
    steps = silver_schedule(k)
    steps[0] = 1.5
    taus = gsw_taus(k)
    for kk in range(1, k):
        t, r = taus[kk - 1], SILVER_RATIO**kk
        steps[2**kk - 1] = 1.0 + (math.sqrt(t * t + 8.0 * r * t) - t) / 4.0
    return steps


# ---------------------------------------------------------------------------
# Momentum-type schedules driven by the theta sequence
# ---------------------------------------------------------------------------


def theta_sequence(n: int) -> np.ndarray:
    """The horizon-dependent sequence theta_0..theta_n with a boosted last
    step, read-only.

    Satisfies theta_{i+1}**2 - theta_{i+1} - theta_i**2 = 0 for the interior
    steps and theta_n**2 - theta_n - 2 theta_{n-1}**2 = 0 at the end.
    """
    if n < 1:
        raise ValueError(f"theta sequence needs n >= 1, got {n}")
    t = [1.0]
    for _ in range(1, n):
        t.append(0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t[-1] ** 2)))
    t.append(0.5 * (1.0 + math.sqrt(1.0 + 8.0 * t[-1] ** 2)))
    return _frozen(t)


def phi_sequence(t: np.ndarray) -> np.ndarray:
    """phi_1..phi_n: the diagonal of the triangular factor of the OGM matrix.

    phi_i = 1 + theta_{i-1}/(2 theta_i) for i < n and 1 + theta_{n-1}/theta_n
    at the end.
    """
    n = t.shape[0] - 1
    phi = 1.0 + t[:-1] / (2.0 * t[1:])
    phi[n - 1] = 1.0 + t[n - 1] / t[n]
    return phi


def ogm_stepsize_matrix(n: int) -> StepsizeMatrix:
    """Stepsize matrix of the optimized gradient method for n steps.

    Column k-1 (the weights of step k) is produced by the three-case
    recursion: the diagonal is 1 + (2 theta_{k-1} - 1)/theta_k, the entry just
    above comes from the previous diagonal minus one, and all older entries
    are the previous column scaled by (theta_{k-1} - 1)/theta_k, so each row
    is a running product.  Its factors are diag(2 theta_0..2 theta_{n-1})
    U(phi_1..phi_n) U(theta_1..theta_n)^{-1} (Kim and Fessler 2016).
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    a = np.zeros((n, n))  # before the theta loop, so a size beyond memory fails at once
    t = theta_sequence(n)
    scale = (t[1:n] - 1.0) / t[2:]  # scale[i] takes column i to column i+1
    np.fill_diagonal(a, 1.0 + (2.0 * t[:n] - 1.0) / t[1:])
    a[range(n - 1), range(1, n)] = scale * (np.diagonal(a)[:-1] - 1.0)
    for j in range(n - 2):
        a[j, j + 2 :] = scale[j + 1 :]
        np.multiply.accumulate(a[j, j + 1 :], out=a[j, j + 1 :])
    factors = (Factor("diag", 2.0 * t[:-1]), Factor("upper", phi_sequence(t)), Factor("upper_inv", t[1:]))
    return StepsizeMatrix(a, factors)


def ogmg_stepsize_matrix(n: int) -> StepsizeMatrix:
    """Stepsize matrix of the gradient-norm variant (OGM-G) for n steps.

    The diagonal uses the reversed theta index and the entry just above it
    uses (diagonal - 1).  Every older entry a[j, i] (i >= j + 2) is the one
    below it scaled by c_j = (theta_{n-j-1} - 1)/theta_{n-j}, so row j is
    row j + 1 times c_j beyond the first superdiagonal, filled bottom up.
    Its factors mirror OGM's: U(theta_n..theta_1)^{-1} U(phi_n..phi_1)
    diag(2 theta_{n-1}..2 theta_0) (Kim and Fessler 2021).
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    a = np.zeros((n, n))  # before the theta loop, as in ogm_stepsize_matrix
    t = theta_sequence(n)
    for i in range(n):
        a[i, i] = 1.0 + (2.0 * t[n - i - 1] - 1.0) / t[n - i]
        if i >= 1:
            a[i - 1, i] = (t[n - i] - 1.0) / t[n - i + 1] * (a[i, i] - 1.0)
    for j in range(n - 3, -1, -1):
        a[j, j + 2 :] = (t[n - j - 1] - 1.0) / t[n - j] * a[j + 1, j + 2 :]
    factors = (Factor("upper_inv", t[:0:-1]), Factor("upper", phi_sequence(t)[::-1]), Factor("diag", 2.0 * t[-2::-1]))
    return StepsizeMatrix(a, factors)


# ---------------------------------------------------------------------------
# Schedule specifications
# ---------------------------------------------------------------------------

# catalog family name -> its stepsize matrix at a size; the builders reject
# a size below 1
_BUILDERS = {
    "silver": lambda k: from_diagonal(silver_schedule(k)),
    "gsw": lambda k: from_diagonal(gsw_schedule(k)),
    "ogm": lambda n: ogm_stepsize_matrix(n),
    "ogmg": lambda n: ogmg_stepsize_matrix(n),
}


@dataclass(frozen=True)
class ScheduleSpec:
    """A catalog family's stepsize matrix at one size: kind is the family
    name, size its doubling order k (silver, gsw, with 2**k - 1 steps) or
    its step count n (ogm, ogmg)."""

    kind: str
    size: int

    # bench/workloads.py builds its silver and gsw runs through these two
    @classmethod
    def silver(cls, k: int) -> "ScheduleSpec":
        return cls("silver", k)

    @classmethod
    def gsw(cls, k: int) -> "ScheduleSpec":
        return cls("gsw", k)

    def build(self) -> StepsizeMatrix:
        builder = _BUILDERS.get(self.kind)
        if builder is None:
            raise ValueError(f"unknown schedule kind {self.kind!r}; valid: {tuple(_BUILDERS)}")
        return builder(self.size)
