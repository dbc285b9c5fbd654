"""Stepsize schedules and triangular stepsize-matrix utilities.

Index convention, stated once and used everywhere: an n-step method places
weight ``alpha[k, j]`` on gradient j at step k (1 <= k <= n, 0 <= j <= k-1).
We store these in a dense upper-triangular array where ``entries[j, k-1]``
holds alpha[k, j], so column k-1 lists the weights used by step k and the
diagonal holds the "fresh gradient" weights alpha[k, k-1], which must be
nonzero.  The identities read these entries and nothing derived from them:
column k-1 holds the coefficients of x_{k-1} - x_k over past gradients, and
the sums of row j over the first i columns those of x_0 - x_i.

A stepsize matrix also carries factors whose product is H, so H and H^{-1}
apply to a block of columns in O(n) work per column: diag(d); U(d), which is
diag(d) plus ones strictly above the diagonal; U(d)^{-1}; or a dense
triangular block, the fallback for a matrix given by its entries alone.

All constructors are pure and return immutable values (arrays are marked
read-only), so schedule objects are safe to share across threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

SILVER_RATIO = 1.0 + math.sqrt(2.0)


def _frozen(a) -> np.ndarray:
    """Read-only float array with the values of an array-like.

    A float array that is read-only all the way down (it and every array it
    views) is returned as it is, since nothing can write to it; anything
    else is copied, so no caller keeps a writable handle on the result."""
    base = a
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        base = base.base
    if base is None and a.dtype == float:
        return a
    out = np.array(a, dtype=float)
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


_FACTOR_KINDS = ("diag", "upper", "upper_inv", "dense")


@dataclass(frozen=True)
class StepsizeMatrix:
    """Upper-triangular stepsize matrix of an n-step first-order method.

    Rejects matrices with a non-finite entry, with entries below the
    diagonal or with a zero on the diagonal (a zero fresh-gradient weight
    would make an iterate redundant and the matrix singular).

    factors multiply to the entries, leftmost first; the builders of the
    structured families pass them.  Without them a diagonal matrix is one
    'diag' factor and any other one 'dense' factor.  The lift applies H and
    H^{-1} through them and the identities read the entries, so factors that
    do not match the entries make the lift fail its checks, not pass them.
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
                if kind not in _FACTOR_KINDS or data.shape != ((n, n) if kind == "dense" else (n,)):
                    raise ValueError(f"a {kind!r} factor of shape {data.shape} cannot be a factor of an {n}-step matrix")
        object.__setattr__(self, "entries", a)
        object.__setattr__(self, "factors", factors)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

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


def _dyadic_valuation(i: int) -> int:
    """Largest j such that 2**j divides i (i >= 1)."""
    return (i & -i).bit_length() - 1


def silver_schedule(k: int) -> np.ndarray:
    """Silver stepsizes of length 2**k - 1, from the dyadic closed form.

    Step i equals 1 + rho**(nu(i) - 1) where rho is the silver ratio and
    nu(i) is the 2-adic valuation of i.
    """
    if k < 1:
        raise ValueError(f"silver schedule needs k >= 1, got {k}")
    n = 2**k - 1
    return np.array([1.0 + SILVER_RATIO ** (_dyadic_valuation(i) - 1) for i in range(1, n + 1)])


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


class GswSchedule(NamedTuple):
    steps: np.ndarray  # length 2**k - 1
    tau: float  # tau_k
    etas: np.ndarray  # eta_1..eta_{k-1}


def gsw_schedule(k: int) -> GswSchedule:
    """GD stepsizes tuned for final gradient norm: [w, eta_k, silver] doubling.

    Starts from [3/2]; each doubling appends the bridge step
    eta_k = 1 + (sqrt(tau_k**2 + 8 rho**k tau_k) - tau_k)/4 and a full silver
    block.
    """
    if k < 1:
        raise ValueError(f"gsw schedule needs k >= 1, got {k}")
    taus = gsw_taus(k)
    etas = np.empty(k - 1)
    steps = np.array([1.5])
    for kk in range(1, k):
        t, r = taus[kk - 1], SILVER_RATIO**kk
        etas[kk - 1] = 1.0 + (math.sqrt(t * t + 8.0 * r * t) - t) / 4.0
        steps = np.concatenate([steps, [etas[kk - 1]], silver_schedule(kk)])
    return GswSchedule(steps=steps, tau=float(taus[-1]), etas=etas)


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
    are the previous column scaled by (theta_{k-1} - 1)/theta_k.  Its factors
    are diag(2 theta_0..2 theta_{n-1}) U(phi_1..phi_n) U(theta_1..theta_n)^{-1}
    (Kim and Fessler 2016).
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    t = theta_sequence(n)
    a = np.zeros((n, n))
    for i in range(n):
        a[i, i] = 1.0 + (2.0 * t[i] - 1.0) / t[i + 1]
        if i >= 1:
            scale = (t[i] - 1.0) / t[i + 1]
            a[i - 1, i] = scale * (a[i - 1, i - 1] - 1.0)
            a[: i - 1, i] = scale * a[: i - 1, i - 1]
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
    t = theta_sequence(n)
    a = np.zeros((n, n))
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

_KINDS = ("silver", "gsw", "ogm", "ogmg", "constant", "custom")


@dataclass(frozen=True)
class ScheduleSpec:
    """Declarative description of a stepsize matrix.

    Silver/GSW schedules exist only for lengths n = 2**k - 1; requesting any
    other length is an error rather than a truncation.
    """

    kind: str
    n: int
    k: int | None = None
    alpha: float | None = None
    matrix: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}; valid: {_KINDS}")
        if self.n < 1:
            raise ValueError(f"schedule length must be >= 1, got {self.n}")
        if self.kind in ("silver", "gsw"):
            if self.k is None or self.k < 1 or self.n != 2**self.k - 1:
                raise ValueError(f"{self.kind} schedules require n = 2**k - 1, got n={self.n}, k={self.k}")
        if self.kind == "constant" and (self.alpha is None or self.alpha <= 0):
            raise ValueError(f"constant GD requires alpha > 0, got {self.alpha}")

    @classmethod
    def silver(cls, k: int) -> "ScheduleSpec":
        return cls(kind="silver", n=2**k - 1, k=k)

    @classmethod
    def gsw(cls, k: int) -> "ScheduleSpec":
        return cls(kind="gsw", n=2**k - 1, k=k)

    @classmethod
    def ogm(cls, n: int) -> "ScheduleSpec":
        return cls(kind="ogm", n=n)

    @classmethod
    def ogmg(cls, n: int) -> "ScheduleSpec":
        return cls(kind="ogmg", n=n)

    @classmethod
    def constant_gd(cls, alpha: float, n: int) -> "ScheduleSpec":
        return cls(kind="constant", n=n, alpha=alpha)

    @classmethod
    def custom(cls, matrix) -> "ScheduleSpec":
        m = StepsizeMatrix(matrix).entries  # rejects what a stepsize matrix cannot hold
        return cls(kind="custom", n=m.shape[0], matrix=m)

    def build(self) -> StepsizeMatrix:
        if self.kind == "silver":
            return from_diagonal(silver_schedule(self.k))
        if self.kind == "gsw":
            return from_diagonal(gsw_schedule(self.k).steps)
        if self.kind == "ogm":
            return ogm_stepsize_matrix(self.n)
        if self.kind == "ogmg":
            return ogmg_stepsize_matrix(self.n)
        if self.kind == "constant":
            return from_diagonal(np.full(self.n, self.alpha))
        return StepsizeMatrix(self.matrix)


def load_schedule_json(path) -> ScheduleSpec:
    """Load a custom schedule from JSON: either a diagonal stepsize vector or
    a full upper-triangular matrix (row-major, zeros included)."""
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("kind") != "custom":
        raise ValueError(f"schedule file must have kind 'custom', got {doc.get('kind')!r}")
    n = int(doc["n"])
    if "diagonal" in doc:
        diag = np.asarray(doc["diagonal"], dtype=float)
        if diag.shape != (n,):
            raise ValueError(f"diagonal length {diag.shape[0]} does not match n={n}")
        return ScheduleSpec.custom(np.diag(diag))
    if "matrix" in doc:
        m = np.asarray(doc["matrix"], dtype=float)
        if m.shape != (n, n):
            raise ValueError(f"matrix shape {m.shape} does not match n={n}")
        return ScheduleSpec.custom(m)
    raise ValueError("schedule file needs a 'diagonal' or 'matrix' field")
