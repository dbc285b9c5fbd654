"""Stepsize schedules and triangular stepsize-matrix utilities.

Index convention, stated once and used everywhere: an n-step method places
weight ``alpha[k, j]`` on gradient j at step k (1 <= k <= n, 0 <= j <= k-1).
We store these in a dense upper-triangular array where ``entries[j, k-1]``
holds alpha[k, j], so column k-1 lists the weights used by step k and the
diagonal holds the "fresh gradient" weights alpha[k, k-1], which must be
nonzero.  The cumulative form stores the partial sums
``walpha[i, j] = sum_{k=j+1}^{i} alpha[k, j]`` at the same positions, so
column i-1 of it gives the coefficients of x_0 - x_i over past gradients.

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


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def unit_upper(n: int) -> np.ndarray:
    """All-ones upper-triangular matrix (diagonal included)."""
    return np.triu(np.ones((n, n)))


@dataclass(frozen=True)
class StepsizeMatrix:
    """Upper-triangular stepsize matrix of an n-step first-order method.

    Rejects matrices with entries below the diagonal or with a zero on the
    diagonal (a zero fresh-gradient weight would make an iterate redundant
    and the matrix singular).
    """

    entries: np.ndarray

    def __post_init__(self):
        a = np.array(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
            raise ValueError(f"stepsize matrix must be square and nonempty, got shape {a.shape}")
        if np.any(np.tril(a, k=-1) != 0.0):
            raise ValueError("stepsize matrix must be upper triangular (exact zeros below the diagonal)")
        if np.any(np.diag(a) == 0.0):
            raise ValueError("diagonal entries alpha[k, k-1] must be nonzero")
        object.__setattr__(self, "entries", _frozen(a))

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def alpha(self, k: int, j: int) -> float:
        """Weight on gradient j at step k (1 <= k <= n, 0 <= j < k)."""
        if not (1 <= k <= self.n and 0 <= j < k):
            raise IndexError(f"alpha index (k={k}, j={j}) out of range for n={self.n}")
        return float(self.entries[j, k - 1])

    def is_diagonal(self) -> bool:
        return bool(np.all(self.entries == np.diag(np.diag(self.entries))))


@dataclass(frozen=True)
class CumulativeStepsizeMatrix:
    """Partial-sum form of a stepsize matrix; column i-1 expands x_0 - x_i."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _frozen(self.entries))

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def from_diagonal(steps) -> StepsizeMatrix:
    """Stepsize matrix of plain gradient descent with the given steps."""
    return StepsizeMatrix(np.diag(np.asarray(steps, dtype=float)))


def cumulative(H: StepsizeMatrix) -> CumulativeStepsizeMatrix:
    """Exact product of the stepsize matrix with the all-ones upper triangle."""
    return CumulativeStepsizeMatrix(H.entries @ unit_upper(H.n))


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


@dataclass(frozen=True)
class ThetaSequence:
    """The horizon-dependent sequence theta_0..theta_n with a boosted last step.

    Satisfies theta_{i+1}**2 - theta_{i+1} - theta_i**2 = 0 for the interior
    steps and theta_n**2 - theta_n - 2 theta_{n-1}**2 = 0 at the end.
    """

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values))

    @property
    def n(self) -> int:
        return self.values.shape[0] - 1

    def recurrence_residuals(self) -> np.ndarray:
        """Relative residuals of the defining quadratic recurrences."""
        t = self.values
        res = np.empty(self.n)
        for i in range(self.n - 1):
            res[i] = (t[i + 1] ** 2 - t[i + 1] - t[i] ** 2) / max(1.0, t[i + 1] ** 2)
        res[self.n - 1] = (t[-1] ** 2 - t[-1] - 2.0 * t[-2] ** 2) / max(1.0, t[-1] ** 2)
        return res


def theta_sequence(n: int) -> ThetaSequence:
    if n < 1:
        raise ValueError(f"theta sequence needs n >= 1, got {n}")
    t = np.empty(n + 1)
    t[0] = 1.0
    for i in range(1, n):
        t[i] = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t[i - 1] ** 2))
    t[n] = 0.5 * (1.0 + math.sqrt(1.0 + 8.0 * t[n - 1] ** 2))
    return ThetaSequence(values=t)


def ogm_stepsize_matrix(n: int) -> StepsizeMatrix:
    """Stepsize matrix of the optimized gradient method for n steps.

    Column k-1 (the weights of step k) is produced by the three-case
    recursion: the diagonal is 1 + (2 theta_{k-1} - 1)/theta_k, the entry just
    above comes from the previous diagonal minus one, and all older entries
    are the previous column scaled by (theta_{k-1} - 1)/theta_k.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    t = theta_sequence(n).values
    a = np.zeros((n, n))
    for i in range(n):
        a[i, i] = 1.0 + (2.0 * t[i] - 1.0) / t[i + 1]
        if i >= 1:
            scale = (t[i] - 1.0) / t[i + 1]
            a[i - 1, i] = scale * (a[i - 1, i - 1] - 1.0)
            a[: i - 1, i] = scale * a[: i - 1, i - 1]
    return StepsizeMatrix(a)


def ogmg_stepsize_matrix(n: int) -> StepsizeMatrix:
    """Stepsize matrix of the gradient-norm variant (OGM-G) for n steps.

    Each column fills right to left: the diagonal uses the reversed theta
    index, the next entry uses (diagonal - 1), and older entries scale their
    right neighbour by (theta_{n-j-1} - 1)/theta_{n-j}.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    t = theta_sequence(n).values
    a = np.zeros((n, n))
    for i in range(n):
        a[i, i] = 1.0 + (2.0 * t[n - i - 1] - 1.0) / t[n - i]
        if i >= 1:
            a[i - 1, i] = (t[n - i] - 1.0) / t[n - i + 1] * (a[i, i] - 1.0)
        for j in range(i - 2, -1, -1):
            a[j, i] = (t[n - j - 1] - 1.0) / t[n - j] * a[j + 1, i]
    return StepsizeMatrix(a)


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
        m = np.asarray(matrix, dtype=float)
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
