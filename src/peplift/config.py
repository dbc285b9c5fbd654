"""Global numeric tolerances shared by the verifiers."""

import math
import os

# Relative tolerance for identity residuals (coefficient matching).
DEFAULT_REL_TOL = 1e-9

# Entrywise nonnegativity slack for multiplier checks, relative to scale.
MU_TOL = 1e-10

# Eigenvalue slack for positive-semidefiniteness, relative to spectral norm.
PSD_TOL = 1e-9

# Laplacian / diagonal-dominance slack, relative to the largest entry.
LAPLACIAN_TOL = 1e-10


def rel_tol() -> float:
    """Relative residual tolerance; the PEPLIFT_TOL env var overrides it
    with a positive finite number (inf would pass any residual, nan none)."""
    raw = os.environ.get("PEPLIFT_TOL")
    if raw is None:
        return DEFAULT_REL_TOL
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not 0.0 < value < math.inf:
        raise ValueError(f"PEPLIFT_TOL must be a positive finite number, got {raw!r}")
    return value
