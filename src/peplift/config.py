"""Global numeric tolerances shared by the verifiers."""

# Relative tolerance for identity residuals (coefficient matching).
REL_TOL = 1e-9

# Entrywise nonnegativity slack for multiplier checks, relative to scale.
MU_TOL = 1e-10

# Eigenvalue slack for positive-semidefiniteness, relative to spectral norm.
PSD_TOL = 1e-9

# Laplacian / diagonal-dominance slack, relative to the largest entry.
LAPLACIAN_TOL = 1e-10
