"""Numerical tolerances shared across the package.

All entropies are in nats and all tolerances are absolute unless stated
otherwise.  These values are part of the package contract: tests and the
command-line harness rely on them.
"""

from __future__ import annotations

# Relative eigenvalue cutoff: eigenvalues at or below RANK_CUTOFF * max_eigenvalue
# are off the support (linalg.psd_support, the one support rule).
RANK_CUTOFF = 1e-12

# Hermiticity check: ||H - H^dag||_inf <= TOL_HERM * ||H||_inf.
TOL_HERM = 1e-10

# Eigendecomposition reconstruction residual, relative to ||H||_inf.
TOL_RECON = 1e-10

# Positive semidefiniteness: eigenvalues >= -TOL_PSD * max(1, max_eigenvalue).
TOL_PSD = 1e-10

# Trace normalisation: |Tr rho - 1| <= TOL_TRACE (states), Tr <= 1 + TOL_TRACE
# (subnormalized operators).
TOL_TRACE = 1e-10

# Absolute slack tolerance for inequality checks.
TOL_INEQ = 1e-8

# Absolute residual tolerance for identity checks.
TOL_IDENTITY = 1e-8

# Default mixing weight for full-rank regularization in the random harness.
DEFAULT_EPS = 1e-6

# Inner regularization used by the transpose-channel recovery map when the
# pushed-forward reference operator is singular.
PETZ_EPS = 1e-10

# Support inclusion test: ||(1 - P_sigma) rho (1 - P_sigma)||_inf below this
# means supp(rho) is contained in supp(sigma).
SUPPORT_LEAK_TOL = 1e-9
