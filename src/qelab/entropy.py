"""Entropy functionals: von Neumann, relative, Renyi-relative, and CMI.

Everything is in nats.  Relative entropies are evaluated on supports:
S(rho || sigma) is finite exactly when supp(rho) is contained in supp(sigma),
which is decided where sigma has a kernel by the leak norm ||(1 - P_sigma) rho (1 - P_sigma)||_inf
(max_sv_within).  Every functional also takes (n, d, d) stacks, one trial per row, and
returns an (n,) array (a stacked operator for exp_log_combination) whose rows carry the
bits of their own 2-D calls.  exp_log_combination builds the paper's exp-log references, such as
exp(log rho_AB - log rho_B + log rho_BC), from (sign, state, part) terms.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import BadAlpha, DimMismatch, SingularTerm, ZeroOverlap
from .linalg import (
    Hermitian,
    as_hermitian,
    each,
    embed,
    herm_eig,
    hermitize,
    matrix_exp,
    matrix_fn,
    matrix_log,
    matrix_power,
    matrix_sqrt,
    max_sv_within,
    per_matrix,
    psd_support,
    real_trace,
    row_indices,
    spectrum_of,
    support_projector,
)
from .states import (
    AB,
    B,
    BC,
    DensityMatrix,
    as_matrix,
    capped,
    grids,
    require_tripartite,
)
from .tolerances import SUPPORT_LEAK_TOL


def von_neumann(rho: Hermitian | np.ndarray) -> float | np.ndarray:
    """S(rho) = -Tr rho log rho over the support eigenvalues (psd_support) of a PSD rho; a
    Hermitian operand, checked and hermitized when it was built, is not checked again."""
    vals = np.linalg.eigvalsh(as_hermitian(rho))
    support = psd_support(vals)
    logs = np.log(np.where(support, vals, 1.0))
    s = np.asarray(-(vals * logs).sum(axis=-1))
    for row in row_indices(~support.all(axis=-1)):  # a partial support sums its own eigenvalues
        kept = vals[row][support[row]]
        s[row] = -np.sum(kept * np.log(kept))
    # Clamp roundoff on (near-)pure states; S is nonnegative for trace <= 1.
    s[(-1e-12 < s) & (s < 0.0)] = 0.0
    return per_matrix(s)


def relative_entropy(
    rho: Hermitian | np.ndarray,
    sigma: Hermitian | np.ndarray,
) -> float | np.ndarray:
    """Umegaki relative entropy S(rho || sigma) = Tr rho (log rho - log sigma).

    Returns math.inf when supp(rho) leaks out of supp(sigma).  The second argument may be
    any PSD operator (subnormalized references and exp-log combination surrogates are both
    used by the checkers); positivity of the value is only guaranteed when Tr sigma <= 1.
    Only a row whose sigma has a kernel (psd_support) takes the leak test: full support holds
    any supp(rho), and for ||rho|| <= 1, as every caller passes, ||off rho off|| = O((d u)^2).
    """
    r = as_matrix(rho)
    s = as_matrix(sigma)
    if r.shape != s.shape:
        raise DimMismatch(f"shape mismatch {r.shape} vs {s.shape}")
    s_eig = spectrum_of(sigma)
    inside = np.asarray(s_eig.support.all(axis=-1))
    if (kernel := ~inside).any():  # the rows whose sigma has a kernel; 2-D as a stack of one
        off = np.eye(s.shape[-1]) - support_projector(s_eig)[kernel]
        inside[kernel] = max_sv_within(off @ r[kernel] @ off, SUPPORT_LEAK_TOL, strict=True)
    log_r = matrix_log(rho, support_only=True)
    log_s = matrix_log(s_eig, support_only=True)
    return per_matrix(np.where(inside, real_trace(r @ (log_r - log_s)), math.inf))


def require_alpha_window(alphas: float | Sequence[float]) -> None:
    """BadAlpha unless each order of alphas (one, or a grid) lies strictly inside (0, 1), the
    window of renyi and of the alpha-compressions; a NaN lies outside it."""
    for a in np.atleast_1d(alphas):
        if not 0.0 < a < 1.0:
            raise BadAlpha(f"alpha must lie strictly between 0 and 1, got {a}")


def renyi(
    alpha: float | Sequence[float],
    rho: Hermitian | np.ndarray,
    sigma: Hermitian | np.ndarray,
) -> float | np.ndarray | list:
    """Petz-Renyi relative entropy (log Tr rho^alpha sigma^(1-alpha)) / (alpha - 1).

    Only the concave window 0 < alpha < 1 is accepted; there the trace
    functional is finite for any pair, and the value is infinite exactly when
    the supports are orthogonal enough that the trace vanishes.  A grid of orders
    gives the list of their values, from one power stack per block (states.grids).
    """
    require_alpha_window(alpha)
    r_eig, s_eig = spectrum_of(rho), spectrum_of(sigma)
    values = []
    for a in grids(np.atleast_1d(alpha), r_eig.eigenvalues.shape[:-1], r_eig.eigenvalues.shape[-1]):
        overlaps = real_trace(matrix_power(r_eig, a) @ matrix_power(s_eig, 1.0 - a))
        values += [each(lambda o: math.inf if o <= 0.0 else math.log(o) / (p - 1.0), overlap)
                   for p, overlap in zip(a.ravel().tolist(), overlaps)]
    return values if np.ndim(alpha) else values[0]


def overlap_lower_bound(
    rho: Hermitian | np.ndarray,
    sigma: Hermitian | np.ndarray,
) -> float | np.ndarray:
    """The root-overlap bound -2 log Tr sqrt(rho) sqrt(sigma).

    This quantity sits between the relative entropy and the squared
    Hilbert-Schmidt distance of the square roots whenever Tr sigma <= 1.
    """
    overlap = real_trace(matrix_sqrt(rho) @ matrix_sqrt(sigma))
    if np.any(np.asarray(overlap) <= 0.0):
        raise ZeroOverlap("Tr sqrt(rho) sqrt(sigma) is not positive")
    return each(lambda o: -2.0 * math.log(o), overlap)


def cmi(state: DensityMatrix) -> float | np.ndarray:
    """Conditional mutual information I(A:C|B) = S(AB) + S(BC) - S(ABC) - S(B)."""
    require_tripartite(state)
    s_ab, s_bc, s_b = (von_neumann(state.reduced(part)) for part in (AB, BC, B))
    return s_ab + s_bc - von_neumann(state) - s_b


def exp_log_combination(terms: Sequence[tuple[float, DensityMatrix, Sequence[int]]]) -> np.ndarray:
    """exp( sum_i sign_i log X_i ) for full-rank marginals X_i, the logs added in term order.

    Each term is (sign, state, part): X_i is the marginal of a DensityMatrix (or stack) on the
    subsystems part, embedded on that state's dims (log(X (x) 1) = log X (x) 1, so embedding
    before the log keeps every term on one common space).
    Raises SingularTerm when any term (of any row of a stack) is singular at the
    rank cutoff, and NotPSD when one is not PSD.
    """
    if not terms:
        raise SingularTerm("need at least one term")
    mats = [embed(state.marginal(part), state.dims, part) for _, state, part in terms]
    acc = 0.0
    for block in capped(range(len(mats)), mats[0].size):  # the terms decompose as one stack
        eig = herm_eig(np.stack([mats[i] for i in block]))
        for i, vals in zip(block, eig.eigenvalues):
            singular = row_indices(~psd_support(vals)[..., 0])
            if singular:
                raise SingularTerm(
                    f"term {i} is singular (min eigenvalue {vals[singular[0]][0]:.3e}); "
                    "exp-log combinations need full-rank terms"
                )
        for i, log in zip(block, matrix_fn(eig, np.log)):  # each term checked PSD above
            acc = acc + float(terms[i][0]) * log
    return matrix_exp(hermitize(acc))
