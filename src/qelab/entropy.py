"""Entropy functionals: von Neumann, relative, Renyi-relative, and CMI.

Everything is in nats.  Relative entropies are evaluated on supports:
S(rho || sigma) is finite exactly when supp(rho) is contained in supp(sigma),
which is decided by the leak norm ||(1 - P_sigma) rho (1 - P_sigma)||_inf.
Every functional but cmi_relative_entropy_form also takes (n, d, d) stacks,
one trial per row, and returns an (n,) array (a stacked operator for
exp_log_combination) whose rows carry the bits of their own 2-D calls.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import BadAlpha, DimMismatch, SingularTerm, ZeroOverlap
from .linalg import (
    HermitianEigen,
    each,
    embed,
    herm_eig,
    hermitize,
    matrix_exp,
    matrix_log,
    matrix_power,
    matrix_sqrt,
    max_sv,
    per_matrix,
    real_trace,
    row_indices,
    support_projector,
)
from .states import (
    DensityMatrix,
    SubnormalizedOperator,
    as_matrix,
    as_spectrum,
    require_tripartite,
)
from .tolerances import RANK_CUTOFF, SUPPORT_LEAK_TOL


def von_neumann(rho: SubnormalizedOperator | np.ndarray) -> float | np.ndarray:
    """S(rho) = -Tr rho log rho over the support eigenvalues."""
    mat = as_matrix(rho)
    vals = np.linalg.eigvalsh(hermitize(mat))
    support = vals > RANK_CUTOFF * np.maximum(vals[..., -1:], 1e-300)
    logs = np.log(np.where(support, vals, 1.0))
    s = np.asarray(-(vals * logs).sum(axis=-1))
    for row in row_indices(~support.all(axis=-1)):  # a partial support sums its own eigenvalues
        kept = vals[row][support[row]]
        s[row] = -np.sum(kept * np.log(kept))
    # Clamp roundoff on (near-)pure states; S is nonnegative for trace <= 1.
    s[(-1e-12 < s) & (s < 0.0)] = 0.0
    return per_matrix(s)


def relative_entropy(
    rho: SubnormalizedOperator | np.ndarray,
    sigma: SubnormalizedOperator | np.ndarray,
) -> float | np.ndarray:
    """Umegaki relative entropy S(rho || sigma) = Tr rho (log rho - log sigma).

    Returns math.inf when supp(rho) leaks out of supp(sigma).  The
    second argument may be any PSD operator (subnormalized references and
    exp-log combination surrogates are both used by the checkers); positivity
    of the value is only guaranteed when Tr sigma <= 1.
    """
    r = as_matrix(rho)
    s = as_matrix(sigma)
    if r.shape != s.shape:
        raise DimMismatch(f"shape mismatch {r.shape} vs {s.shape}")
    s_eig = as_spectrum(sigma)
    off = np.eye(s.shape[-1]) - support_projector(s_eig)
    inside = np.asarray(max_sv(off @ r @ off)) < SUPPORT_LEAK_TOL
    value = np.full(inside.shape, math.inf)
    if inside.any():  # the logarithms of the rows whose support does not leak
        r_eig = as_spectrum(rho)
        if not inside.all():
            r, r_eig, s_eig = r[inside], _rows(r_eig, inside), _rows(s_eig, inside)
        log_r = matrix_log(r_eig, support_only=True)
        log_s = matrix_log(s_eig, support_only=True)
        value[inside] = real_trace(r @ (log_r - log_s))
    return per_matrix(value)


def _rows(eig: HermitianEigen, flags: np.ndarray) -> HermitianEigen:
    return HermitianEigen(*(part[flags] for part in eig))


def renyi(
    alpha: float,
    rho: SubnormalizedOperator | np.ndarray,
    sigma: SubnormalizedOperator | np.ndarray,
) -> float | np.ndarray:
    """Petz-Renyi relative entropy (log Tr rho^alpha sigma^(1-alpha)) / (alpha - 1).

    Only the concave window 0 < alpha < 1 is accepted; there the trace
    functional is finite for any pair, and the value is infinite exactly when
    the supports are orthogonal enough that the trace vanishes.
    """
    if not 0.0 < alpha < 1.0:
        raise BadAlpha(f"alpha must lie strictly between 0 and 1, got {alpha}")
    r_pow = matrix_power(as_spectrum(rho), alpha)
    s_pow = matrix_power(as_spectrum(sigma), 1.0 - alpha)
    overlap = real_trace(r_pow @ s_pow)
    return each(lambda o: math.inf if o <= 0.0 else math.log(o) / (alpha - 1.0), overlap)


def overlap_lower_bound(
    rho: SubnormalizedOperator | np.ndarray,
    sigma: SubnormalizedOperator | np.ndarray,
) -> float | np.ndarray:
    """The root-overlap bound -2 log Tr sqrt(rho) sqrt(sigma).

    This quantity sits between the relative entropy and the squared
    Hilbert-Schmidt distance of the square roots whenever Tr sigma <= 1.
    """
    overlap = real_trace(matrix_sqrt(as_spectrum(rho)) @ matrix_sqrt(as_spectrum(sigma)))
    if np.any(np.asarray(overlap) <= 0.0):
        raise ZeroOverlap("Tr sqrt(rho) sqrt(sigma) is not positive")
    return each(lambda o: -2.0 * math.log(o), overlap)


def cmi(state: DensityMatrix) -> float | np.ndarray:
    """Conditional mutual information I(A:C|B) = S(AB) + S(BC) - S(ABC) - S(B)."""
    require_tripartite(state)
    s_ab = von_neumann(state.marginal([0, 1]))
    s_bc = von_neumann(state.marginal([1, 2]))
    s_b = von_neumann(state.marginal([1]))
    s_abc = von_neumann(state.mat)
    return s_ab + s_bc - s_abc - s_b


def cmi_relative_entropy_form(state: DensityMatrix) -> float:
    """I(A:C|B) as a difference of two relative entropies.

    Tracing out A is a channel, and with reference rho_AB (x) rho_C the
    monotonicity gap of that channel is exactly the CMI:
    S(rho_ABC || rho_AB (x) rho_C) - S(rho_BC || rho_B (x) rho_C).
    Used as an independent cross-check of the entropy-sum form.
    """
    require_tripartite(state)
    rho = state.mat
    rho_ab = state.marginal([0, 1])
    rho_bc = state.marginal([1, 2])
    rho_b = state.marginal([1])
    rho_c = state.marginal([2])
    full = relative_entropy(rho, np.kron(rho_ab, rho_c))
    reduced = relative_entropy(rho_bc, np.kron(rho_b, rho_c))
    return full - reduced


def exp_log_combination(
    terms: Sequence[tuple[float, np.ndarray]],
    dims: Sequence[int] | None = None,
    supports: Sequence[Sequence[int]] | None = None,
) -> np.ndarray:
    """exp( sum_i sign_i log X_i ) for full-rank PSD terms X_i.

    Each term is a (sign, matrix) pair.  When ``dims``/``supports`` are given,
    term i acts on the subsystems supports[i] and is embedded into the full
    space first (log(X (x) 1) = log X (x) 1, so embedding before or after the
    log agrees; embedding first keeps every term on one common space).
    Raises SingularTerm when any term (of any row of a stack) is singular at the
    rank cutoff.
    """
    if not terms:
        raise SingularTerm("need at least one term")
    acc = 0.0
    for i, (sign, mat) in enumerate(terms):
        mat = np.asarray(mat, dtype=complex)
        if dims is not None:
            where = supports[i] if supports is not None else range(len(dims))
            mat = embed(mat, dims, where)
        eig = herm_eig(mat)
        vals = eig.eigenvalues
        singular = row_indices(vals[..., 0] <= RANK_CUTOFF * np.maximum(vals[..., -1], 1e-300))
        if singular:
            raise SingularTerm(
                f"term {i} is singular (min eigenvalue {vals[singular[0]][0]:.3e}); "
                "exp-log combinations need full-rank terms"
            )
        acc = acc + float(sign) * matrix_log(eig)
    return matrix_exp(hermitize(acc))
