"""A 40-digit oracle for the core entropy formulas, for tests only.

Each function reads the entries of float64 matrices exactly and evaluates the formula in
mpmath at DIGITS significant digits, through mp.eighe and scalar logarithms:

* von_neumann, S(rho) = -sum_i l_i log l_i over the eigenvalues l_i of rho;
* relative_entropy, S(rho||sigma) = sum_i l_i log l_i - sum_j <s_j|rho|s_j> log m_j over the
  eigenpairs (m_j, s_j) of sigma;
* cmi, I(A:C|B) = S(AB) + S(BC) - S(B) - S(ABC), from exact partial traces;
* commuting_unital, the values of the unital checks for diagonal states and a channel of
  scaled permutations, from their scalar forms, which also hold for the instance that
  commuting_instance rotates by a unitary U.

A matrix is taken as its Hermitian part, as qelab's functionals take it.  Eigenvalues must
be positive: the oracle is meant for full-rank inputs, such as regularized states.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import mpmath
import numpy as np

DIGITS = 40


def _hermitian(a) -> mpmath.matrix:
    m = mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in np.asarray(a)])
    return (m + m.H) / 2


def _log_terms(m: mpmath.matrix):
    """(eigenvalues, eigenvectors, their logs) of a Hermitian mp matrix; every eigenvalue > 0."""
    vals, vecs = mpmath.eighe(m)
    if min(vals) <= 0:
        raise ValueError(f"the oracle needs a positive definite matrix, got {min(vals)}")
    return vals, vecs, [mpmath.log(v) for v in vals]


def _entropy(m: mpmath.matrix) -> mpmath.mpf:
    vals, _, logs = _log_terms(m)
    return -mpmath.fsum(v * lv for v, lv in zip(vals, logs))


def von_neumann(rho) -> mpmath.mpf:
    """S(rho) at DIGITS digits."""
    with mpmath.workdps(DIGITS):
        return _entropy(_hermitian(rho))


def relative_entropy(rho, sigma) -> mpmath.mpf:
    """S(rho||sigma) = Tr rho log rho - Tr rho log sigma at DIGITS digits."""
    with mpmath.workdps(DIGITS):
        r = _hermitian(rho)
        s_vals, s_vecs, s_logs = _log_terms(_hermitian(sigma))
        weights = s_vecs.H * r * s_vecs  # its diagonal holds <s_j|rho|s_j>
        cross = mpmath.fsum(mpmath.re(weights[j, j]) * s_logs[j] for j in range(len(s_vals)))
        return -_entropy(r) - cross


def _marginal(m: mpmath.matrix, dims: Sequence[int], keep: Sequence[int]) -> mpmath.matrix:
    """The partial trace of m on dims over every subsystem not in keep, summed exactly."""
    kept = list(itertools.product(*(range(dims[k]) for k in keep)))
    at = {index: i for i, index in enumerate(kept)}
    basis = list(itertools.product(*(range(d) for d in dims)))
    traced = [k for k in range(len(dims)) if k not in keep]
    out = mpmath.matrix(len(kept))
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            if all(a[k] == b[k] for k in traced):
                out[at[tuple(a[k] for k in keep)], at[tuple(b[k] for k in keep)]] += m[i, j]
    return out


def cmi(rho, dims: Sequence[int]) -> mpmath.mpf:
    """I(A:C|B) of a state on dims = (dA, dB, dC) at DIGITS digits."""
    with mpmath.workdps(DIGITS):
        m = _hermitian(rho)
        s_ab, s_bc, s_b = (_entropy(_marginal(m, dims, keep)) for keep in ((0, 1), (1, 2), (1,)))
        return s_ab + s_bc - s_b - _entropy(m)


def commuting_instance(p, q, scales, perms, u=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The float64 matrices rho = U diag(p) U^dag and sigma = U diag(q) U^dag and the stack of
    Kraus operators s_i U P_i U^dag, where P_i sends e_j to e_{perms[i][j]}; U = 1, and no
    product is formed, when u is None."""
    d = len(p)
    rho, sigma = np.diag(p).astype(complex), np.diag(q).astype(complex)
    kraus = np.zeros((len(scales), d, d), dtype=complex)
    for k, s, perm in zip(kraus, scales, perms):
        k[np.asarray(perm), np.arange(d)] = s
    if u is None:
        return rho, sigma, kraus
    u_dag = u.conj().T
    return u @ rho @ u_dag, u @ sigma @ u_dag, u @ kraus @ u_dag


def commuting_unital(p, q, scales, perms) -> tuple[mpmath.mpf, mpmath.mpf, mpmath.mpf]:
    """(Tr exp(log sigma + Phi^*(log Phi rho) - Phi^*(log Phi sigma)), S(rho||sigma),
    S(Phi rho||Phi sigma)) at DIGITS digits, for rho = diag(p), sigma = diag(q) and the channel
    whose Kraus operators are s_i P_i, where P_i sends e_j to e_{perms[i][j]}.

    Every operator is diagonal: on diagonals Phi is T = sum_i s_i^2 P_i and Phi^* is T^T, so
    the trace is sum_j q_j exp(T^T(log Tp - log Tq))_j.  The weights s_i^2 are those of the
    float64 scales, squared exactly.  The values are those of commuting_instance for any
    unitary U as well: Phi then maps U X U^dag to U Phi_1(X) U^dag, for Phi_1 the channel at
    U = 1, and Phi^* likewise, and every value is invariant under that conjugation.
    """
    with mpmath.workdps(DIGITS):
        p, q = ([mpmath.mpf(float(x)) for x in v] for v in (p, q))
        weights = [mpmath.mpf(float(s)) ** 2 for s in scales]
        perms = [[int(k) for k in perm] for perm in perms]

        def push(x):  # T x
            out = [mpmath.mpf(0)] * len(x)
            for w, perm in zip(weights, perms):
                for j, k in enumerate(perm):
                    out[k] += w * x[j]
            return out

        def relent(a, b):
            return mpmath.fsum(x * (mpmath.log(x) - mpmath.log(y)) for x, y in zip(a, b))

        tp, tq = push(p), push(q)
        gap = [mpmath.log(a) - mpmath.log(b) for a, b in zip(tp, tq)]
        pulled = [mpmath.fsum(w * gap[perm[j]] for w, perm in zip(weights, perms))
                  for j in range(len(p))]  # T^T gap
        trace = mpmath.fsum(b * mpmath.exp(e) for b, e in zip(q, pulled))
        return trace, relent(p, q), relent(tp, tq)
