"""A 40-digit oracle for the core entropy formulas, for tests only.

Each function reads the entries of float64 matrices exactly and evaluates the formula in
mpmath at DIGITS significant digits, through mp.eighe and scalar logarithms:

* von_neumann, S(rho) = -sum_i l_i log l_i over the eigenvalues l_i of rho;
* relative_entropy, S(rho||sigma) = sum_i l_i log l_i - sum_j <s_j|rho|s_j> log m_j over the
  eigenpairs (m_j, s_j) of sigma;
* cmi, I(A:C|B) = S(AB) + S(BC) - S(B) - S(ABC), from exact partial traces;
* exp_log, exp(sum_i sign_i log X_i) for marginals X_i, each an exact partial trace whose log
  is taken through mp.eighe and embedded on the full space, and the exp of the sum through
  mp.eighe;
* renyi, the Petz-Renyi D_a(rho||sigma) = log Q_a / (a - 1) for each order a of a grid, with
  Q_a = Tr rho^a sigma^(1-a) = sum_ij l_i^a m_j^(1-a) |<r_i|s_j>|^2 over the eigenpairs
  (l_i, r_i) of rho and (m_j, s_j) of sigma, and root_overlap_bound, -2 log Q_(1/2);
* markov_chain_instance, a classical Markov chain p(a) p(b|a) p(c|b), on which I(A:C|B) = 0
  and the surrogate exp(log rho_AB - log rho_B + log rho_BC) is rho itself, in every basis of
  the form U_A (x) U_B (x) U_C;
* commuting_unital, the values of the unital checks for diagonal states and a channel of
  scaled permutations, from their scalar forms, which also hold for the instance that
  commuting_instance rotates by a unitary U;
* commuting_alpha, on the same instances, dw-alpha's compressed traces Q_a and sbw-limit's
  operator errors e_a from their scalar forms;
* commuting_renyi and commuting_chain, on rho = U diag(p) U^dag and sigma = mu U diag(q) U^dag,
  renyi-monotone's D_a and overlap-chain's links from their scalar forms.
* unital_factor, the relative entropies before and after a channel, the trace of the unital
  surrogate exp(log sigma + Phi^*(log Phi rho) - Phi^*(log Phi sigma)) and its root overlap
  with rho, for any full-rank pair and channel: the factor values of a product instance.

A matrix is taken as its Hermitian part, as qelab's functionals take it.  Eigenvalues must
be positive: the oracle is meant for full-rank inputs, such as regularized states.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

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


def _relent(r: mpmath.matrix, s: mpmath.matrix) -> mpmath.mpf:
    s_vals, s_vecs, s_logs = _log_terms(s)
    weights = s_vecs.H * r * s_vecs  # its diagonal holds <s_j|rho|s_j>
    cross = mpmath.fsum(mpmath.re(weights[j, j]) * s_logs[j] for j in range(len(s_vals)))
    return -_entropy(r) - cross


def relative_entropy(rho, sigma) -> mpmath.mpf:
    """S(rho||sigma) = Tr rho log rho - Tr rho log sigma at DIGITS digits."""
    with mpmath.workdps(DIGITS):
        return _relent(_hermitian(rho), _hermitian(sigma))


def _overlaps(rho, sigma, alphas: Sequence[float]) -> list[mpmath.mpf]:
    """Q_a = Tr rho^a sigma^(1-a) for each order a of alphas, from one eighe of each matrix."""
    r_vals, r_vecs, _ = _log_terms(_hermitian(rho))
    s_vals, s_vecs, _ = _log_terms(_hermitian(sigma))
    cross = r_vecs.H * s_vecs  # entry (i, j) is <r_i|s_j>
    weights = [[abs(cross[i, j]) ** 2 for j in range(len(s_vals))] for i in range(len(r_vals))]
    return [mpmath.fsum(l ** a * m ** (1 - a) * weights[i][j]
                        for i, l in enumerate(r_vals) for j, m in enumerate(s_vals))
            for a in (mpmath.mpf(float(a)) for a in alphas)]


def renyi(alphas: Sequence[float], rho, sigma) -> list[mpmath.mpf]:
    """D_a(rho||sigma) = log Tr rho^a sigma^(1-a) / (a - 1) at DIGITS digits, for each order a
    of alphas, each read exactly as a float64."""
    with mpmath.workdps(DIGITS):
        return [mpmath.log(q) / (mpmath.mpf(float(a)) - 1)
                for a, q in zip(alphas, _overlaps(rho, sigma, alphas))]


def root_overlap_bound(rho, sigma) -> mpmath.mpf:
    """-2 log Tr sqrt(rho) sqrt(sigma) at DIGITS digits."""
    with mpmath.workdps(DIGITS):
        return -2 * mpmath.log(_overlaps(rho, sigma, [0.5])[0])


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


def _embedded(m: mpmath.matrix, dims: Sequence[int], part: Sequence[int]) -> mpmath.matrix:
    """m, acting on the subsystems in part, tensored with the identity on the others."""
    at = {index: i for i, index in enumerate(itertools.product(*(range(dims[k]) for k in part)))}
    basis = list(itertools.product(*(range(d) for d in dims)))
    rest = [k for k in range(len(dims)) if k not in part]
    out = mpmath.matrix(len(basis))
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            if all(a[k] == b[k] for k in rest):
                out[i, j] = m[at[tuple(a[k] for k in part)], at[tuple(b[k] for k in part)]]
    return out


def exp_log(terms, dims: Sequence[int]) -> mpmath.matrix:
    """exp(sum_i sign_i log X_i) at DIGITS digits, for terms (sign, rho, part): X_i is the exact
    partial trace of the float64 matrix rho on dims onto the subsystems in part, and its log,
    taken through mp.eighe, is embedded on the full space; the exp of the sum is taken through
    mp.eighe of its Hermitian part."""
    with mpmath.workdps(DIGITS):
        total = mpmath.matrix(int(np.prod(dims)))
        for sign, rho, part in terms:
            _, vecs, logs = _log_terms(_marginal(_hermitian(rho), dims, part))
            total += float(sign) * _embedded(vecs * mpmath.diag(logs) * vecs.H, dims, part)
        vals, vecs = mpmath.eighe((total + total.H) / 2)
        return vecs * mpmath.diag([mpmath.exp(v) for v in vals]) * vecs.H


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


def markov_chain_instance(p_a, p_b_a, p_c_b, us=None) -> np.ndarray:
    """The float64 matrix of the classical chain diag(p(a) p(b|a) p(c|b)), a slowest, from the
    vector p_a and the row-stochastic matrices p_b_a (row a) and p_c_b (row b), rotated by
    U_A (x) U_B (x) U_C for us = (U_A, U_B, U_C); diagonal when us is None."""
    p = (np.asarray(p_a)[:, None, None] * np.asarray(p_b_a)[:, :, None]
         * np.asarray(p_c_b)[None, :, :]).ravel()
    mat = np.diag(p).astype(complex)
    if us is None:
        return mat
    u = np.kron(np.kron(us[0], us[1]), us[2])
    return u @ mat @ u.conj().T


def _on_diagonals(p, q, scales, perms) -> tuple[list, list, Callable, Callable]:
    """(p, q, push, pull) at the current precision: the entries of the float64 vectors p and
    q read exactly, and the maps x -> T x and x -> T^T x for T = sum_i s_i^2 P_i, where P_i
    sends e_j to e_{perms[i][j]}, with the weights s_i^2 of the float64 scales squared
    exactly.  On diagonals, the channel with Kraus operators s_i P_i is T and its dual T^T."""
    p, q = ([mpmath.mpf(float(x)) for x in v] for v in (p, q))
    weights = [mpmath.mpf(float(s)) ** 2 for s in scales]
    perms = [[int(k) for k in perm] for perm in perms]

    def push(x):  # T x
        out = [mpmath.mpf(0)] * len(x)
        for w, perm in zip(weights, perms):
            for j, k in enumerate(perm):
                out[k] += w * x[j]
        return out

    def pull(x):  # T^T x
        return [mpmath.fsum(w * x[perm[j]] for w, perm in zip(weights, perms))
                for j in range(len(x))]

    return p, q, push, pull


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
        p, q, push, pull = _on_diagonals(p, q, scales, perms)

        def relent(a, b):
            return mpmath.fsum(x * (mpmath.log(x) - mpmath.log(y)) for x, y in zip(a, b))

        tp, tq = push(p), push(q)
        pulled = pull([mpmath.log(a) - mpmath.log(b) for a, b in zip(tp, tq)])
        trace = mpmath.fsum(b * mpmath.exp(e) for b, e in zip(q, pulled))
        return trace, relent(p, q), relent(tp, tq)


def commuting_alpha(p, q, scales, perms, alphas: Sequence[float]) -> tuple[list, list]:
    """([Q_a for each a], [e_a for each a]) at DIGITS digits for the instance of
    commuting_unital: Q_a is the trace of the alpha-compression
    {sigma^(a/2) Phi^*(Phi(sigma)^(-a/2) Phi(rho)^a Phi(sigma)^(-a/2)) sigma^(a/2)}^(1/a) and e_a
    its largest singular-value distance to the surrogate exp(log sigma + Phi^*(log Phi rho) -
    Phi^*(log Phi sigma)).

    Every operator is diagonal, so with r = Tp / Tq the compression is
    diag((q_i^a (T^T r^a)_i)^(1/a)) and the surrogate diag(q_i exp((T^T log r)_i)):
    Q_a = sum_i (q_i^a (T^T r^a)_i)^(1/a) and e_a = max_i |(q_i^a (T^T r^a)_i)^(1/a) -
    q_i exp((T^T log r)_i)|, in any basis U as commuting_unital's values are.
    """
    with mpmath.workdps(DIGITS):
        p, q, push, pull = _on_diagonals(p, q, scales, perms)
        r = [a / b for a, b in zip(push(p), push(q))]
        surrogate = [b * mpmath.exp(e) for b, e in zip(q, pull([mpmath.log(x) for x in r]))]
        traces, errors = [], []
        for alpha in alphas:
            a = mpmath.mpf(float(alpha))
            compression = [(b**a * x) ** (1 / a) for b, x in zip(q, pull([x**a for x in r]))]
            traces.append(mpmath.fsum(compression))
            errors.append(max(abs(c - s) for c, s in zip(compression, surrogate)))
        return traces, errors


def commuting_renyi(p, q, alphas: Sequence[float]) -> list[mpmath.mpf]:
    """[D_a for each order a of alphas] at DIGITS digits for rho = U diag(p) U^dag and sigma =
    U diag(q) U^dag, any unitary U: D_a = log Q_a / (a - 1), Q_a = sum_i p_i^a q_i^(1-a)."""
    with mpmath.workdps(DIGITS):
        p, q = ([mpmath.mpf(float(x)) for x in v] for v in (p, q))
        return [mpmath.log(mpmath.fsum(x**a * y ** (1 - a) for x, y in zip(p, q))) / (a - 1)
                for a in (mpmath.mpf(float(a)) for a in alphas)]


def commuting_chain(p, q, mu: float = 1.0) -> list[mpmath.mpf]:
    """[S(rho||sigma), -2 log Tr sqrt(rho) sqrt(sigma), ||sqrt(rho) - sqrt(sigma)||_2^2,
    (1/4) ||rho - sigma||_1^2] at DIGITS digits for rho = U diag(p) U^dag and sigma =
    mu U diag(q) U^dag, any unitary U, mu read exactly: with q' = mu q, sum_i p_i log(p_i/q'_i),
    -2 log sum_i sqrt(p_i q'_i), sum_i (sqrt(p_i) - sqrt(q'_i))^2 and (1/4) (sum_i |p_i - q'_i|)^2.
    """
    with mpmath.workdps(DIGITS):
        mu = mpmath.mpf(float(mu))
        p, q = [mpmath.mpf(float(x)) for x in p], [mu * mpmath.mpf(float(x)) for x in q]
        return [mpmath.fsum(x * mpmath.log(x / y) for x, y in zip(p, q)),
                -2 * mpmath.log(mpmath.fsum(mpmath.sqrt(x * y) for x, y in zip(p, q))),
                mpmath.fsum((mpmath.sqrt(x) - mpmath.sqrt(y)) ** 2 for x, y in zip(p, q)),
                mpmath.fsum(abs(x - y) for x, y in zip(p, q)) ** 2 / 4]


def _function(m: mpmath.matrix, f) -> mpmath.matrix:
    """f of the Hermitian part of m, through mp.eighe."""
    vals, vecs = mpmath.eighe((m + m.H) / 2)
    return vecs * mpmath.diag([f(v) for v in vals]) * vecs.H


def unital_factor(rho, sigma, kraus) -> tuple[mpmath.mpf, mpmath.mpf, mpmath.mpf, mpmath.mpf]:
    """(S(rho||sigma), S(Phi rho||Phi sigma), Tr S, Tr sqrt(rho) sqrt(S)) at DIGITS digits for
    the surrogate S = exp(log sigma + Phi^*(log Phi rho) - Phi^*(log Phi sigma)) of the channel
    Phi whose Kraus operators are the float64 matrices kraus, read exactly: Phi and Phi^* are
    exact sums of products, and each function of a matrix goes through mp.eighe.

    On tensor products rho = (x)_k rho_k, sigma = (x)_k sigma_k and Phi = (x)_k Phi_k of trace
    preserving Phi_k, the first two add over the factors and the last two multiply: Phi^* is
    then a product of unital maps, so the exponent is a sum of terms each on its own factor.
    """
    with mpmath.workdps(DIGITS):
        r, s = _hermitian(rho), _hermitian(sigma)
        ks = [mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in k]) for k in kraus]

        def apply(x):
            return sum((k * x * k.H for k in ks[1:]), ks[0] * x * ks[0].H)

        def dual(x):
            return sum((k.H * x * k for k in ks[1:]), ks[0].H * x * ks[0])

        pushed = [(y + y.H) / 2 for y in map(apply, (r, s))]
        logs = [_function(x, _positive_log) for x in [s] + pushed]
        surrogate = _function(logs[0] + dual(logs[1]) - dual(logs[2]), mpmath.exp)
        overlap = _function(r, mpmath.sqrt) * _function(surrogate, mpmath.sqrt)
        trace = mpmath.re(sum(surrogate[i, i] for i in range(surrogate.rows)))
        return (_relent(r, s), _relent(*pushed), trace,
                mpmath.re(sum(overlap[i, i] for i in range(overlap.rows))))


def _positive_log(v: mpmath.mpf) -> mpmath.mpf:
    if v <= 0:
        raise ValueError(f"the oracle needs a positive definite matrix, got {v}")
    return mpmath.log(v)
