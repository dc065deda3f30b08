"""float64 entropies against the 40-digit oracle, within first-order rounding bars.

With u = 2^-53, d the dimension and l_min the smallest eigenvalue, the bars are
  S(rho||sigma): d u (kappa(sigma) + d (|log l_min(rho)| + 1) + |log l_min(sigma)|),
  S(rho):        d u d (|log l_min(rho)| + 1),
  I(A:C|B):      the sum of the bars of S(AB), S(BC), S(B) and S(ABC),
  D_a(rho||sigma), 0 < a < 1, and the root-overlap bound (a = 1/2):
                 d u (a d^a l_min(rho)^(a-1) + (1-a) d^(1-a) l_min(sigma)^(-a) + 2 d) / ((1-a) Q_a),
  S = exp(H), H = sum_i sign_i log X_i, in the spectral norm:
                 d u (sum_i kappa(X_i) + ||H||) ||S||,
from the backward stability of eigh and the Lipschitz constants of log, t log t, t^a and exp on
the spectrum.  A bar that does not hold is a finding about the bar or the float64 formula: it is
not widened to pass.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest

import oracle
from qelab import checks
from qelab.channels import KrausChannel
from qelab.checks import (
    DEFAULT_DW_ALPHAS,
    DEFAULT_RENYI_ALPHAS,
    DEFAULT_SBW_ALPHAS,
    check_bsw_identity,
    check_overlap_chain,
    check_ptrace_strengthening,
    check_renyi_monotonicity,
    check_sbw_limit,
    check_ssa_strengthened,
    check_stronger_monotonicity,
    check_unital_trace_bound,
    dw_alpha_profile,
)
from qelab.entropy import cmi, overlap_lower_bound, relative_entropy, renyi, von_neumann
from qelab.linalg import embed
from qelab.states import (
    AB,
    B,
    BC,
    DensityMatrix,
    SubnormalizedOperator,
    random_density,
    random_unitary,
    regularize,
)

U = 2.0**-53
ROOT_LINKS = ("overlap_bound", "sqrt_hs_sq", "quarter_td_sq")  # the links after S in a chain
DIMS = (2, 2, 2)
# (rank, eps) of the 12 fixed d = 8 pairs: three each of Wishart, rank-2 and rank-1 draws
# regularized at eps 1e-6, and three rank-1 draws at eps 1e-10 (a valid --eps), where the
# rounding of S(rho||sigma) reaches 1e-6, far above TOL_INEQ, and still stays within its bar.
CASES = [(rank, eps) for rank, eps in [(None, 1e-6), (2, 1e-6), (1, 1e-6), (1, 1e-10)]
         for _ in range(3)]


def _pair(case: int) -> tuple[DensityMatrix, DensityMatrix]:
    rank, eps = CASES[case]
    rng = np.random.default_rng([2027, case])
    return tuple(regularize(random_density(8, rng, rank=rank), eps, DIMS) for _ in range(2))


def _spectrum(mat: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(mat)


def _entropy_bar(mat: np.ndarray) -> float:
    vals = _spectrum(mat)
    d = len(vals)
    return d * U * d * (abs(math.log(vals.min())) + 1.0)


def _relent_bar(rho: np.ndarray, sigma: np.ndarray) -> float:
    r, s = _spectrum(rho), _spectrum(sigma)
    d = len(r)
    return d * U * (s.max() / s.min() + d * (abs(math.log(r.min())) + 1.0)
                    + abs(math.log(s.min())))


@pytest.mark.parametrize("case", range(len(CASES)),
                         ids=[f"rank{r or 'full'}-eps{e:g}-{i % 3}" for i, (r, e) in enumerate(CASES)])
def test_float64_entropies_stay_within_their_bars(case):
    rho, sigma = _pair(case)
    errors = {
        "relative_entropy": (
            abs(relative_entropy(rho, sigma) - float(oracle.relative_entropy(rho.mat, sigma.mat))),
            _relent_bar(rho.mat, sigma.mat),
        ),
        "von_neumann": (
            abs(von_neumann(rho) - float(oracle.von_neumann(rho.mat))),
            _entropy_bar(rho.mat),
        ),
        "cmi": (
            abs(cmi(rho) - float(oracle.cmi(rho.mat, DIMS))),
            sum(_entropy_bar(m) for m in (rho.marginal(AB), rho.marginal(BC), rho.marginal(B),
                                          rho.mat)),
        ),
    }
    beyond = {name: (err, bar) for name, (err, bar) in errors.items() if not err <= bar}
    assert not beyond, f"error above its bar (error, bar): {beyond}"


def _renyi_bar(alpha: float, rho: np.ndarray, sigma: np.ndarray, overlap: float) -> float:
    # eigh's backward error E, ||E|| <= d u, moves rho^a by at most a l_min^(a-1) ||E|| (the
    # largest divided difference of t^a on the spectrum), and |Tr X sigma^(1-a)| <= ||X|| d^a
    # since Tr sigma^(1-a) <= d^a; likewise for sigma^(1-a).  The term 2 d bounds the rounding
    # of the two reconstructions and of the product, each at most d u times a trace <= d.
    # Q_a's relative error is then D_a's absolute error times (1 - a).
    r, s = _spectrum(rho), _spectrum(sigma)
    d = len(r)
    first = (alpha * d**alpha * r.min() ** (alpha - 1.0)
             + (1.0 - alpha) * d ** (1.0 - alpha) * s.min() ** -alpha + 2.0 * d)
    return d * U * first / ((1.0 - alpha) * overlap)


RENYI_ALPHAS = (0.1, 0.5, 0.9)


@pytest.mark.parametrize("case", range(len(CASES)),
                         ids=[f"rank{r or 'full'}-eps{e:g}-{i % 3}" for i, (r, e) in enumerate(CASES)])
def test_float64_renyi_and_root_overlap_stay_within_their_bars(case):
    rho, sigma = _pair(case)
    got = dict(zip(RENYI_ALPHAS, renyi(RENYI_ALPHAS, rho, sigma)))
    want = dict(zip(RENYI_ALPHAS, oracle.renyi(RENYI_ALPHAS, rho.mat, sigma.mat)))
    got["overlap"], want["overlap"] = (overlap_lower_bound(rho, sigma),
                                       oracle.root_overlap_bound(rho.mat, sigma.mat))
    errors = {}
    for key, exact in want.items():
        alpha = 0.5 if key == "overlap" else key
        overlap = math.exp(float(exact) * (alpha - 1.0))  # Q_a from D_a = log Q_a / (a - 1)
        errors[key] = (abs(got[key] - float(exact)), _renyi_bar(alpha, rho.mat, sigma.mat, overlap))
    beyond = {key: (err, bar) for key, (err, bar) in errors.items() if not err <= bar}
    assert not beyond, f"error above its bar (error, bar): {beyond}"


def _exp_log_bar(terms, exact: np.ndarray) -> float:
    # Each X_i's eigh has backward error E, ||E|| <= d u ||X_i||, which moves log X_i by at most
    # ||E|| / l_min(X_i) <= d u kappa(X_i), the largest divided difference of log on the
    # spectrum.  Reconstructing and adding the logs rounds by d u ||H||, as does the backward
    # error of eigh of H, and exp moves each by at most its largest divided difference on the
    # spectrum of H, ||S||.
    dims = terms[0][1].dims
    h, kappa = 0.0, 0.0
    for sign, state, part in terms:
        vals, vecs = np.linalg.eigh(state.marginal(part))
        h = h + sign * embed((vecs * np.log(vals)) @ vecs.conj().T, dims, part)
        kappa += vals.max() / vals.min()
    return len(exact) * U * (kappa + np.linalg.norm(h, 2)) * np.linalg.norm(exact, 2)


def _exp_log_references(case: int) -> dict:
    """{name: (checker, its states, the paper's terms of its exp-log reference)} for the SSA
    surrogate, the BSW reference of four distinct states and the ptrace-strengthening surrogate
    (on the split 2 x 4), from the fixed pairs case and case + 1."""
    (rho, sigma), (tau, omega) = _pair(case), _pair(case + 1)
    rho_ab, sigma_ab = (DensityMatrix(st, (2, 4)) for st in (rho, sigma))
    return {
        "ssa": (check_ssa_strengthened, [rho], [(1, rho, AB), (-1, rho, B), (1, rho, BC)]),
        "bsw": (check_bsw_identity, [rho, sigma, tau, omega],
                [(1, sigma, AB), (1, tau, BC), (-1, omega, B)]),
        "ptrace": (check_ptrace_strengthening, [rho_ab, sigma_ab],
                   [(1, sigma_ab, (0, 1)), (-1, sigma_ab, (0,)), (1, rho_ab, (0,))]),
    }


@pytest.mark.parametrize("case", [0, 3, 6, 9], ids=["full", "rank2", "rank1", "rank1-eps1e-10"])
def test_exp_log_references_stay_within_their_bars(case, monkeypatch):
    # Each checker's reference, as exp_log_combination makes it, against the paper's terms at
    # 40 digits: a term with the wrong sign or part in a checker moves its reference by O(1).
    made = []
    real = checks.exp_log_combination
    monkeypatch.setattr(checks, "exp_log_combination", lambda terms: made.append(real(terms))
                        or made[-1])
    errors = {}
    for name, (checker, states, terms) in _exp_log_references(case).items():
        made.clear()
        checker(*states)
        exact = oracle.exp_log([(sign, st.mat, part) for sign, st, part in terms], terms[0][1].dims)
        exact = np.array(exact.tolist(), dtype=complex)
        [got] = made
        errors[name] = (np.linalg.norm(got - exact, 2), _exp_log_bar(terms, exact))
    print(f"exp-log case {case}: largest error/bar", max(err / bar for err, bar in errors.values()))
    beyond = {name: (err, bar) for name, (err, bar) in errors.items() if not err <= bar}
    assert not beyond, f"error above its bar (error, bar): {beyond}"


def _chain_state(dims, seed: int, haar: bool) -> DensityMatrix:
    """A classical chain p(a) p(b|a) p(c|b) with entries drawn in [0.5, 1.5] and normalized, on
    dims, rotated by Haar U_A (x) U_B (x) U_C when haar."""
    rng = np.random.default_rng(seed)
    d_a, d_b, d_c = dims
    p_a = rng.uniform(0.5, 1.5, d_a)
    p_b_a, p_c_b = rng.uniform(0.5, 1.5, (d_a, d_b)), rng.uniform(0.5, 1.5, (d_b, d_c))
    us = [random_unitary(k, rng) for k in dims] if haar else None
    mat = oracle.markov_chain_instance(p_a / p_a.sum(), p_b_a / p_b_a.sum(1, keepdims=True),
                                       p_c_b / p_c_b.sum(1, keepdims=True), us)
    return DensityMatrix(mat, dims)


@pytest.mark.parametrize("dims", [(2, 2, 2), (4, 4, 4)], ids=["2x2x2", "4x4x4"])
@pytest.mark.parametrize("haar", [False, True], ids=["diagonal", "haar"])
def test_a_classical_markov_chain_saturates_every_link_of_the_ssa_chain(dims, haar):
    # The paper's equality case: on a Markov chain I(A:C|B) = 0 and the surrogate
    # exp(log rho_AB - log rho_B + log rho_BC) is rho, so the Pinsker-like lower bound on the CMI
    # is tight and every link of the chain is 0 (Tr S = 1).  The CMI's bar is the sum of the four
    # entropy bars.  The surrogate's is the 8 d u (kappa + L) of the Haar unital check, kappa the
    # largest condition number and L the largest |log l_min| of rho, rho_AB, rho_B and rho_BC:
    # each marginal's log moves by d u kappa, the sum of logs adds d u L, and the exponent's
    # error is Tr S's relative error.  The overlap link is -(Tr S - 1) to first order, and the
    # two squared links are second order.
    state = _chain_state(dims, 2040 + dims[0] + 10 * haar, haar)
    spectra = [_spectrum(m) for m in (state.mat, state.marginal(AB), state.marginal(B),
                                      state.marginal(BC))]
    kappa = max(s.max() / s.min() for s in spectra)
    log_max = max(abs(math.log(s.min())) for s in spectra)
    surrogate_bar = 8 * state.dim * U * (kappa + log_max)
    cmi_bar = sum(_entropy_bar(m) for m in (state.mat, state.marginal(AB), state.marginal(B),
                                            state.marginal(BC)))
    result = check_ssa_strengthened(state)
    q = result.quantities
    errors = {"cmi": (abs(q["cmi"]), cmi_bar),
              "trace_surrogate": (abs(q["trace_surrogate"] - 1.0), surrogate_bar)}
    errors.update((link, (abs(q[link]), surrogate_bar))
                  for link in ("overlap_bound", "sqrt_hs_sq", "quarter_td_sq"))
    beyond = {key: (err, bar) for key, (err, bar) in errors.items() if not err <= bar}
    assert not beyond, f"error above its bar (error, bar): {beyond}"
    assert result.passed


def test_the_oracle_matches_closed_forms_on_commuting_states():
    # diagonal states: S(p||q) = sum p log(p/q), and a product state has I(A:C|B) = 0
    p = np.array([0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625, 0.0078125, 0.0078125])
    q = np.full(8, 0.125)
    with mpmath.workdps(oracle.DIGITS):
        relent = mpmath.fsum(mpmath.mpf(a) * mpmath.log(mpmath.mpf(a) / mpmath.mpf(b))
                             for a, b in zip(p, q))
        entropy = -mpmath.fsum(mpmath.mpf(a) * mpmath.log(mpmath.mpf(a)) for a in p)
        assert abs(oracle.relative_entropy(np.diag(p), np.diag(q)) - relent) < mpmath.mpf(1e-35)
        assert abs(oracle.von_neumann(np.diag(p)) - entropy) < mpmath.mpf(1e-35)
    # dyadic entries, so that the float64 Kronecker product is exact
    parts = [np.array([[0.75, 0.125j], [-0.125j, 0.25]]), np.diag([0.625, 0.375]),
             np.diag([0.875, 0.125])]
    product = np.kron(np.kron(parts[0], parts[1]), parts[2])
    assert abs(oracle.cmi(product, DIMS)) < mpmath.mpf(1e-35)


def _commuting_case(d: int, dims, seed: int, haar: bool) -> tuple:
    """(p, q, scales, perms, rho, sigma, channel) for rho = U diag(p) U^dag, sigma =
    U diag(q) U^dag and a unital channel of d scaled permutations s_i U P_i U^dag, with U Haar
    when haar and U = 1 otherwise, p and q drawn in [0.5, 1.5] and normalized."""
    rng = np.random.default_rng(seed)
    p, q = (v / v.sum() for v in rng.uniform(0.5, 1.5, (2, d)))
    weights = rng.uniform(0.5, 1.5, d)
    scales = np.sqrt(weights / weights.sum())
    perms = [rng.permutation(d) for _ in range(d)]
    u = random_unitary(d, rng) if haar else None
    rho_mat, sigma_mat, kraus = oracle.commuting_instance(p, q, scales, perms, u)
    rho, sigma = (DensityMatrix(m, dims) for m in (rho_mat, sigma_mat))
    return p, q, scales, perms, rho, sigma, KrausChannel(list(kraus))


def _unital_errors(d: int, dims, seed: int, haar: bool) -> tuple[list[float], float]:
    """The errors of trace_value, before and after of the two unital checks against
    oracle.commuting_unital on _commuting_case's instance, and the unit d u (kappa + L) of
    their bars, kappa the larger ratio of largest to smallest entry of p and of q and L the
    largest |log| of their entries."""
    p, q, scales, perms, rho, sigma, channel = _commuting_case(d, dims, seed, haar)
    chain = check_stronger_monotonicity(rho, sigma, channel).quantities
    got = (check_unital_trace_bound(rho, sigma, channel).quantities["trace_value"],
           chain["before"], chain["after"])
    want = oracle.commuting_unital(p, q, scales, perms)
    kappa = max(v.max() / v.min() for v in (p, q))
    unit = d * U * (kappa + max(abs(math.log(v.min())) for v in (p, q)))
    return [abs(g - float(w)) for g, w in zip(got, want)], unit


def test_the_unital_checks_at_d64_match_their_commuting_scalar_forms():
    # rho = diag(p), sigma = diag(q) and a unital channel of 64 scaled permutations, so that
    # each 64-term Kraus sum is checked by value: the bar is 4 d u (kappa + L).  T is doubly
    # stochastic, so Tp and Tq lie within the ranges of p and q.  Each Kraus sum of d terms
    # rounds an entry by d u relatively; eigh of a diagonal matrix moves its smallest
    # eigenvalue by d u kappa relatively, and so its log by d u kappa; the d terms of a sum of
    # logs add d u L, and the exponent's error is the trace's relative error.
    errors, unit = _unital_errors(64, None, 2031, haar=False)
    assert max(errors) <= 4 * unit, f"errors {errors} above the bar {4 * unit:.3e}"


@pytest.mark.parametrize("d, dims", [(64, (4, 4, 4)), (8, (2, 2, 2))])
def test_the_unital_checks_match_their_commuting_scalar_forms_in_a_haar_basis(d, dims):
    # The same instance rotated by a Haar U, so that eigh takes its general path and each
    # Kraus product, exact for a permutation of a diagonal matrix, rounds; the channel applies
    # run on the validated states.  The bar doubles to 8 d u (kappa + L): forming U D U^dag and
    # s U P U^dag, and the products K X K^dag, each round by O(d u) relatively, which kappa and
    # L carry to the values as they carry the rounding at U = 1, and eigh's backward error on a
    # full matrix is O(d u) ||X|| where it is exact on a diagonal one.
    errors, unit = _unital_errors(d, dims, 2032, haar=True)
    assert max(errors) <= 8 * unit, f"errors {errors} above the bar {8 * unit:.3e}"


def _alpha_errors(d: int, dims, seed: int, haar: bool) -> dict[str, tuple[float, float]]:
    """{q_<a> or e_<a>: (error, unit of its bar)} of dw_alpha_profile and check_sbw_limit on
    their default grids against oracle.commuting_alpha on _commuting_case's instance.

    With r = Tp / Tq, c_a = q^a T^T r^a is the diagonal whose 1/a power is the compression and
    s = q exp(T^T log r) the surrogate's.  The unit is d u (kappa + L) / a times the value's
    scale: Q_a for q_<a>, max c_a^(1/a) + max s for e_<a>.  kappa is the largest ratio of
    largest to smallest entry of q, Tp, Tq and c_a, the diagonals the check decomposes, and
    L the largest |log| of the entries of p and q; T is doubly stochastic, so Tp and Tq lie
    within their ranges.  Each decomposition moves an eigenvalue by d u kappa relatively, the
    a-th powers carry a times that into c_a, the Kraus sums add d u, the logs of the surrogate
    d u L, and the final power 1/a multiplies c_a's relative error by 1/a.
    """
    p, q, scales, perms, rho, sigma, channel = _commuting_case(d, dims, seed, haar)
    t = np.zeros((d, d))
    for w, perm in zip(np.asarray(scales) ** 2, perms):
        t[np.asarray(perm), np.arange(d)] += w
    tp, tq = t @ p, t @ q
    r = tp / tq
    surrogate = q * np.exp(t.T @ np.log(r))
    log_max = max(abs(math.log(v.min())) for v in (p, q))

    def unit(alpha: float) -> tuple[float, np.ndarray]:  # (d u (kappa + L) / a, c_a^(1/a))
        c = q**alpha * (t.T @ r**alpha)
        kappa = max(v.max() / v.min() for v in (q, tp, tq, c))
        return d * U * (kappa + log_max) / alpha, c ** (1.0 / alpha)

    errors = {}
    got = dw_alpha_profile(rho, sigma, channel).quantities
    traces, _ = oracle.commuting_alpha(p, q, scales, perms, DEFAULT_DW_ALPHAS)
    for alpha, exact in zip(DEFAULT_DW_ALPHAS, traces):
        key = f"q_{alpha!r}"
        errors[key] = (abs(got[key] - float(exact)), unit(alpha)[0] * float(exact))
    got = check_sbw_limit(rho, sigma, channel).quantities
    _, limits = oracle.commuting_alpha(p, q, scales, perms, DEFAULT_SBW_ALPHAS)
    for alpha, exact in zip(DEFAULT_SBW_ALPHAS, limits):
        key = f"e_{alpha!r}"
        per, compression = unit(alpha)
        errors[key] = (abs(got[key] - float(exact)),
                       per * (compression.max() + surrogate.max()))
    return errors


@pytest.mark.parametrize("d, dims", [(64, (4, 4, 4)), (8, (2, 2, 2))], ids=["d64", "d8"])
@pytest.mark.parametrize("haar", [False, True], ids=["diagonal", "haar"])
def test_the_alpha_compressions_match_their_commuting_scalar_forms(d, dims, haar):
    # dw-alpha's Q_a and sbw-limit's e_a on the commuting instances of the unital checks, each
    # within 4 units at U = 1 and 8 in a Haar basis, as the unital checks' bars double there:
    # at d = 64 every Kraus sum has 64 terms and each grid runs in capped blocks.
    errors = _alpha_errors(d, dims, 2033 + d + haar, haar)
    bars = {key: (err, (8 if haar else 4) * unit) for key, (err, unit) in errors.items()}
    beyond = {key: (err, bar) for key, (err, bar) in bars.items() if not err <= bar}
    assert not beyond, f"error above its bar (error, bar): {beyond}"


@pytest.mark.parametrize("d, dims", [(64, (4, 4, 4)), (8, (2, 2, 2))], ids=["d64", "d8"])
@pytest.mark.parametrize("haar", [False, True], ids=["diagonal", "haar"])
def test_renyi_and_the_overlap_chain_match_their_commuting_scalar_forms(d, dims, haar):
    # renyi-monotone's D_a and overlap-chain's links on _commuting_case's pair, with sigma and
    # with a scaled mu sigma, where S shifts by -log mu.  The unit is d u (kappa + L) of the
    # unital checks, and the bars are 4 units at U = 1 and 8 in a Haar basis, as there.  D_a =
    # log Q_a / (a - 1) divides Q_a's relative error, which the unit bounds, by 1 - a.
    p, q, _, _, rho, sigma, _ = _commuting_case(d, dims, 2034 + d + haar, haar)
    unit = d * U * (max(v.max() / v.min() for v in (p, q))
                    + max(abs(math.log(v.min())) for v in (p, q)))
    bar = (8 if haar else 4) * unit
    got = check_renyi_monotonicity(rho, sigma).quantities
    want = oracle.commuting_renyi(p, q, DEFAULT_RENYI_ALPHAS)
    errors = {f"s_{a!r}": (abs(got[f"s_{a!r}"] - float(w)), bar / (1.0 - a))
              for a, w in zip(DEFAULT_RENYI_ALPHAS, want)}
    mu = 0.625
    for scaled, got in (
        ("", check_overlap_chain(rho, sigma).quantities),
        ("mu ", check_overlap_chain(rho, SubnormalizedOperator(mu * sigma.mat),
                                    sigma_base=sigma, mu=mu).quantities),
    ):
        want = oracle.commuting_chain(p, q, mu if scaled else 1.0)
        for link, w in zip(("relative_entropy",) + ROOT_LINKS, want):
            errors[scaled + link] = (abs(got[link] - float(w)), bar)
    print(f"commuting renyi/overlap-chain d={d} haar={haar}: largest error/bar",
          max(err / b for err, b in errors.values()))
    beyond = {key: (err, b) for key, (err, b) in errors.items() if not err <= b}
    assert not beyond, f"error above its bar (error, bar): {beyond}"
