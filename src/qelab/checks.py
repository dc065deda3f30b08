"""Checkers for entropy inequalities, identities, and their refinements.

Each checker evaluates one statement on concrete inputs and returns a
CheckResult; a descending chain is one built by results.chain.  Slack is
always oriented so that nonnegative means "the statement holds with margin";
identity checks store the negated absolute residual.  Tolerances are
absolute and default to TOL_INEQ / TOL_IDENTITY.

The refined monotonicity statements compare a relative-entropy gap against
distances to an exponentiated log-combination surrogate such as
exp(log rho_AB - log rho_B + log rho_BC); the common descending chain

    gap >= -2 log Tr sqrt(rho) sqrt(S) >= ||sqrt(rho)-sqrt(S)||_2^2
        >= (1/4) ||rho - S||_1^2

is shared by several checkers, together with the trace bound Tr S <= 1.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .channels import KrausChannel, PetzMap, ptrace_channel, require_unital, twirl_exact, twirl_mc
from .entropy import (
    cmi,
    exp_log_combination,
    overlap_lower_bound,
    relative_entropy,
    renyi,
    von_neumann,
)
from .errors import BadAlpha, BadConfig, DimMismatch, MarginalMismatch, ZeroOverlap
from .linalg import (
    embed,
    herm_eig,
    hermitize,
    matrix_exp,
    matrix_log,
    matrix_power,
    matrix_sqrt,
    max_sv,
    ptrace,
    real_trace,
    require_hermitian,
    trace_norm,
    unitary_power,
)
from .results import CheckResult, chain
from .states import (
    Decomposed,
    DensityMatrix,
    MultipartiteState,
    SubnormalizedOperator,
    as_matrix,
    as_spectrum,
    require_tripartite,
)
from .tolerances import TOL_IDENTITY, TOL_INEQ, TOL_TRACE

DEFAULT_T_SAMPLES = (0.3, 0.7, 1.1, 1.9)
DEFAULT_TROTTER_NS = (1, 2, 4, 8, 16, 32, 64)
DEFAULT_DW_ALPHAS = (0.9, 0.5, 0.1) + tuple(2.0**-k for k in range(2, 11))
DEFAULT_SBW_ALPHAS = tuple(2.0**-k for k in range(1, 13))
SBW_FINAL_TOL = 1e-4  # the largest operator error check_sbw_limit accepts at the last alpha


def _same_dims(*states: MultipartiteState) -> tuple[int, ...]:
    dims = states[0].dims
    for st in states[1:]:
        if st.dims != dims:
            raise DimMismatch(f"states live on different dims: {st.dims} vs {dims}")
    return dims


def _tri_mats(state: MultipartiteState) -> dict[str, np.ndarray]:
    require_tripartite(state)
    return {
        "abc": state.matrix,
        "ab": state.marginal([0, 1]),
        "b": state.marginal([1]),
        "bc": state.marginal([1, 2]),
    }


def _compressed_product(eig: dict, dims: Sequence[int], p: float) -> np.ndarray:
    """hermitize(rho_AB^(p/2) rho_B^(-p/2) rho_BC^p rho_B^(-p/2) rho_AB^(p/2)) on ABC, from
    the spectra of the three marginals, which every order p shares."""
    ab_pow = embed(matrix_power(eig["ab"], p / 2.0), dims, (0, 1))
    b_neg = embed(matrix_power(eig["b"], -p / 2.0), dims, (1,))
    bc_pow = embed(matrix_power(eig["bc"], p), dims, (1, 2))
    return hermitize(ab_pow @ b_neg @ bc_pow @ b_neg @ ab_pow)


def _petz_recovery(
    m: dict, eig: dict, dims: Sequence[int], keep: str, inv_sqrt_b: np.ndarray
) -> np.ndarray:
    """rho_keep^(1/2) rho_B^(-1/2) rho_other rho_B^(-1/2) rho_keep^(1/2) on ABC, where keep is
    "ab" or "bc", eig[keep] is rho_keep or its spectrum, and inv_sqrt_b is the embedded
    rho_B^(-1/2) that both directions share."""
    other = "bc" if keep == "ab" else "ab"
    supports = {"ab": (0, 1), "bc": (1, 2)}
    outer = embed(matrix_sqrt(eig[keep]), dims, supports[keep])
    return outer @ inv_sqrt_b @ embed(m[other], dims, supports[other]) @ inv_sqrt_b @ outer


def _exp_log_surrogate(ab, b, bc, dims: Sequence[int]) -> np.ndarray:
    """exp(log X_AB - log Y_B + log Z_BC), each marginal embedded on the full space."""
    return exp_log_combination(
        [(1.0, ab), (-1.0, b), (1.0, bc)], dims=dims, supports=[(0, 1), (1,), (1, 2)]
    )


def _matched_surrogate(x, y, z, names: tuple[str, str, str]) -> tuple[np.ndarray, float, float]:
    """exp(log x_AB - log y_B + log z_BC) and the deviations ||x_B - y_B||, ||y_B - z_B||, one
    of which must be within TOL_IDENTITY (else MarginalMismatch naming the states by names)."""
    y_b = y.marginal([1])
    dev_xy = max_sv(x.marginal([1]) - y_b)
    dev_yz = max_sv(y_b - z.marginal([1]))
    if min(dev_xy, dev_yz) > TOL_IDENTITY:
        a, b, c = names
        raise MarginalMismatch(
            f"need {a}_B = {b}_B or {b}_B = {c}_B; deviations are {dev_xy:.3e} and {dev_yz:.3e}"
        )
    surrogate = _exp_log_surrogate(x.marginal([0, 1]), y_b, z.marginal([1, 2]), x.dims)
    return surrogate, dev_xy, dev_yz


def ssa_surrogate(state: MultipartiteState) -> np.ndarray:
    """exp(log rho_AB - log rho_B + log rho_BC) embedded on the full space."""
    m = _tri_mats(state)
    return _exp_log_surrogate(m["ab"], m["b"], m["bc"], state.dims)


def _pushed(rho, sigma, channel: KrausChannel) -> tuple:
    """(spectrum of sigma, Phi(rho) and Phi(sigma) as Decomposed, the dual Phi^*) for
    operators or matrices rho and sigma: what the unital surrogate, every alpha-compression
    and the relative entropy of the images share."""
    img_rho, img_sigma = (channel.apply(as_matrix(x)) for x in (rho, sigma))
    return (
        as_spectrum(sigma),
        Decomposed(img_rho, herm_eig(img_rho)),
        Decomposed(img_sigma, herm_eig(img_sigma)),
        channel.dual(),
    )


def _unital_surrogate(pushed: tuple) -> np.ndarray:
    """exp(log sigma + Phi^*(log Phi rho) - Phi^*(log Phi sigma)) from _pushed."""
    sigma_eig, img_rho, img_sigma, dual = pushed
    combo = matrix_log(sigma_eig) + dual.apply(matrix_log(img_rho.spectrum))
    return matrix_exp(hermitize(combo - dual.apply(matrix_log(img_sigma.spectrum))))


def _root_links(rho, other) -> list[tuple[str, float]]:
    """The overlap, square-root and trace-distance links of the descending chain between
    two operators or matrices."""
    s_rho = matrix_sqrt(as_spectrum(rho))
    s_oth = matrix_sqrt(as_spectrum(other))
    overlap = real_trace(s_rho @ s_oth)
    if overlap <= 0.0:
        raise ZeroOverlap("square-root overlap is not positive")
    return [
        ("overlap_bound", -2.0 * math.log(overlap)),
        ("sqrt_hs_sq", float(np.linalg.norm(s_rho - s_oth) ** 2)),
        ("quarter_td_sq", 0.25 * trace_norm(as_matrix(rho) - as_matrix(other)) ** 2),
    ]


def _sqrt_chain(
    name: str,
    anchor_label: str,
    anchor: float,
    rho: SubnormalizedOperator | np.ndarray,
    surrogate: np.ndarray,
    tol: float,
    quantities: dict[str, float] | None = None,
    trace_bound: bool = True,
) -> CheckResult:
    """The shared descending chain anchored at a relative-entropy quantity."""
    links = [(anchor_label, float(anchor))] + _root_links(rho, surrogate)
    q = dict(quantities or {})
    tr_srg = real_trace(surrogate)
    q["trace_surrogate"] = tr_srg
    extra_ok = (tr_srg <= 1.0 + tol) if trace_bound else True
    return chain(name, links, tol, q, extra_ok)


# ---------------------------------------------------------------------------
# Entropy comparisons
# ---------------------------------------------------------------------------

DEFAULT_RENYI_ALPHAS = tuple(k / 10.0 for k in range(1, 10))


def check_renyi_monotonicity(
    rho: DensityMatrix,
    sigma: DensityMatrix,
    alphas: Sequence[float] = DEFAULT_RENYI_ALPHAS,
    tol: float = TOL_INEQ,
) -> CheckResult:
    """The alpha-Renyi relative entropy is nondecreasing in alpha.

    When 0.5 is on the grid, its value is also cross-checked against the
    closed-form root overlap -2 log Tr sqrt(rho) sqrt(sigma).
    """
    alphas = [float(a) for a in alphas]
    if len(alphas) < 2 or sorted(alphas) != alphas:
        raise BadAlpha(f"need an ascending alpha grid, got {alphas}")
    values = [renyi(a, rho, sigma).value for a in alphas]
    quantities = {f"s_{a!r}": v for a, v in zip(alphas, values)}
    slack = min(values[i + 1] - values[i] for i in range(len(values) - 1))
    extra_ok = True
    if 0.5 in alphas:
        closed = overlap_lower_bound(rho, sigma)
        residual = abs(values[alphas.index(0.5)] - closed)
        quantities["half_alpha_residual"] = residual
        extra_ok = residual <= TOL_IDENTITY
    return CheckResult("renyi-monotone", quantities, slack, tol, extra_ok=extra_ok)


def check_overlap_chain(
    rho: DensityMatrix,
    sigma: SubnormalizedOperator,
    tol: float = TOL_INEQ,
) -> CheckResult:
    """Relative entropy against a subnormalized reference dominates the
    root-overlap bound, the squared root distance, and a quarter of the
    squared trace distance, in that order.

    When the reference is normalized, the stronger quadratic lower bound
    S >= ||rho - sigma||_1^2 / 2 is asserted as well.
    """
    s_val = relative_entropy(rho, sigma)
    links = [("relative_entropy", s_val.value)] + _root_links(rho, sigma)
    quantities = {"trace_sigma": real_trace(sigma.mat)}
    extra_ok = True
    if abs(quantities["trace_sigma"] - 1.0) <= TOL_TRACE and not s_val.infinite:
        # half the squared trace distance: exactly twice the quarter_td_sq link
        pinsker = s_val.value - 2.0 * dict(links)["quarter_td_sq"]
        quantities["pinsker_slack"] = pinsker
        extra_ok = pinsker >= -tol
    return chain("overlap-chain", links, tol, quantities, extra_ok)


# ---------------------------------------------------------------------------
# Data processing and its refinements
# ---------------------------------------------------------------------------


def check_monotonicity(
    rho: DensityMatrix,
    sigma: DensityMatrix,
    channel: KrausChannel,
    tol: float = TOL_INEQ,
) -> CheckResult:
    """Relative entropy never increases under a channel."""
    before = relative_entropy(rho, sigma).value
    after = relative_entropy(channel.apply(rho.mat), channel.apply(sigma.mat)).value
    return CheckResult(
        "monotonicity",
        {"before": before, "after": after},
        before - after,
        tol,
    )


def check_stronger_monotonicity(
    rho: DensityMatrix,
    sigma: DensityMatrix,
    channel: KrausChannel,
    tol: float = TOL_INEQ,
) -> CheckResult:
    """Refined data processing for unital channels.

    The monotonicity gap dominates the chain of distances to the surrogate
    exp(log sigma + Phi^*(log Phi rho) - Phi^*(log Phi sigma)), whose trace
    is itself at most one.
    """
    require_unital(channel)
    before = relative_entropy(rho, sigma).value
    pushed = _pushed(rho, sigma, channel)
    after = relative_entropy(pushed[1], pushed[2]).value
    surrogate = _unital_surrogate(pushed)
    return _sqrt_chain(
        "stronger-monotonicity",
        "relent_gap",
        before - after,
        rho,
        surrogate,
        tol,
        quantities={"before": before, "after": after},
    )


def check_unital_trace_bound(
    rho: DensityMatrix,
    sigma: DensityMatrix,
    channel: KrausChannel,
    tol: float = TOL_INEQ,
) -> CheckResult:
    """Tr exp(log sigma + Phi^*(log Phi rho) - Phi^*(log Phi sigma)) <= 1."""
    require_unital(channel)
    value = real_trace(_unital_surrogate(_pushed(rho, sigma, channel)))
    return CheckResult("unital-trace-bound", {"trace_value": value}, 1.0 - value, tol)


def check_ptrace_strengthening(
    rho_ab: MultipartiteState,
    sigma_ab: MultipartiteState,
    tol: float = TOL_INEQ,
) -> CheckResult:
    """Refined monotonicity for discarding the second subsystem.

    Surrogate: exp(log sigma_AB - log sigma_A + log rho_A), all embedded on AB.
    """
    dims = _same_dims(rho_ab, sigma_ab)
    if len(dims) != 2:
        raise DimMismatch(f"need a bipartite split, got {len(dims)} parts")
    rho_a = rho_ab.marginal([0])
    sigma_a = sigma_ab.marginal([0])
    before = relative_entropy(rho_ab.state, sigma_ab.state).value
    after = relative_entropy(rho_a, sigma_a).value
    surrogate = exp_log_combination(
        [(1.0, sigma_ab.matrix), (-1.0, sigma_a), (1.0, rho_a)],
        dims=dims,
        supports=[(0, 1), (0,), (0,)],
    )
    return _sqrt_chain(
        "ptrace-strengthening",
        "relent_gap",
        before - after,
        rho_ab.state,
        surrogate,
        tol,
        quantities={"before": before, "after": after},
    )


def check_ssa_strengthened(rho: MultipartiteState, tol: float = TOL_INEQ) -> CheckResult:
    """Strong subadditivity with the exp-log surrogate refinement.

    I(A:C|B) anchors the chain against exp(log rho_AB - log rho_B + log rho_BC);
    the surrogate trace bound Tr S <= 1 is asserted alongside.
    """
    return _sqrt_chain("ssa", "cmi", cmi(rho), rho.matrix, ssa_surrogate(rho), tol)


def check_trace_exp_bound(
    rho: MultipartiteState,
    sigma: MultipartiteState,
    tau: MultipartiteState,
    tol: float = TOL_INEQ,
) -> CheckResult:
    """Tr exp(log rho_AB - log sigma_B + log tau_BC) <= 1 under marginal matching.

    Requires rho_B = sigma_B or sigma_B = tau_B (spectral norm within
    TOL_IDENTITY); raises MarginalMismatch otherwise.
    """
    _same_dims(rho, sigma, tau)
    require_tripartite(rho)
    surrogate, dev_rs, dev_st = _matched_surrogate(rho, sigma, tau, ("rho", "sigma", "tau"))
    value = real_trace(surrogate)
    return CheckResult(
        "trace-exp-bound",
        {"trace_value": value, "marginal_dev": float(min(dev_rs, dev_st))},
        1.0 - value,
        tol,
    )


def check_bsw_identity(
    rho: MultipartiteState,
    sigma: MultipartiteState,
    tau: MultipartiteState,
    omega: MultipartiteState,
    tol: float = TOL_IDENTITY,
) -> CheckResult:
    """Decomposition of a relative entropy against an exp-log reference.

    S(rho_ABC || exp(log sigma_AB + log tau_BC - log omega_B)) equals
    I(A:C|B) + S(rho_AB||sigma_AB) + S(rho_BC||tau_BC) - S(rho_B||omega_B).
    """
    dims = _same_dims(rho, sigma, tau, omega)
    require_tripartite(rho)
    target = exp_log_combination(
        [
            (1.0, sigma.marginal([0, 1])),
            (1.0, tau.marginal([1, 2])),
            (-1.0, omega.marginal([1])),
        ],
        dims=dims,
        supports=[(0, 1), (1, 2), (1,)],
    )
    lhs = relative_entropy(rho.matrix, target).value
    rhs = (
        cmi(rho)
        + relative_entropy(rho.marginal([0, 1]), sigma.marginal([0, 1])).value
        + relative_entropy(rho.marginal([1, 2]), tau.marginal([1, 2])).value
        - relative_entropy(rho.marginal([1]), omega.marginal([1])).value
    )
    residual = abs(lhs - rhs)
    return CheckResult(
        "bsw-identity",
        {"lhs": lhs, "rhs": rhs, "residual": residual},
        -residual,
        tol,
    )


def check_super_ssa(
    rho: MultipartiteState,
    sigma: MultipartiteState,
    tol: float = TOL_INEQ,
) -> CheckResult:
    """Relative entropy to a two-marginal exp-log reference dominates
    I(A:C|B) plus half the AB and BC relative entropies."""
    dims = _same_dims(rho, sigma)
    require_tripartite(rho)
    target = exp_log_combination(
        [
            (1.0, sigma.marginal([0, 1])),
            (1.0, sigma.marginal([1, 2])),
            (-1.0, sigma.marginal([1])),
        ],
        dims=dims,
        supports=[(0, 1), (1, 2), (1,)],
    )
    lhs = relative_entropy(rho.matrix, target).value
    rhs = (
        cmi(rho)
        + 0.5 * relative_entropy(rho.marginal([0, 1]), sigma.marginal([0, 1])).value
        + 0.5 * relative_entropy(rho.marginal([1, 2]), sigma.marginal([1, 2])).value
    )
    return CheckResult(
        "super-ssa", {"lhs": lhs, "rhs": rhs}, lhs - rhs, tol
    )


def check_three_state_chain(
    rho: MultipartiteState,
    sigma: MultipartiteState,
    tau: MultipartiteState,
    omega: MultipartiteState,
    tol: float = TOL_INEQ,
) -> CheckResult:
    """Distance chain to exp(log sigma_AB - log tau_B + log omega_BC).

    Needs sigma_B = tau_B or tau_B = omega_B so that the surrogate is
    subnormalized; then S(rho||S) dominates the square-root overlap chain.
    """
    _same_dims(rho, sigma, tau, omega)
    require_tripartite(rho)
    surrogate, dev_st, dev_to = _matched_surrogate(sigma, tau, omega, ("sigma", "tau", "omega"))
    anchor = relative_entropy(rho.state, surrogate).value
    return _sqrt_chain(
        "three-state-chain",
        "relent_to_surrogate",
        anchor,
        rho.state,
        surrogate,
        tol,
        quantities={"marginal_dev": float(min(dev_st, dev_to))},
    )


def check_subadd_exp(rho: MultipartiteState, tol: float = TOL_INEQ) -> CheckResult:
    """Subadditivity-flavoured chain with the two-marginal surrogate.

    Anchor S(AB) + S(BC) - S(ABC) against exp(log rho_AB + log rho_BC); the
    auxiliary product bound Tr S <= Tr(rho_AB rho_BC) = Tr rho_B^2 <= 1 is
    asserted through extra_ok (middle equality within 1e-10).
    """
    m = _tri_mats(rho)
    dims = rho.dims
    anchor = von_neumann(m["ab"]) + von_neumann(m["bc"]) - von_neumann(m["abc"])
    surrogate = exp_log_combination(
        [(1.0, m["ab"]), (1.0, m["bc"])], dims=dims, supports=[(0, 1), (1, 2)]
    )
    ab_full = embed(m["ab"], dims, (0, 1))
    bc_full = embed(m["bc"], dims, (1, 2))
    tr_product = real_trace(ab_full @ bc_full)
    tr_b_sq = real_trace(m["b"] @ m["b"])
    result = _sqrt_chain(
        "subadd-exp",
        "entropy_combo",
        anchor,
        m["abc"],
        surrogate,
        tol,
        quantities={"trace_product": tr_product, "trace_b_sq": tr_b_sq},
        trace_bound=False,
    )
    tr_srg = result.quantities["trace_surrogate"]
    gt_ok = (
        tr_srg <= tr_product + tol
        and abs(tr_product - tr_b_sq) <= 1e-10
        and tr_b_sq <= 1.0 + tol
    )
    result.extra_ok = bool(gt_ok)
    return result


# ---------------------------------------------------------------------------
# Markov structure
# ---------------------------------------------------------------------------


# A state counts as Markov when its CMI is below MARKOV_LIKE_CMI; its residual
# signatures then must all be below MARKOV_LIKE_RESIDUAL, else all above.
MARKOV_LIKE_CMI = 1e-8
MARKOV_LIKE_RESIDUAL = 1e-6


def markov_characterizations(
    state: MultipartiteState, t_samples: Sequence[float] = DEFAULT_T_SAMPLES
) -> CheckResult:
    """Evaluate four equivalent signatures of I(A:C|B) = 0 on one state.

    Quantities: the CMI itself, the log-combination residual
    ||log rho_ABC + log rho_B - log rho_AB - log rho_BC||_inf, the maximal
    commutation residual of complex powers over t_samples, and the trace-norm
    errors of the two one-sided reconstructions
    rho_AB^(1/2) rho_B^(-1/2) rho_BC rho_B^(-1/2) rho_AB^(1/2) (and mirrored).
    The check passes when all signatures agree with the CMI verdict: all
    small together (Markov) or all bounded away (non-Markov).  The state must
    be full rank.
    """
    m = _tri_mats(state)
    eig = {k: herm_eig(v) for k, v in m.items()}
    dims = state.dims
    i_val = cmi(state)

    log_combo = (
        matrix_log(eig["abc"])
        + embed(matrix_log(eig["b"]), dims, (1,))
        - embed(matrix_log(eig["ab"]), dims, (0, 1))
        - embed(matrix_log(eig["bc"]), dims, (1, 2))
    )
    r_log = max_sv(log_combo)

    r_petz = 0.0
    for t in t_samples:
        lhs = unitary_power(eig["abc"], t) @ embed(unitary_power(eig["bc"], -t), dims, (1, 2))
        rhs = embed(unitary_power(eig["ab"], t), dims, (0, 1)) @ embed(
            unitary_power(eig["b"], -t), dims, (1,)
        )
        r_petz = max(r_petz, max_sv(lhs - rhs))

    inv_sqrt_b = embed(matrix_power(eig["b"], -0.5), dims, (1,))
    r_recon_ab = trace_norm(m["abc"] - _petz_recovery(m, eig, dims, "ab", inv_sqrt_b))
    r_recon_bc = trace_norm(m["abc"] - _petz_recovery(m, eig, dims, "bc", inv_sqrt_b))

    residuals = {
        "r_log": r_log,
        "r_petz": r_petz,
        "r_recon_ab": r_recon_ab,
        "r_recon_bc": r_recon_bc,
    }
    flags = [r < MARKOV_LIKE_RESIDUAL for r in residuals.values()]
    consistent = all(flags) if i_val < MARKOV_LIKE_CMI else not any(flags)
    quantities = {"cmi": i_val, **residuals}
    return CheckResult("markov-characterizations", quantities, 0.0, 0.0, bool(consistent))


def _psd_int_power(g: np.ndarray, n: int) -> np.ndarray:
    """g^n for PSD g: repeated squaring for powers of two, spectral otherwise."""
    if n < 1:
        raise BadAlpha(f"power must be a positive integer, got {n}")
    if n & (n - 1) == 0:
        out = g
        while n > 1:
            out = out @ out
            n >>= 1
        return out
    return matrix_power(g, float(n))


def _trotter_traces(rho: MultipartiteState, n_values: Sequence[int]) -> list[tuple[int, float]]:
    """(n, t_n) for each order n: the compressed-product traces of trotter_sequence."""
    m = _tri_mats(rho)
    n_values = [int(n) for n in n_values]
    if not n_values or any(n < 1 for n in n_values):
        raise BadConfig(f"need positive compression orders, got {n_values}")
    eig = {k: herm_eig(m[k]) for k in ("ab", "b", "bc")}
    return [
        (n, real_trace(_psd_int_power(_compressed_product(eig, rho.dims, 1.0 / n), n)))
        for n in n_values
    ]


def trotter_sequence(
    rho: MultipartiteState,
    n_values: Sequence[int] = DEFAULT_TROTTER_NS,
    tol: float = TOL_INEQ,
) -> CheckResult:
    """Compressed-product traces t_n converging to the surrogate trace.

    t_n = Tr[(rho_AB^(1/2n) rho_B^(-1/2n) rho_BC^(1/n) rho_B^(-1/2n)
    rho_AB^(1/2n))^n].  Every t_n <= 1 is asserted (through the chain link
    on the maximum); convergence is asserted through
    |t_last - Tr S| <= |t_first - Tr S| + tol.  Monotonicity of the sequence
    is recorded in the quantities but never asserted: it is an open question.
    """
    traces = _trotter_traces(rho, n_values)
    trace_surrogate = real_trace(ssa_surrogate(rho))
    quantities: dict[str, float] = {"trace_surrogate": trace_surrogate}
    quantities.update((f"t_{n}", t_n) for n, t_n in traces)
    errs = [abs(t - trace_surrogate) for _, t in traces]
    quantities["err_first"] = errs[0]
    quantities["err_last"] = errs[-1]
    links = [("one", 1.0), ("max_compressed_trace", max(t for _, t in traces))]
    return chain("trotter-bound", links, tol, quantities, bool(errs[-1] <= errs[0] + tol))


# ---------------------------------------------------------------------------
# Finite-alpha quantities and the alpha -> 0 operator limit
# ---------------------------------------------------------------------------


def _alpha_compressed(pushed: tuple, alpha: float) -> np.ndarray:
    """{sigma^(a/2) Phi^*(Phi(sigma)^(-a/2) Phi(rho)^a Phi(sigma)^(-a/2)) sigma^(a/2)}^(1/a),
    from the spectra and dual of _pushed."""
    if not 0.0 < alpha < 1.0:
        raise BadAlpha(f"alpha must lie strictly in (0, 1), got {alpha}")
    sigma_eig, img_rho, img_sigma, dual = pushed
    img_sigma_neg = matrix_power(img_sigma.spectrum, -alpha / 2.0)
    mid = hermitize(img_sigma_neg @ matrix_power(img_rho.spectrum, alpha) @ img_sigma_neg)
    s_half = matrix_power(sigma_eig, alpha / 2.0)
    inner = hermitize(s_half @ dual.apply(mid) @ s_half)
    return matrix_power(inner, 1.0 / alpha)


def check_dw_alpha(
    rho: DensityMatrix,
    sigma: DensityMatrix,
    channel: KrausChannel,
    alpha: float,
    tol: float = TOL_INEQ,
) -> CheckResult:
    """Finite-alpha compressed trace bound: Tr of the alpha-compression <= 1."""
    value = real_trace(_alpha_compressed(_pushed(rho, sigma, channel), alpha))
    return CheckResult(
        "dw-alpha", {"alpha": float(alpha), "q_alpha": value}, 1.0 - value, tol
    )


def dw_alpha_profile(
    rho: DensityMatrix,
    sigma: DensityMatrix,
    channel: KrausChannel,
    alphas: Sequence[float] = DEFAULT_DW_ALPHAS,
    tol: float = TOL_INEQ,
) -> CheckResult:
    """check_dw_alpha over a whole alpha grid, merged into one result."""
    pushed = _pushed(rho, sigma, channel)
    quantities: dict[str, float] = {}
    worst = math.inf
    for alpha in alphas:
        value = real_trace(_alpha_compressed(pushed, alpha))
        quantities[f"q_{alpha!r}"] = value
        worst = min(worst, 1.0 - value)
    return CheckResult("dw-alpha", quantities, worst, tol)


def check_dw_tripartite(
    rho: MultipartiteState,
    alphas: Sequence[float] = DEFAULT_DW_ALPHAS,
    tol: float = TOL_INEQ,
) -> CheckResult:
    """Tripartite specialization of the finite-alpha trace bound.

    Tr[(rho_AB^(a/2) rho_B^(-a/2) rho_BC^a rho_B^(-a/2) rho_AB^(a/2))^(1/a)] <= 1,
    evaluated directly; at the first alpha the generic channel route (trace
    out A, reference rho_AB (x) 1_C/d_C) is recomputed as a cross-check and
    the two routes must agree within TOL_IDENTITY.
    """
    m = _tri_mats(rho)
    eig = {k: herm_eig(m[k]) for k in ("ab", "b", "bc")}
    dims = rho.dims
    quantities: dict[str, float] = {}
    worst = math.inf
    for alpha in alphas:
        if not 0.0 < alpha < 1.0:
            raise BadAlpha(f"alpha must lie strictly in (0, 1), got {alpha}")
        g = _compressed_product(eig, dims, alpha)
        value = real_trace(matrix_power(g, 1.0 / alpha))
        quantities[f"q_{alpha!r}"] = value
        worst = min(worst, 1.0 - value)
    alpha0 = float(alphas[0])
    channel = ptrace_channel(dims, 0)
    reference = np.kron(m["ab"], np.eye(dims[2]) / dims[2])
    via_channel = real_trace(_alpha_compressed(_pushed(m["abc"], reference, channel), alpha0))
    consistency = abs(via_channel - quantities[f"q_{alpha0!r}"])
    quantities["route_residual"] = consistency
    return CheckResult(
        "dw-tripartite",
        quantities,
        worst,
        tol,
        extra_ok=bool(consistency <= TOL_IDENTITY),
    )


def check_sbw_limit(
    rho: DensityMatrix,
    sigma: DensityMatrix,
    channel: KrausChannel,
    alphas: Sequence[float] = DEFAULT_SBW_ALPHAS,
    tol: float = TOL_INEQ,
) -> CheckResult:
    """Operator convergence of the alpha-compression to the exp-log surrogate.

    e_alpha = ||compression_alpha - exp(log sigma + Phi^*(log Phi rho) -
    Phi^*(log Phi sigma))||_inf must decrease along the (descending) alpha
    sequence and end below SBW_FINAL_TOL.
    """
    alphas = [float(a) for a in alphas]
    if not alphas or any(not 0.0 < a < 1.0 for a in alphas):
        raise BadAlpha(f"alphas must lie strictly in (0, 1), got {alphas}")
    if sorted(alphas, reverse=True) != alphas:
        raise BadAlpha("alphas must be given in strictly descending order")
    pushed = _pushed(rho, sigma, channel)
    surrogate = _unital_surrogate(pushed)
    errs = []
    quantities: dict[str, float] = {}
    for alpha in alphas:
        t_alpha = _alpha_compressed(pushed, alpha)
        e = max_sv(t_alpha - surrogate)
        errs.append(e)
        quantities[f"e_{alpha!r}"] = e
    decreasing = all(errs[i + 1] <= errs[i] + tol for i in range(len(errs) - 1))
    quantities["e_first"] = errs[0]
    quantities["e_last"] = errs[-1]
    return CheckResult("sbw-limit", quantities, SBW_FINAL_TOL - errs[-1], 0.0, bool(decreasing))


# ---------------------------------------------------------------------------
# Concavity and trace inequalities
# ---------------------------------------------------------------------------


def _concavity_gap(name: str, f, x1, x2, lam: float, tol: float, extra: dict) -> CheckResult:
    """f(lam x1 + (1 - lam) x2) against lam f(x1) + (1 - lam) f(x2), for operators or
    matrices x1, x2; f sees an operator's cached spectrum."""
    if not 0.0 <= lam <= 1.0:
        raise BadAlpha(f"mixing weight must be in [0, 1], got {lam}")
    f_mix = f(lam * as_matrix(x1) + (1.0 - lam) * as_matrix(x2))
    f_avg = lam * f(as_spectrum(x1)) + (1.0 - lam) * f(as_spectrum(x2))
    quantities = {"f_mix": f_mix, "f_avg": f_avg, "lam": lam, **extra}
    return CheckResult(name, quantities, f_mix - f_avg, tol)


def check_lieb_concavity(
    h: np.ndarray,
    x1: np.ndarray,
    x2: np.ndarray,
    lam: float,
    tol: float = TOL_INEQ,
) -> CheckResult:
    """Concavity of X -> Tr exp(H + log X) on positive definite X."""
    h = require_hermitian(h)

    def f(x) -> float:
        return real_trace(matrix_exp(hermitize(h + matrix_log(x))))

    return _concavity_gap("lieb-concavity", f, x1, x2, lam, tol, {})


def check_cl_concavity(
    m: np.ndarray,
    x1: np.ndarray,
    x2: np.ndarray,
    lam: float,
    alpha: float,
    tol: float = TOL_INEQ,
) -> CheckResult:
    """Concavity of X -> Tr (M X^(1/alpha) M^dag)^alpha for alpha >= 1."""
    if alpha < 1.0:
        raise BadAlpha(f"alpha must be >= 1, got {alpha}")
    m = np.asarray(m, dtype=complex)

    def f(x) -> float:
        core = hermitize(m @ matrix_power(x, 1.0 / alpha) @ m.conj().T)
        return real_trace(matrix_power(core, alpha))

    return _concavity_gap("carlen-lieb-concavity", f, x1, x2, lam, tol, {"alpha": alpha})


def check_golden_thompson(
    a: np.ndarray, b: np.ndarray, tol: float = TOL_INEQ
) -> CheckResult:
    """Tr e^(A+B) <= Tr e^A e^B for Hermitian A, B."""
    a = require_hermitian(a)
    b = require_hermitian(b)
    t_sum = real_trace(matrix_exp(hermitize(a + b)))
    t_prod = real_trace(matrix_exp(a) @ matrix_exp(b))
    return CheckResult(
        "golden-thompson",
        {"trace_exp_sum": t_sum, "trace_exp_product": t_prod},
        t_prod - t_sum,
        tol,
    )


def check_audenaert_ps(
    m: SubnormalizedOperator | np.ndarray,
    n: SubnormalizedOperator | np.ndarray,
    t_values: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
    tol: float = TOL_INEQ,
) -> CheckResult:
    """Square-root norm chain plus the interpolated trace overlap bound.

    Chain: ||sqrt M - sqrt N||_2 ||sqrt M + sqrt N||_2 >= ||M - N||_1
           >= ||sqrt M - sqrt N||_2^2.
    Extra conditions folded into extra_ok: Tr M^t N^(1-t) >= (Tr M + Tr N -
    ||M-N||_1)/2 for each t, and -2 log Tr sqrt M sqrt N >= ||sqrt M - sqrt
    N||_2^2 whenever both traces are <= 1.
    """
    m_mat = as_matrix(m)
    n_mat = as_matrix(n)
    m_eig = as_spectrum(m)
    n_eig = as_spectrum(n)
    sm = matrix_sqrt(m_eig)
    sn = matrix_sqrt(n_eig)
    hs_diff = float(np.linalg.norm(sm - sn))
    hs_sum = float(np.linalg.norm(sm + sn))
    td = trace_norm(m_mat - n_mat)
    links = [
        ("norm_product", hs_diff * hs_sum),
        ("trace_distance", td),
        ("sqrt_hs_sq", hs_diff**2),
    ]
    tr_m = real_trace(m_mat)
    tr_n = real_trace(n_mat)
    half_min = 0.5 * (tr_m + tr_n - td)
    quantities = {"trace_m": tr_m, "trace_n": tr_n}
    worst_aud = math.inf
    for t in t_values:
        if not 0.0 <= t <= 1.0:
            raise BadAlpha(f"interp parameter must be in [0, 1], got {t}")
        crossed = real_trace(matrix_power(m_eig, t) @ matrix_power(n_eig, 1.0 - t))
        slack_t = crossed - half_min
        quantities[f"audenaert_slack_{t!r}"] = slack_t
        worst_aud = min(worst_aud, slack_t)
    extra_ok = worst_aud >= -tol
    if tr_m <= 1.0 + TOL_TRACE and tr_n <= 1.0 + TOL_TRACE:
        overlap = real_trace(sm @ sn)
        if overlap > 0.0:
            bound_slack = -2.0 * math.log(overlap) - hs_diff**2
            quantities["overlap_bound_slack"] = bound_slack
            extra_ok = extra_ok and bound_slack >= -tol
    return chain("audenaert-powers-stormer", links, tol, quantities, bool(extra_ok))


def check_squashed_proxy(rho: MultipartiteState, tol: float = TOL_INEQ) -> CheckResult:
    """Half the CMI dominates an eighth of the squared distance between the
    AC marginal and the AC reduction of the exp-log surrogate."""
    surrogate = ssa_surrogate(rho)
    rho_ac = rho.marginal([0, 2])
    srg_ac = ptrace(surrogate, rho.dims, [0, 2])
    lhs = 0.5 * cmi(rho)
    dist = trace_norm(rho_ac - srg_ac)
    rhs = 0.125 * dist**2
    return CheckResult(
        "squashed-proxy",
        {
            "half_cmi": lhs,
            "eighth_dist_sq": rhs,
            "trace_surrogate_ac": real_trace(srg_ac),
        },
        lhs - rhs,
        tol,
    )


def check_twirl_identity(
    x: np.ndarray,
    dims: Sequence[int],
    rng: np.random.Generator,
    samples: int = 10_000,
    over: int = 1,
) -> CheckResult:
    """Monte Carlo twirl agrees with the closed form within 5 ||X||_inf / sqrt(n)."""
    x = np.asarray(x, dtype=complex)
    exact = twirl_exact(x, dims, over=over)
    estimate = twirl_mc(x, dims, rng, samples, over=over)
    err = max_sv(estimate - exact)
    bound = 5.0 * max_sv(x) / math.sqrt(samples)
    return CheckResult(
        "twirl-identity",
        {"mc_error": err, "bound": bound, "samples": float(samples)},
        bound - err,
        0.0,
    )


# ---------------------------------------------------------------------------
# Open inequalities, swept by suites.explore_conjecture and never asserted
# ---------------------------------------------------------------------------


def explore_stronger_mono(
    rho: DensityMatrix, sigma: DensityMatrix, channel: KrausChannel, tol: float = TOL_INEQ
) -> CheckResult:
    """Relative-entropy gap under a channel vs 1/4 squared Petz-recovery distance."""
    img_rho = channel.apply(rho.mat)
    gap = (
        relative_entropy(rho, sigma).value
        - relative_entropy(img_rho, channel.apply(sigma.mat)).value
    )
    recovered = PetzMap(channel, sigma).apply(img_rho)
    dist = trace_norm(rho.mat - recovered)
    quantities = {"relent_gap": gap, "recovery_distance": dist}
    return CheckResult("stronger-mono", quantities, gap - 0.25 * dist**2, tol)


def explore_ptrace_petz(
    rho_ab: MultipartiteState, sigma_ab: MultipartiteState, tol: float = TOL_INEQ
) -> CheckResult:
    """The same comparison for discarding the second subsystem."""
    dims = _same_dims(rho_ab, sigma_ab)
    channel = ptrace_channel(dims, 1)
    gap = (
        relative_entropy(rho_ab.state, sigma_ab.state).value
        - relative_entropy(rho_ab.marginal([0]), sigma_ab.marginal([0])).value
    )
    recovered = PetzMap(channel, sigma_ab.state).apply(rho_ab.marginal([0]))
    dist = trace_norm(rho_ab.matrix - recovered)
    quantities = {"relent_gap": gap, "recovery_distance": dist}
    return CheckResult("ptrace-petz", quantities, gap - 0.25 * dist**2, tol)


def explore_cmi_petz(rho: MultipartiteState, tol: float = TOL_INEQ) -> CheckResult:
    """I(A:C|B) against 1/4 of the squared distance to the Petz reconstruction."""
    m = _tri_mats(rho)
    inv_sqrt_b = embed(matrix_power(m["b"], -0.5), rho.dims, (1,))
    dist = trace_norm(m["abc"] - _petz_recovery(m, m, rho.dims, "ab", inv_sqrt_b))
    i_val = cmi(rho)
    quantities = {"cmi": i_val, "recovery_distance": dist}
    return CheckResult("cmi-petz", quantities, i_val - 0.25 * dist**2, tol)


def explore_trotter_monotone(rho: MultipartiteState, tol: float = TOL_INEQ) -> CheckResult:
    """Smallest decrease t_n - t_2n of the compressed-product traces."""
    traces = _trotter_traces(rho, (1, 2, 4, 8, 16))
    diffs = [t - t_next for (_, t), (_, t_next) in zip(traces, traces[1:])]
    quantities = {f"t_{n}": t for n, t in traces}
    return CheckResult("trotter-monotone", quantities, min(diffs), tol)
