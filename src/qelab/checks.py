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

Each checker is written once.  suites.iter_trials stacks a chunk of up to 32
trials when every instance value has a stack (DensityMatrix.stack,
KrausChannel.stack), fewer when one stacked operand would pass 128 KiB; the
checker then returns each row's CheckResult with the bits of that trial
alone: matrix work runs on the (n, d, d) stacks, and each row's scalar rule
(a log, a min, a branch) on its Python floats (linalg.per_row, _result,
results.chain).  A precondition that fails in any row raises for the chunk,
which then runs one trial at a time; a one-trial chunk, as suites.run_trial
and replay run, calls the checker on the 2-D instance.  Seven suites hold a
value without a stack and run one trial at a time: markov-roundtrip (a
MarkovSpec), twirl-identity (a raw matrix and a seed), lieb-concavity,
carlen-lieb-concavity and golden-thompson (raw matrices),
audenaert-powers-stormer (SubnormalizedOperators) and overlap-chain (a scaled
SubnormalizedOperator reference in about half its trials).
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Sequence

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
    each,
    embed,
    herm_eig,
    hermitize,
    hs_norm,
    matrix_exp,
    matrix_log,
    matrix_power,
    matrix_sqrt,
    max_sv,
    per_row,
    ptrace,
    real_trace,
    require_hermitian,
    row_indices,
    trace_norm,
    unitary_power,
)
from .results import CheckResult, chain
from .states import (
    Decomposed,
    DensityMatrix,
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
Results = CheckResult | list[CheckResult]  # one trial's result, or each row's of a stacked chunk


def _result(name: str, tol: float, slack: Callable[..., float], **quantities):
    """CheckResult(name, quantities, slack(*quantities), tol) for one trial's quantities, or
    the list of each row's for the (n,) arrays of a stacked chunk.  The slack is taken from
    a row's quantities as Python floats, as the trial alone takes it."""
    return per_row(
        lambda *row: CheckResult(name, dict(zip(quantities, row)), slack(*row), tol),
        *quantities.values(),
    )


def _same_dims(*states: DensityMatrix) -> tuple[int, ...]:
    dims = states[0].dims
    for st in states[1:]:
        if st.dims != dims:
            raise DimMismatch(f"states live on different dims: {st.dims} vs {dims}")
    return dims


def _tri_mats(state: DensityMatrix) -> dict[str, np.ndarray]:
    require_tripartite(state)
    return {
        "abc": state.mat,
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


def _matched_surrogate(x, y, z, names: tuple[str, str, str]) -> tuple[np.ndarray, float]:
    """exp(log x_AB - log y_B + log z_BC) and the smaller of the deviations ||x_B - y_B||,
    ||y_B - z_B||, which must be within TOL_IDENTITY (else MarginalMismatch naming the states
    by names)."""
    y_b = y.marginal([1])
    dev_xy = np.asarray(max_sv(x.marginal([1]) - y_b))
    dev_yz = np.asarray(max_sv(y_b - z.marginal([1])))
    apart = row_indices(np.minimum(dev_xy, dev_yz) > TOL_IDENTITY)
    if apart:
        (a, b, c), i = names, apart[0]
        raise MarginalMismatch(
            f"need {a}_B = {b}_B or {b}_B = {c}_B; "
            f"deviations are {dev_xy[i]:.3e} and {dev_yz[i]:.3e}"
        )
    surrogate = _exp_log_surrogate(x.marginal([0, 1]), y_b, z.marginal([1, 2]), x.dims)
    return surrogate, each(min, dev_xy, dev_yz)


def ssa_surrogate(state: DensityMatrix) -> np.ndarray:
    """exp(log rho_AB - log rho_B + log rho_BC) embedded on the full space."""
    m = _tri_mats(state)
    return _exp_log_surrogate(m["ab"], m["b"], m["bc"], state.dims)


def _pushed(rho, sigma, channel: KrausChannel) -> tuple:
    """(spectrum of sigma, Phi(rho) and Phi(sigma) as Decomposed, the channel Phi) for
    operators or matrices rho and sigma: what the unital surrogate, every alpha-compression
    and the relative entropy of the images share."""
    img_rho, img_sigma = (channel.apply(as_matrix(x)) for x in (rho, sigma))
    return (
        as_spectrum(sigma),
        Decomposed(img_rho, herm_eig(img_rho)),
        Decomposed(img_sigma, herm_eig(img_sigma)),
        channel,
    )


def _unital_surrogate(pushed: tuple) -> np.ndarray:
    """exp(log sigma + Phi^*(log Phi rho) - Phi^*(log Phi sigma)) from _pushed."""
    sigma_eig, img_rho, img_sigma, channel = pushed
    combo = matrix_log(sigma_eig) + channel.apply_dual(matrix_log(img_rho.spectrum))
    return matrix_exp(hermitize(combo - channel.apply_dual(matrix_log(img_sigma.spectrum))))


def _root_links(rho, other) -> list[tuple[str, float]]:
    """The overlap, square-root and trace-distance links of the descending chain between
    two operators or matrices, or stacks of them."""
    s_rho = matrix_sqrt(as_spectrum(rho))
    s_oth = matrix_sqrt(as_spectrum(other))
    overlap = real_trace(s_rho @ s_oth)
    if np.any(np.asarray(overlap) <= 0.0):
        raise ZeroOverlap("square-root overlap is not positive")
    td = trace_norm(as_matrix(rho) - as_matrix(other))
    return [
        ("overlap_bound", each(lambda o: -2.0 * math.log(o), overlap)),
        ("sqrt_hs_sq", each(lambda h: h**2, hs_norm(s_rho - s_oth))),
        ("quarter_td_sq", each(lambda t: 0.25 * t**2, td)),
    ]


def _sqrt_chain(
    name: str,
    anchor_label: str,
    anchor: float,
    rho: SubnormalizedOperator | np.ndarray,
    surrogate: np.ndarray,
    tol: float,
    quantities: dict[str, float] | None = None,
    extra_ok=None,
) -> Results:
    """The shared descending chain anchored at a relative-entropy quantity; extra_ok defaults
    to the trace bound Tr S <= 1 + tol."""
    links = [(anchor_label, anchor)] + _root_links(rho, surrogate)
    q = dict(quantities or {})
    tr_srg = real_trace(surrogate)
    q["trace_surrogate"] = tr_srg
    return chain(name, links, tol, q, (tr_srg <= 1.0 + tol) if extra_ok is None else extra_ok)


# ---------------------------------------------------------------------------
# Entropy comparisons
# ---------------------------------------------------------------------------

DEFAULT_RENYI_ALPHAS = tuple(k / 10.0 for k in range(1, 10))


def check_renyi_monotonicity(
    rho: DensityMatrix,
    sigma: DensityMatrix,
    alphas: Sequence[float] = DEFAULT_RENYI_ALPHAS,
    tol: float = TOL_INEQ,
) -> Results:
    """The alpha-Renyi relative entropy is nondecreasing in alpha.

    When 0.5 is on the grid, its value is also cross-checked against the
    closed-form root overlap -2 log Tr sqrt(rho) sqrt(sigma).
    """
    alphas = [float(a) for a in alphas]
    if len(alphas) < 2 or sorted(alphas) != alphas:
        raise BadAlpha(f"need an ascending alpha grid, got {alphas}")

    def result(closed, *values):
        quantities = {f"s_{a!r}": v for a, v in zip(alphas, values)}
        slack = min(values[i + 1] - values[i] for i in range(len(values) - 1))
        extra_ok = True
        if 0.5 in alphas:
            residual = abs(values[alphas.index(0.5)] - closed)
            quantities["half_alpha_residual"] = residual
            extra_ok = residual <= TOL_IDENTITY
        return CheckResult("renyi-monotone", quantities, slack, tol, extra_ok=extra_ok)

    values = [renyi(a, rho, sigma) for a in alphas]
    closed = overlap_lower_bound(rho, sigma) if 0.5 in alphas else None
    return per_row(result, closed, *values)


def check_overlap_chain(
    rho: DensityMatrix,
    sigma: SubnormalizedOperator,
    tol: float = TOL_INEQ,
) -> Results:
    """Relative entropy against a subnormalized reference dominates the
    root-overlap bound, the squared root distance, and a quarter of the
    squared trace distance, in that order.

    When the reference is normalized, the stronger quadratic lower bound
    S >= ||rho - sigma||_1^2 / 2 is asserted as well.
    """
    links = [("relative_entropy", relative_entropy(rho, sigma))] + _root_links(rho, sigma)
    labels = [label for label, _ in links]

    def result(trace_sigma, *values):
        quantities = {"trace_sigma": trace_sigma}
        extra_ok = True
        s_val, quarter_td_sq = values[0], values[-1]
        if abs(trace_sigma - 1.0) <= TOL_TRACE and not math.isinf(s_val):
            # half the squared trace distance: exactly twice the quarter_td_sq link
            quantities["pinsker_slack"] = pinsker = s_val - 2.0 * quarter_td_sq
            extra_ok = pinsker >= -tol
        return chain("overlap-chain", list(zip(labels, values)), tol, quantities, extra_ok)

    return per_row(result, real_trace(sigma.mat), *(v for _, v in links))


# ---------------------------------------------------------------------------
# Data processing and its refinements
# ---------------------------------------------------------------------------


def check_monotonicity(
    rho: DensityMatrix,
    sigma: DensityMatrix,
    channel: KrausChannel,
    tol: float = TOL_INEQ,
) -> Results:
    """Relative entropy never increases under a channel."""
    before = relative_entropy(rho, sigma)
    after = relative_entropy(channel.apply(rho.mat), channel.apply(sigma.mat))
    return _result("monotonicity", tol, operator.sub, before=before, after=after)


def check_stronger_monotonicity(
    rho: DensityMatrix,
    sigma: DensityMatrix,
    channel: KrausChannel,
    tol: float = TOL_INEQ,
) -> Results:
    """Refined data processing for unital channels.

    The monotonicity gap dominates the chain of distances to the surrogate
    exp(log sigma + Phi^*(log Phi rho) - Phi^*(log Phi sigma)), whose trace
    is itself at most one.
    """
    require_unital(channel)
    before = relative_entropy(rho, sigma)
    pushed = _pushed(rho, sigma, channel)
    after = relative_entropy(pushed[1], pushed[2])
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
) -> Results:
    """Tr exp(log sigma + Phi^*(log Phi rho) - Phi^*(log Phi sigma)) <= 1."""
    require_unital(channel)
    value = real_trace(_unital_surrogate(_pushed(rho, sigma, channel)))
    return _result("unital-trace-bound", tol, lambda v: 1.0 - v, trace_value=value)


def check_ptrace_strengthening(
    rho_ab: DensityMatrix,
    sigma_ab: DensityMatrix,
    tol: float = TOL_INEQ,
) -> Results:
    """Refined monotonicity for discarding the second subsystem.

    Surrogate: exp(log sigma_AB - log sigma_A + log rho_A), all embedded on AB.
    """
    dims = _same_dims(rho_ab, sigma_ab)
    if len(dims) != 2:
        raise DimMismatch(f"need a bipartite split, got {len(dims)} parts")
    rho_a = rho_ab.marginal([0])
    sigma_a = sigma_ab.marginal([0])
    before = relative_entropy(rho_ab, sigma_ab)
    after = relative_entropy(rho_a, sigma_a)
    surrogate = exp_log_combination(
        [(1.0, sigma_ab.mat), (-1.0, sigma_a), (1.0, rho_a)],
        dims=dims,
        supports=[(0, 1), (0,), (0,)],
    )
    return _sqrt_chain(
        "ptrace-strengthening",
        "relent_gap",
        before - after,
        rho_ab,
        surrogate,
        tol,
        quantities={"before": before, "after": after},
    )


def check_ssa_strengthened(rho: DensityMatrix, tol: float = TOL_INEQ) -> Results:
    """Strong subadditivity with the exp-log surrogate refinement.

    I(A:C|B) anchors the chain against exp(log rho_AB - log rho_B + log rho_BC);
    the surrogate trace bound Tr S <= 1 is asserted alongside.
    """
    return _sqrt_chain("ssa", "cmi", cmi(rho), rho.mat, ssa_surrogate(rho), tol)


def check_trace_exp_bound(
    rho: DensityMatrix,
    sigma: DensityMatrix,
    tau: DensityMatrix,
    tol: float = TOL_INEQ,
) -> Results:
    """Tr exp(log rho_AB - log sigma_B + log tau_BC) <= 1 under marginal matching.

    Requires rho_B = sigma_B or sigma_B = tau_B (spectral norm within
    TOL_IDENTITY); raises MarginalMismatch otherwise.
    """
    _same_dims(rho, sigma, tau)
    require_tripartite(rho)
    surrogate, dev = _matched_surrogate(rho, sigma, tau, ("rho", "sigma", "tau"))
    return _result("trace-exp-bound", tol, lambda v, _: 1.0 - v,
                   trace_value=real_trace(surrogate), marginal_dev=dev)


def check_bsw_identity(
    rho: DensityMatrix,
    sigma: DensityMatrix,
    tau: DensityMatrix,
    omega: DensityMatrix,
    tol: float = TOL_IDENTITY,
) -> Results:
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
    lhs = relative_entropy(rho.mat, target)
    rhs = (
        cmi(rho)
        + relative_entropy(rho.marginal([0, 1]), sigma.marginal([0, 1]))
        + relative_entropy(rho.marginal([1, 2]), tau.marginal([1, 2]))
        - relative_entropy(rho.marginal([1]), omega.marginal([1]))
    )
    residual = abs(lhs - rhs)
    return _result("bsw-identity", tol, lambda *q: -q[2], lhs=lhs, rhs=rhs, residual=residual)


def check_super_ssa(
    rho: DensityMatrix,
    sigma: DensityMatrix,
    tol: float = TOL_INEQ,
) -> Results:
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
    lhs = relative_entropy(rho.mat, target)
    rhs = (
        cmi(rho)
        + 0.5 * relative_entropy(rho.marginal([0, 1]), sigma.marginal([0, 1]))
        + 0.5 * relative_entropy(rho.marginal([1, 2]), sigma.marginal([1, 2]))
    )
    return _result("super-ssa", tol, operator.sub, lhs=lhs, rhs=rhs)


def check_three_state_chain(
    rho: DensityMatrix,
    sigma: DensityMatrix,
    tau: DensityMatrix,
    omega: DensityMatrix,
    tol: float = TOL_INEQ,
) -> Results:
    """Distance chain to exp(log sigma_AB - log tau_B + log omega_BC).

    Needs sigma_B = tau_B or tau_B = omega_B so that the surrogate is
    subnormalized; then S(rho||S) dominates the square-root overlap chain.
    """
    _same_dims(rho, sigma, tau, omega)
    require_tripartite(rho)
    surrogate, dev = _matched_surrogate(sigma, tau, omega, ("sigma", "tau", "omega"))
    anchor = relative_entropy(rho, surrogate)
    return _sqrt_chain(
        "three-state-chain",
        "relent_to_surrogate",
        anchor,
        rho,
        surrogate,
        tol,
        quantities={"marginal_dev": dev},
    )


def check_subadd_exp(rho: DensityMatrix, tol: float = TOL_INEQ) -> Results:
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
    gt_ok = (
        (real_trace(surrogate) <= tr_product + tol)
        & (abs(tr_product - tr_b_sq) <= 1e-10)
        & (tr_b_sq <= 1.0 + tol)
    )
    return _sqrt_chain(
        "subadd-exp",
        "entropy_combo",
        anchor,
        m["abc"],
        surrogate,
        tol,
        quantities={"trace_product": tr_product, "trace_b_sq": tr_b_sq},
        extra_ok=gt_ok,
    )


# ---------------------------------------------------------------------------
# Markov structure
# ---------------------------------------------------------------------------


# A state counts as Markov when its CMI is below MARKOV_LIKE_CMI; its residual
# signatures then must all be below MARKOV_LIKE_RESIDUAL, else all above.
MARKOV_LIKE_CMI = 1e-8
MARKOV_LIKE_RESIDUAL = 1e-6


def markov_characterizations(
    state: DensityMatrix, t_samples: Sequence[float] = DEFAULT_T_SAMPLES
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


def _trotter_traces(rho: DensityMatrix, n_values: Sequence[int]) -> list[tuple[int, float]]:
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
    rho: DensityMatrix,
    n_values: Sequence[int] = DEFAULT_TROTTER_NS,
    tol: float = TOL_INEQ,
) -> Results:
    """Compressed-product traces t_n converging to the surrogate trace.

    t_n = Tr[(rho_AB^(1/2n) rho_B^(-1/2n) rho_BC^(1/n) rho_B^(-1/2n)
    rho_AB^(1/2n))^n].  Every t_n <= 1 is asserted (through the chain link
    on the maximum); convergence is asserted through
    |t_last - Tr S| <= |t_first - Tr S| + tol.  Monotonicity of the sequence
    is recorded in the quantities but never asserted: it is an open question.
    """
    traces = _trotter_traces(rho, n_values)

    def result(trace_surrogate, *ts):
        quantities: dict[str, float] = {"trace_surrogate": trace_surrogate}
        quantities.update((f"t_{n}", t_n) for (n, _), t_n in zip(traces, ts))
        errs = [abs(t - trace_surrogate) for t in ts]
        quantities["err_first"] = errs[0]
        quantities["err_last"] = errs[-1]
        links = [("one", 1.0), ("max_compressed_trace", max(ts))]
        return chain("trotter-bound", links, tol, quantities, bool(errs[-1] <= errs[0] + tol))

    return per_row(result, real_trace(ssa_surrogate(rho)), *(t for _, t in traces))


# ---------------------------------------------------------------------------
# Finite-alpha quantities and the alpha -> 0 operator limit
# ---------------------------------------------------------------------------


def _alpha_compressed(pushed: tuple, alpha: float) -> np.ndarray:
    """{sigma^(a/2) Phi^*(Phi(sigma)^(-a/2) Phi(rho)^a Phi(sigma)^(-a/2)) sigma^(a/2)}^(1/a),
    from the spectra and channel of _pushed."""
    if not 0.0 < alpha < 1.0:
        raise BadAlpha(f"alpha must lie strictly in (0, 1), got {alpha}")
    sigma_eig, img_rho, img_sigma, channel = pushed
    img_sigma_neg = matrix_power(img_sigma.spectrum, -alpha / 2.0)
    mid = hermitize(img_sigma_neg @ matrix_power(img_rho.spectrum, alpha) @ img_sigma_neg)
    s_half = matrix_power(sigma_eig, alpha / 2.0)
    inner = hermitize(s_half @ channel.apply_dual(mid) @ s_half)
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
) -> Results:
    """check_dw_alpha over a whole alpha grid, merged into one result per trial."""
    pushed = _pushed(rho, sigma, channel)
    values = [real_trace(_alpha_compressed(pushed, alpha)) for alpha in alphas]
    return per_row(lambda *row: _q_profile("dw-alpha", alphas, row, tol), *values)


def _q_profile(name: str, alphas, values, tol: float, **extra) -> CheckResult:
    """CheckResult(name, {q_<alpha>: value, ..., **extra}, min(1 - value), tol) for one row's
    compressed traces; each residual in extra must be within TOL_IDENTITY."""
    quantities: dict[str, float] = {}
    worst = math.inf
    for alpha, value in zip(alphas, values):
        quantities[f"q_{alpha!r}"] = value
        worst = min(worst, 1.0 - value)
    quantities.update(extra)
    ok = all(residual <= TOL_IDENTITY for residual in extra.values())
    return CheckResult(name, quantities, worst, tol, extra_ok=ok)


def check_dw_tripartite(
    rho: DensityMatrix,
    alphas: Sequence[float] = DEFAULT_DW_ALPHAS,
    tol: float = TOL_INEQ,
) -> Results:
    """Tripartite specialization of the finite-alpha trace bound.

    Tr[(rho_AB^(a/2) rho_B^(-a/2) rho_BC^a rho_B^(-a/2) rho_AB^(a/2))^(1/a)] <= 1,
    evaluated directly; at the first alpha the generic channel route (trace
    out A, reference rho_AB (x) 1_C/d_C) is recomputed as a cross-check and
    the two routes must agree within TOL_IDENTITY.
    """
    m = _tri_mats(rho)
    eig = {k: herm_eig(m[k]) for k in ("ab", "b", "bc")}
    dims = rho.dims
    values = []
    for alpha in alphas:
        if not 0.0 < alpha < 1.0:
            raise BadAlpha(f"alpha must lie strictly in (0, 1), got {alpha}")
        g = _compressed_product(eig, dims, alpha)
        values.append(real_trace(matrix_power(g, 1.0 / alpha)))
    channel = ptrace_channel(dims, 0)
    reference = np.kron(m["ab"], np.eye(dims[2]) / dims[2])
    pushed = _pushed(m["abc"], reference, channel)
    via_channel = real_trace(_alpha_compressed(pushed, float(alphas[0])))

    def result(via, *row):
        return _q_profile("dw-tripartite", alphas, row, tol, route_residual=abs(via - row[0]))

    return per_row(result, via_channel, *values)


def check_sbw_limit(
    rho: DensityMatrix,
    sigma: DensityMatrix,
    channel: KrausChannel,
    alphas: Sequence[float] = DEFAULT_SBW_ALPHAS,
    tol: float = TOL_INEQ,
) -> Results:
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

    def result(*errs):
        quantities = {f"e_{alpha!r}": e for alpha, e in zip(alphas, errs)}
        decreasing = all(errs[i + 1] <= errs[i] + tol for i in range(len(errs) - 1))
        quantities["e_first"] = errs[0]
        quantities["e_last"] = errs[-1]
        return CheckResult("sbw-limit", quantities, SBW_FINAL_TOL - errs[-1], 0.0, bool(decreasing))

    return per_row(result, *(max_sv(_alpha_compressed(pushed, a) - surrogate) for a in alphas))


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
    x1: SubnormalizedOperator | np.ndarray,
    x2: SubnormalizedOperator | np.ndarray,
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
    x1: SubnormalizedOperator | np.ndarray,
    x2: SubnormalizedOperator | np.ndarray,
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


def check_squashed_proxy(rho: DensityMatrix, tol: float = TOL_INEQ) -> Results:
    """Half the CMI dominates an eighth of the squared distance between the
    AC marginal and the AC reduction of the exp-log surrogate."""
    surrogate = ssa_surrogate(rho)
    rho_ac = rho.marginal([0, 2])
    srg_ac = ptrace(surrogate, rho.dims, [0, 2])

    def result(lhs, dist, tr_ac):
        rhs = 0.125 * dist**2
        quantities = {"half_cmi": lhs, "eighth_dist_sq": rhs, "trace_surrogate_ac": tr_ac}
        return CheckResult("squashed-proxy", quantities, lhs - rhs, tol)

    return per_row(result, 0.5 * cmi(rho), trace_norm(rho_ac - srg_ac), real_trace(srg_ac))


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
# Open inequalities, swept by suites.explore_conjecture and never asserted.
# Each evaluator also takes a stacked chunk of trials (DensityMatrix.stack,
# KrausChannel.stack) and then returns one CheckResult per row, with the bits
# that row's trial gets alone.
# ---------------------------------------------------------------------------


def _recovery_slack(value: float, recovery_distance: float) -> float:
    return value - 0.25 * recovery_distance**2


def _smallest_decrease(*traces: float) -> float:
    return min(t - t_next for t, t_next in zip(traces, traces[1:]))


def explore_stronger_mono(
    rho: DensityMatrix, sigma: DensityMatrix, channel: KrausChannel, tol: float = TOL_INEQ
) -> Results:
    """Relative-entropy gap under a channel vs 1/4 squared Petz-recovery distance."""
    img_rho, img_sigma = channel.apply(rho.mat), channel.apply(sigma.mat)
    gap = relative_entropy(rho, sigma) - relative_entropy(img_rho, img_sigma)
    recovered = PetzMap(channel, sigma, img_sigma).apply(img_rho)
    dist = trace_norm(rho.mat - recovered)
    return _result("stronger-mono", tol, _recovery_slack, relent_gap=gap, recovery_distance=dist)


def explore_ptrace_petz(
    rho_ab: DensityMatrix, sigma_ab: DensityMatrix, tol: float = TOL_INEQ
) -> Results:
    """The same comparison for discarding the second subsystem."""
    dims = _same_dims(rho_ab, sigma_ab)
    channel = ptrace_channel(dims, 1)
    gap = (
        relative_entropy(rho_ab, sigma_ab)
        - relative_entropy(rho_ab.marginal([0]), sigma_ab.marginal([0]))
    )
    recovered = PetzMap(channel, sigma_ab).apply(rho_ab.marginal([0]))
    dist = trace_norm(rho_ab.mat - recovered)
    return _result("ptrace-petz", tol, _recovery_slack, relent_gap=gap, recovery_distance=dist)


def explore_cmi_petz(rho: DensityMatrix, tol: float = TOL_INEQ) -> Results:
    """I(A:C|B) against 1/4 of the squared distance to the Petz reconstruction."""
    m = _tri_mats(rho)
    inv_sqrt_b = embed(matrix_power(m["b"], -0.5), rho.dims, (1,))
    dist = trace_norm(m["abc"] - _petz_recovery(m, m, rho.dims, "ab", inv_sqrt_b))
    return _result("cmi-petz", tol, _recovery_slack, cmi=cmi(rho), recovery_distance=dist)


def explore_trotter_monotone(
    rho: DensityMatrix, tol: float = TOL_INEQ
) -> Results:
    """Smallest decrease t_n - t_2n of the compressed-product traces."""
    traces = _trotter_traces(rho, (1, 2, 4, 8, 16))
    quantities = {f"t_{n}": t for n, t in traces}
    return _result("trotter-monotone", tol, _smallest_decrease, **quantities)
