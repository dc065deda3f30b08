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

is written once, in _sqrt_chain, together with the trace bound Tr S <= 1; _gap_chain anchors
it at the monotonicity gap S(rho||sigma) - S(Phi rho||Phi sigma) for every channel, partial
traces included.

Each checker is written once: given a chunk of trials that suites.iter_results
stacks, it returns each row's CheckResult with the bits of that trial alone
(matrix work on the (n, d, d) stacks, each row's scalar rule through linalg.per_row, as
_result and _sqrt_chain apply it).  The two Markov checkers and check_twirl_identity take
one trial, since their suites' values do not stack.
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
    require_alpha_window,
    von_neumann,
)
from .errors import BadAlpha, BadConfig, DimMismatch, MarginalMismatch, ZeroOverlap
from .linalg import (
    Hermitian,
    dagger,
    each,
    embed,
    first_flagged,
    herm_eig,
    hermitize,
    hs_norm,
    kron,
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
    spectrum_of,
    trace_norm,
    unitary_power,
)
from .results import CheckResult, chain
from .states import (
    AB,
    B,
    BC,
    DensityMatrix,
    MarkovSpec,
    SubnormalizedOperator,
    as_matrix,
    capped,
    grids,
    markov_state,
    require_tripartite,
)
from .tolerances import TOL_IDENTITY, TOL_INEQ, TOL_TRACE

DEFAULT_T_SAMPLES = (0.3, 0.7, 1.1, 1.9)
DEFAULT_TROTTER_NS = (1, 2, 4, 8, 16, 32, 64)
DEFAULT_DW_ALPHAS = (0.9, 0.5, 0.1) + tuple(2.0**-k for k in range(2, 11))
DEFAULT_SBW_ALPHAS = tuple(2.0**-k for k in range(1, 13))
DEFAULT_CL_ALPHAS = (1.5, 2.0, 4.0)
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


def _bipartite_dims(*states: DensityMatrix) -> tuple[int, ...]:
    dims = _same_dims(*states)
    if len(dims) != 2:
        raise DimMismatch(f"need a bipartite split, got {len(dims)} parts")
    return dims


def _spectra(state: DensityMatrix) -> dict:
    """The spectrum of each reduced state AB, B and BC of a tripartite state, keyed by its part."""
    require_tripartite(state)
    return {part: state.reduced(part).spectrum for part in (AB, B, BC)}


def _compressed_product(eig: dict, dims: Sequence[int], ps: Sequence[float]):
    """For each capped block of the orders ps, its grid (states.grids) and the stack, one row per
    order p, of hermitize(rho_AB^(p/2) rho_B^(-p/2) rho_BC^p rho_B^(-p/2) rho_AB^(p/2)) on ABC,
    from the spectra of the three marginals (_spectra), which every order shares."""
    for p in grids(ps, eig[B].eigenvalues.shape[:-1], math.prod(dims)):
        ab_pow = embed(matrix_power(eig[AB], p / 2.0), dims, AB)
        b_neg = embed(matrix_power(eig[B], -p / 2.0), dims, B)
        bc_pow = embed(matrix_power(eig[BC], p), dims, BC)
        yield p, hermitize(ab_pow @ b_neg @ bc_pow @ b_neg @ ab_pow)


def _recovery_distances(state: DensityMatrix, keeps: Sequence[tuple]) -> list:
    """||rho_ABC - R_keep||_1 for each keep of keeps (AB, BC), stacked within the cap, where
    R_keep = rho_keep^(1/2) rho_B^(-1/2) rho_other rho_B^(-1/2) rho_keep^(1/2) on ABC and other
    is the part of AB and BC that keep is not, from the spectra of the reduced states."""
    dims = state.dims
    inv_sqrt_b = embed(matrix_power(state.reduced(B).spectrum, -0.5), dims, B)
    out = []
    for block in capped(keeps, state.mat.size):
        outer = np.stack([embed(matrix_sqrt(state.reduced(k).spectrum), dims, k) for k in block])
        others = [BC if k == AB else AB for k in block]
        inner = np.stack([embed(state.marginal(o), dims, o) for o in others])
        out += list(trace_norm(state.mat - outer @ inv_sqrt_b @ inner @ inv_sqrt_b @ outer))
    return out


def _matched_surrogate(x, y, z, names: tuple[str, str, str]) -> tuple[np.ndarray, float]:
    """exp(log x_AB - log y_B + log z_BC) and the smaller of the deviations ||x_B - y_B||,
    ||y_B - z_B||, which must be within TOL_IDENTITY (else MarginalMismatch naming the states
    by names)."""
    dev_xy = np.asarray(max_sv(x.marginal(B) - y.marginal(B)))
    dev_yz = np.asarray(max_sv(y.marginal(B) - z.marginal(B)))
    apart = row_indices(np.minimum(dev_xy, dev_yz) > TOL_IDENTITY)
    if apart:
        (a, b, c), i = names, apart[0]
        raise MarginalMismatch(
            f"need {a}_B = {b}_B or {b}_B = {c}_B; "
            f"deviations are {dev_xy[i]:.3e} and {dev_yz[i]:.3e}"
        )
    surrogate = exp_log_combination([(1.0, x, AB), (-1.0, y, B), (1.0, z, BC)])
    return surrogate, each(min, dev_xy, dev_yz)


def ssa_surrogate(state: DensityMatrix) -> np.ndarray:
    """exp(log rho_AB - log rho_B + log rho_BC) embedded on the full space."""
    require_tripartite(state)
    return exp_log_combination([(1.0, state, AB), (-1.0, state, B), (1.0, state, BC)])


def _pushed(rho, sigma, channel: KrausChannel) -> tuple:
    """(spectrum of sigma, Phi(rho) and Phi(sigma) as Hermitian, the channel Phi) for
    operators or matrices rho and sigma: what the unital surrogate, every alpha-compression,
    the relative entropy of the images and the Petz map share."""
    img_rho, img_sigma = (Hermitian(channel.apply(x)) for x in (rho, sigma))
    return spectrum_of(sigma), img_rho, img_sigma, channel


def _unital_surrogate(pushed: tuple) -> np.ndarray:
    """exp(log sigma + Phi^*(log Phi rho) - Phi^*(log Phi sigma)) from _pushed."""
    sigma_eig, img_rho, img_sigma, channel = pushed
    combo = matrix_log(sigma_eig) + channel.apply_dual(matrix_log(img_rho))
    return matrix_exp(hermitize(combo - channel.apply_dual(matrix_log(img_sigma))))


def _root_links(rho, other) -> list[tuple[str, float]]:
    """The overlap, square-root and trace-distance links of the descending chain between
    two operators or matrices, or stacks of them."""
    s_rho, s_oth = matrix_sqrt(rho), matrix_sqrt(other)
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
    surrogate: Hermitian | np.ndarray,
    tol: float,
    quantities: dict[str, float] | None = None,
    extra_ok=None,
) -> Results:
    """The shared descending chain anchored at a relative-entropy quantity, as one trial's
    results.chain or each row's for a stacked chunk; extra_ok defaults to the trace bound
    Tr S <= 1 + tol."""
    links = [(anchor_label, anchor)] + _root_links(rho, surrogate)
    labels, k = [label for label, _ in links], len(links)
    q = dict(quantities or {})
    q["trace_surrogate"] = tr_srg = real_trace(as_matrix(surrogate))

    def row_chain(ok, *row):
        return chain(name, list(zip(labels, row)), tol, dict(zip(q, row[k:])), ok)

    ok = (tr_srg <= 1.0 + tol) if extra_ok is None else extra_ok
    return per_row(row_chain, ok, *(v for _, v in links), *q.values())


def _gap_chain(name: str, rho, sigma, after, surrogate, tol: float) -> Results:
    """_sqrt_chain anchored at the monotonicity gap relent_gap = before - after, where before
    is S(rho||sigma) and after the relative entropy of the channel's images."""
    before = relative_entropy(rho, sigma)
    quantities = {"before": before, "after": after}
    return _sqrt_chain(name, "relent_gap", before - after, rho, surrogate, tol, quantities)


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

    values = renyi(alphas, rho, sigma)
    closed = overlap_lower_bound(rho, sigma) if 0.5 in alphas else None
    return per_row(result, closed, *values)


def check_overlap_chain(
    rho: DensityMatrix,
    sigma: SubnormalizedOperator,
    tol: float = TOL_INEQ,
    sigma_base: DensityMatrix | None = None,
    mu: float | None = None,
) -> Results:
    """Relative entropy against a subnormalized reference dominates the
    root-overlap bound, the squared root distance, and a quarter of the
    squared trace distance, in that order.

    When the reference is normalized, the stronger quadratic lower bound
    S >= ||rho - sigma||_1^2 / 2 is asserted as well.  For sigma = mu sigma_base, the exact shift
    rule S(rho||sigma) = S(rho||sigma_base) - log mu holds within TOL_IDENTITY (scaling_residual);
    sigma_base and mu come together or not at all (BadConfig naming the missing one).
    """
    if (sigma_base is None) != (mu is None):
        missing = "mu" if mu is None else "sigma_base"
        raise BadConfig(f"overlap-chain needs sigma_base and mu together, {missing!r} is missing")
    links = [("relative_entropy", relative_entropy(rho, sigma))] + _root_links(rho, sigma)
    labels = [label for label, _ in links]
    base = None if mu is None else relative_entropy(rho, sigma_base)

    def result(trace_sigma, base, mu, *values):
        quantities = {"trace_sigma": trace_sigma}
        extra_ok = True
        s_val, quarter_td_sq = values[0], values[-1]
        if abs(trace_sigma - 1.0) <= TOL_TRACE and not math.isinf(s_val):
            # half the squared trace distance: exactly twice the quarter_td_sq link
            quantities["pinsker_slack"] = pinsker = s_val - 2.0 * quarter_td_sq
            extra_ok = pinsker >= -tol
        if mu is not None:
            quantities["scaling_residual"] = residual = abs(s_val - (base - math.log(mu)))
            extra_ok = extra_ok and residual <= TOL_IDENTITY
        return chain("overlap-chain", list(zip(labels, values)), tol, quantities, extra_ok)

    return per_row(result, real_trace(sigma.mat), base, mu, *(v for _, v in links))


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
    after = relative_entropy(channel.apply(rho), channel.apply(sigma))
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
    pushed = _pushed(rho, sigma, channel)
    after = relative_entropy(pushed[1], pushed[2])
    return _gap_chain("stronger-monotonicity", rho, sigma, after, _unital_surrogate(pushed), tol)


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
    _bipartite_dims(rho_ab, sigma_ab)
    after = relative_entropy(rho_ab.reduced([0]), sigma_ab.reduced([0]))
    surrogate = exp_log_combination([(1.0, sigma_ab, (0, 1)), (-1.0, sigma_ab, (0,)),
                                     (1.0, rho_ab, (0,))])
    return _gap_chain("ptrace-strengthening", rho_ab, sigma_ab, after, surrogate, tol)


def check_ssa_strengthened(rho: DensityMatrix, tol: float = TOL_INEQ) -> Results:
    """Strong subadditivity with the exp-log surrogate refinement.

    I(A:C|B) anchors the chain against exp(log rho_AB - log rho_B + log rho_BC);
    the surrogate trace bound Tr S <= 1 is asserted alongside.
    """
    return _sqrt_chain("ssa", "cmi", cmi(rho), rho, ssa_surrogate(rho), tol)


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
    I(A:C|B) + S(rho_AB||sigma_AB) + S(rho_BC||tau_BC) - S(rho_B||omega_B), within
    TOL_IDENTITY: an identity, so ``tol`` is not read.
    """
    _same_dims(rho, sigma, tau, omega)
    require_tripartite(rho)
    reference = exp_log_combination([(1.0, sigma, AB), (1.0, tau, BC), (-1.0, omega, B)])
    lhs = relative_entropy(rho, reference)
    rhs = (
        cmi(rho)
        + relative_entropy(rho.reduced(AB), sigma.reduced(AB))
        + relative_entropy(rho.reduced(BC), tau.reduced(BC))
        - relative_entropy(rho.reduced(B), omega.reduced(B))
    )
    residual = abs(lhs - rhs)
    return _result("bsw-identity", TOL_IDENTITY, lambda *q: -q[2],
                   lhs=lhs, rhs=rhs, residual=residual)


def check_super_ssa(
    rho: DensityMatrix,
    sigma: DensityMatrix,
    tol: float = TOL_INEQ,
) -> Results:
    """Relative entropy to a two-marginal exp-log reference dominates
    I(A:C|B) plus half the AB and BC relative entropies."""
    _same_dims(rho, sigma)
    require_tripartite(rho)
    reference = exp_log_combination([(1.0, sigma, AB), (1.0, sigma, BC), (-1.0, sigma, B)])
    lhs = relative_entropy(rho, reference)
    rhs = (
        cmi(rho)
        + 0.5 * relative_entropy(rho.reduced(AB), sigma.reduced(AB))
        + 0.5 * relative_entropy(rho.reduced(BC), sigma.reduced(BC))
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
    surrogate = Hermitian(surrogate)
    return _sqrt_chain(
        "three-state-chain",
        "relent_to_surrogate",
        relative_entropy(rho, surrogate),
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
    dims = require_tripartite(rho).dims
    rho_ab, rho_b, rho_bc = (rho.marginal(part) for part in (AB, B, BC))
    anchor = von_neumann(rho.reduced(AB)) + von_neumann(rho.reduced(BC)) - von_neumann(rho)
    surrogate = exp_log_combination([(1.0, rho, AB), (1.0, rho, BC)])
    tr_product = real_trace(embed(rho_ab, dims, AB) @ embed(rho_bc, dims, BC))
    tr_b_sq = real_trace(rho_b @ rho_b)
    gt_ok = (
        (real_trace(surrogate) <= tr_product + tol)
        & (abs(tr_product - tr_b_sq) <= 1e-10)
        & (tr_b_sq <= 1.0 + tol)
    )
    return _sqrt_chain(
        "subadd-exp",
        "entropy_combo",
        anchor,
        rho,
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
# Thresholds for the exact-construction round trip (much tighter than the
# generic inequality tolerance: these are identities up to float noise).
MARKOV_CMI_TOL = 1e-10
MARKOV_RESIDUAL_TOL = 1e-7


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
    eig = _spectra(state)
    whole, dims = state.spectrum, state.dims
    i_val = cmi(state)

    log_combo = (
        matrix_log(whole)
        + embed(matrix_log(eig[B]), dims, B)
        - embed(matrix_log(eig[AB]), dims, AB)
        - embed(matrix_log(eig[BC]), dims, BC)
    )
    r_log = max_sv(log_combo)

    petz = [0.0]  # max_sv of each t's commutation residual, t as one grid per capped block
    for t in grids(t_samples, whole.eigenvalues.shape[:-1], state.dim):
        lhs = unitary_power(whole, t) @ embed(unitary_power(eig[BC], -t), dims, BC)
        rhs = embed(unitary_power(eig[AB], t), dims, AB) @ embed(unitary_power(eig[B], -t), dims, B)
        petz += max_sv(lhs - rhs).tolist()

    recon = _recovery_distances(state, (AB, BC))
    residuals = {"r_log": r_log, "r_petz": max(petz),
                 "r_recon_ab": float(recon[0]), "r_recon_bc": float(recon[1])}
    flags = [r < MARKOV_LIKE_RESIDUAL for r in residuals.values()]
    consistent = all(flags) if i_val < MARKOV_LIKE_CMI else not any(flags)
    quantities = {"cmi": i_val, **residuals}
    return CheckResult("markov-characterizations", quantities, 0.0, 0.0, bool(consistent))


def check_markov_roundtrip(
    spec: MarkovSpec, t_samples: Sequence[float] = DEFAULT_T_SAMPLES, tol: float = TOL_INEQ
) -> CheckResult:
    """The state a MarkovSpec builds has I(A:C|B) = 0: its CMI is below MARKOV_CMI_TOL, and the
    residuals of markov_characterizations and its trace distance r_surrogate to ssa_surrogate
    are below MARKOV_RESIDUAL_TOL.  The slack is the smallest margin; ``tol`` is not read."""
    state = markov_state(spec)
    quantities = markov_characterizations(state, t_samples=t_samples).quantities
    quantities["r_surrogate"] = trace_norm(state.mat - ssa_surrogate(state))
    residuals = [value for key, value in quantities.items() if key != "cmi"]
    slacks = [MARKOV_CMI_TOL - quantities["cmi"]] + [MARKOV_RESIDUAL_TOL - r for r in residuals]
    return CheckResult("markov-roundtrip", quantities, min(slacks), 0.0)


def _psd_int_power(g: np.ndarray, n: int) -> np.ndarray:
    """g^n for PSD g and n >= 1: repeated squaring for powers of two, spectral otherwise."""
    if n & (n - 1) == 0:
        out = g
        while n > 1:
            out = out @ out
            n >>= 1
        return out
    return matrix_power(g, float(n))


def _trotter_traces(rho: DensityMatrix, n_values: Sequence[int]) -> list[tuple[int, float]]:
    """(n, t_n) for each order n: the compressed-product traces of trotter_sequence."""
    require_tripartite(rho)
    n_values = [int(n) for n in n_values]
    if not n_values or any(n < 1 for n in n_values):
        raise BadConfig(f"need positive compression orders, got {n_values}")
    traces = []
    for _, g in _compressed_product(_spectra(rho), rho.dims, [1.0 / n for n in n_values]):
        traces += [real_trace(_psd_int_power(g_n, n)) for g_n, n in zip(g, n_values[len(traces):])]
    return list(zip(n_values, traces))


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


def _alpha_compressed(pushed: tuple, alphas: Sequence[float]):
    """For each capped block of alphas, the stack, one row per alpha, of the compressions
    {sigma^(a/2) Phi^*(Phi(sigma)^(-a/2) Phi(rho)^a Phi(sigma)^(-a/2)) sigma^(a/2)}^(1/a),
    from the spectra and channel of _pushed: one apply_dual and one decomposition per block.
    The caller has checked the orders (require_alpha_window)."""
    sigma_eig, img_rho, img_sigma, channel = pushed
    for a in grids(alphas, sigma_eig.eigenvalues.shape[:-1], max(channel.d_in, channel.d_out)):
        img_sigma_neg = matrix_power(img_sigma, -a / 2.0)
        mid = hermitize(img_sigma_neg @ matrix_power(img_rho, a) @ img_sigma_neg)
        s_half = matrix_power(sigma_eig, a / 2.0)
        inner = hermitize(s_half @ channel.apply_dual(mid) @ s_half)
        yield matrix_power(inner, 1.0 / a)


def dw_alpha_profile(
    rho: DensityMatrix,
    sigma: DensityMatrix,
    channel: KrausChannel,
    alphas: Sequence[float] = DEFAULT_DW_ALPHAS,
    tol: float = TOL_INEQ,
) -> Results:
    """Finite-alpha compressed trace bound: Q_alpha, the trace of the alpha-compression, is at
    most 1 at each alpha of a grid; one result per trial."""
    require_alpha_window(alphas)
    pushed = _pushed(rho, sigma, channel)
    values = [v for q in _alpha_compressed(pushed, alphas) for v in real_trace(q)]
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
    eig = _spectra(rho)
    dims = rho.dims
    require_alpha_window(alphas)
    values = [v for a, g in _compressed_product(eig, dims, alphas)
              for v in real_trace(matrix_power(g, 1.0 / a))]
    channel = ptrace_channel(dims, 0)
    reference = kron(rho.marginal(AB), np.eye(dims[2]) / dims[2])
    pushed = _pushed(rho, reference, channel)
    [via_channel] = real_trace(next(_alpha_compressed(pushed, [float(alphas[0])])))

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
    Phi^*(log Phi sigma))||_inf must decrease, within tol, as alpha descends and end below
    SBW_FINAL_TOL.  Any grid in (0, 1) runs once per distinct order, in descending order.
    """
    alphas = sorted({float(a) for a in alphas}, reverse=True)
    if not alphas:
        raise BadAlpha("need at least one alpha")
    require_alpha_window(alphas)
    pushed = _pushed(rho, sigma, channel)
    surrogate = _unital_surrogate(pushed)

    def result(*errs):
        quantities = {f"e_{alpha!r}": e for alpha, e in zip(alphas, errs)}
        decreasing = all(errs[i + 1] <= errs[i] + tol for i in range(len(errs) - 1))
        quantities["e_first"] = errs[0]
        quantities["e_last"] = errs[-1]
        return CheckResult("sbw-limit", quantities, SBW_FINAL_TOL - errs[-1], 0.0, bool(decreasing))

    errs = [e for q in _alpha_compressed(pushed, alphas) for e in max_sv(q - surrogate)]
    return per_row(result, *errs)


# ---------------------------------------------------------------------------
# Concavity and trace inequalities
# ---------------------------------------------------------------------------


def _concavity_gap(f, x1, x2, lam) -> tuple:
    """(f(lam x1 + (1 - lam) x2), lam f(x1) + (1 - lam) f(x2)) for operators or matrices x1,
    x2 and a weight lam, or stacks of them and the (n,) array of their weights.  f takes a
    spectrum (an operator's cached one is used) and runs on the mixture, then x1, then x2."""
    weight = np.asarray(lam)
    bad = ~((0.0 <= weight) & (weight <= 1.0))
    if bad.any():
        raise BadAlpha(f"mixing weight must be in [0, 1], got {first_flagged(weight, bad)}")
    weight = weight[..., None, None]
    at_mix = f(herm_eig(weight * as_matrix(x1) + (1.0 - weight) * as_matrix(x2)))
    return at_mix, lam * f(spectrum_of(x1)) + (1.0 - lam) * f(spectrum_of(x2))


def check_lieb_concavity(
    h: np.ndarray,
    x1: SubnormalizedOperator | np.ndarray,
    x2: SubnormalizedOperator | np.ndarray,
    lam: float,
    tol: float = TOL_INEQ,
) -> Results:
    """Concavity of X -> Tr exp(H + log X) on positive definite X."""
    h = require_hermitian(h)

    def f(x):
        return real_trace(matrix_exp(hermitize(h + matrix_log(x))))

    f_mix, f_avg = _concavity_gap(f, x1, x2, lam)
    return _result("lieb-concavity", tol, lambda f_mix, f_avg, _: f_mix - f_avg,
                   f_mix=f_mix, f_avg=f_avg, lam=lam)


def check_cl_concavity(
    m: np.ndarray,
    x1: SubnormalizedOperator | np.ndarray,
    x2: SubnormalizedOperator | np.ndarray,
    lam: float,
    alphas: Sequence[float] = DEFAULT_CL_ALPHAS,
    tol: float = TOL_INEQ,
) -> Results:
    """Concavity of X -> Tr (M X^(1/alpha) M^dag)^alpha at each alpha >= 1 of a grid: one
    slack_<alpha> per alpha, and their minimum as the slack."""
    alphas = [float(a) for a in alphas]
    if not alphas or min(alphas) < 1.0:
        raise BadAlpha(f"alphas must be >= 1, got {alphas}")
    m = np.asarray(m, dtype=complex)

    def traces(x):  # the trace at each alpha, one row per alpha
        batch = np.broadcast_shapes(m.shape[:-2], x.eigenvalues.shape[:-1])
        return np.concatenate([
            real_trace(matrix_power(hermitize(m @ matrix_power(x, 1.0 / a) @ dagger(m)), a))
            for a in grids(alphas, batch, m.shape[-1])])

    f_mix, f_avg = _concavity_gap(traces, x1, x2, lam)
    quantities = {f"slack_{a!r}": slack for a, slack in zip(alphas, f_mix - f_avg)}
    return _result("carlen-lieb-concavity", tol, lambda *slacks: min(slacks), **quantities)


def check_golden_thompson(
    a: np.ndarray, b: np.ndarray, tol: float = TOL_INEQ
) -> Results:
    """Tr e^(A+B) <= Tr e^A e^B for Hermitian A, B."""
    a = require_hermitian(a)
    b = require_hermitian(b)
    t_sum = real_trace(matrix_exp(hermitize(a + b)))
    t_prod = real_trace(matrix_exp(a) @ matrix_exp(b))
    return _result("golden-thompson", tol, lambda t_sum, t_prod: t_prod - t_sum,
                   trace_exp_sum=t_sum, trace_exp_product=t_prod)


def check_audenaert_ps(
    m: SubnormalizedOperator | np.ndarray,
    n: SubnormalizedOperator | np.ndarray,
    t_values: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
    tol: float = TOL_INEQ,
) -> Results:
    """Square-root norm chain plus the interpolated trace overlap bound.

    Chain: ||sqrt M - sqrt N||_2 ||sqrt M + sqrt N||_2 >= ||M - N||_1
           >= ||sqrt M - sqrt N||_2^2.
    Extra conditions folded into extra_ok: Tr M^t N^(1-t) >= (Tr M + Tr N -
    ||M-N||_1)/2 for each t, and -2 log Tr sqrt M sqrt N >= ||sqrt M - sqrt
    N||_2^2 whenever both traces are <= 1.
    """
    m_mat, n_mat = as_matrix(m), as_matrix(n)
    m_eig, n_eig = spectrum_of(m), spectrum_of(n)
    sm, sn = matrix_sqrt(m_eig), matrix_sqrt(n_eig)
    for t in t_values:
        if not 0.0 <= t <= 1.0:
            raise BadAlpha(f"interp parameter must be in [0, 1], got {t}")
    batch = np.broadcast_shapes(m_mat.shape[:-2], n_mat.shape[:-2])
    crossed = [c for t in grids(t_values, batch, m_mat.shape[-1])
               for c in real_trace(matrix_power(m_eig, t) @ matrix_power(n_eig, 1.0 - t))]

    def result(hs_diff, hs_sum, td, tr_m, tr_n, overlap, *crossed):
        links = [("norm_product", hs_diff * hs_sum), ("trace_distance", td),
                 ("sqrt_hs_sq", hs_diff**2)]
        half_min = 0.5 * (tr_m + tr_n - td)
        slacks = [c - half_min for c in crossed]
        quantities = {"trace_m": tr_m, "trace_n": tr_n}
        quantities.update(zip((f"audenaert_slack_{t!r}" for t in t_values), slacks))
        extra_ok = min(slacks, default=math.inf) >= -tol
        if tr_m <= 1.0 + TOL_TRACE and tr_n <= 1.0 + TOL_TRACE and overlap > 0.0:
            bound_slack = -2.0 * math.log(overlap) - hs_diff**2
            quantities["overlap_bound_slack"] = bound_slack
            extra_ok = extra_ok and bound_slack >= -tol
        return chain("audenaert-powers-stormer", links, tol, quantities, bool(extra_ok))

    return per_row(result, hs_norm(sm - sn), hs_norm(sm + sn), trace_norm(m_mat - n_mat),
                   real_trace(m_mat), real_trace(n_mat), real_trace(sm @ sn), *crossed)


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
) -> CheckResult:
    """Monte Carlo twirl agrees with the closed form within 5 ||X||_inf / sqrt(n)."""
    x = np.asarray(x, dtype=complex)
    exact = twirl_exact(x, dims)
    estimate = twirl_mc(x, dims, rng, samples)
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
# Each evaluator also takes a stacked chunk of trials (states and channels over
# (n, d, d) stacks) and then returns one CheckResult per row, with the bits
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
    _, img_rho, img_sigma, _ = _pushed(rho, sigma, channel)
    gap = relative_entropy(rho, sigma) - relative_entropy(img_rho, img_sigma)
    recovered = PetzMap(channel, sigma, img_sigma).apply(img_rho)
    dist = trace_norm(rho.mat - recovered)
    return _result("stronger-mono", tol, _recovery_slack, relent_gap=gap, recovery_distance=dist)


def explore_ptrace_petz(
    rho_ab: DensityMatrix, sigma_ab: DensityMatrix, tol: float = TOL_INEQ
) -> Results:
    """The same comparison for discarding the second subsystem."""
    channel = ptrace_channel(_bipartite_dims(rho_ab, sigma_ab), 1)
    rho_a, sigma_a = rho_ab.reduced([0]), sigma_ab.reduced([0])
    gap = relative_entropy(rho_ab, sigma_ab) - relative_entropy(rho_a, sigma_a)
    recovered = PetzMap(channel, sigma_ab).apply(rho_a)
    dist = trace_norm(rho_ab.mat - recovered)
    return _result("ptrace-petz", tol, _recovery_slack, relent_gap=gap, recovery_distance=dist)


def explore_cmi_petz(rho: DensityMatrix, tol: float = TOL_INEQ) -> Results:
    """I(A:C|B) against 1/4 of the squared distance to the Petz reconstruction."""
    [dist] = _recovery_distances(require_tripartite(rho), (AB,))
    return _result("cmi-petz", tol, _recovery_slack, cmi=cmi(rho), recovery_distance=dist)


def explore_trotter_monotone(
    rho: DensityMatrix, tol: float = TOL_INEQ
) -> Results:
    """Smallest decrease t_n - t_2n of the compressed-product traces."""
    traces = _trotter_traces(rho, (1, 2, 4, 8, 16))
    quantities = {f"t_{n}": t for n, t in traces}
    return _result("trotter-monotone", tol, _smallest_decrease, **quantities)
