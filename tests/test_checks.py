"""Tests for the inequality checkers.

Frozen constants were computed independently with scalar probability-vector
arithmetic (see the matching comments); matrix code under test must
reproduce them.
"""

from __future__ import annotations

import re
from unittest import mock

import numpy as np
import pytest

from qelab import checks, entropy, linalg
from qelab.channels import KrausChannel, random_unital_channel
from qelab.checks import (
    DEFAULT_CL_ALPHAS,
    DEFAULT_DW_ALPHAS,
    DEFAULT_SBW_ALPHAS,
    DEFAULT_TROTTER_NS,
    MARKOV_LIKE_CMI,
    check_audenaert_ps,
    check_bsw_identity,
    check_cl_concavity,
    check_dw_tripartite,
    check_golden_thompson,
    check_lieb_concavity,
    check_monotonicity,
    check_overlap_chain,
    check_ptrace_strengthening,
    check_renyi_monotonicity,
    check_sbw_limit,
    check_squashed_proxy,
    check_ssa_strengthened,
    check_stronger_monotonicity,
    check_subadd_exp,
    check_super_ssa,
    check_three_state_chain,
    check_trace_exp_bound,
    check_twirl_identity,
    check_unital_trace_bound,
    dw_alpha_profile,
    markov_characterizations,
    ssa_surrogate,
    trotter_sequence,
)
from qelab.entropy import relative_entropy, renyi
from qelab.errors import (
    BadAlpha,
    BadConfig,
    DimMismatch,
    MarginalMismatch,
    NotHermitian,
    NotUnital,
)
from qelab.linalg import (
    as_matrix,
    hermitize,
    kron,
    matrix_exp,
    matrix_log,
    matrix_power,
    max_sv,
    real_trace,
    spectrum_of,
)
from qelab.states import (
    DensityMatrix,
    MarkovSpec,
    markov_state,
    random_density,
    regularize,
)
from qelab.suites import EXPLORATIONS, explore_conjecture

RNG = np.random.default_rng  # brevity
# the links that _sqrt_chain appends to a chain's anchor
ROOT_LINKS = ("overlap_bound", "sqrt_hs_sq", "quarter_td_sq")


def _pair(d, seed, eps=1e-6):
    rng = RNG(seed)
    return (
        regularize(random_density(d, rng), eps),
        regularize(random_density(d, rng), eps),
    )


def _tri(seed, dims=(2, 2, 2), eps=1e-6):
    rng = RNG(seed)
    d = int(np.prod(dims))
    return DensityMatrix(regularize(random_density(d, rng), eps), dims)


def _product_tri(seed, dims=(2, 2, 2), eps=1e-4):
    rng = RNG(seed)
    parts = [regularize(random_density(d, rng), eps).mat for d in dims]
    full = parts[0]
    for p in parts[1:]:
        full = kron(full, p)
    return DensityMatrix(full, dims)


def _markov(seed, eps=1e-3):
    rng = RNG(seed)
    spec = MarkovSpec(
        d_a=2,
        d_c=2,
        weights=(0.5, 0.5),
        ab_factors=(
            regularize(random_density(4, rng), eps),
            regularize(random_density(2, rng), eps),
        ),
        bc_factors=(
            regularize(random_density(2, rng), eps),
            regularize(random_density(4, rng), eps),
        ),
    )
    return markov_state(spec)


def _diag_tri(entries):
    return DensityMatrix(np.diag(entries), (2, 2, 2))


# classical fixture shared by the identity/chain oracles below:
#   rho_abc = (1..8)/36 on dims (2,2,2), a slow / c fast
#   s_ab = (0.10, 0.15, 0.45, 0.30)  -> s_b = (0.55, 0.45)
#   t_b  = (0.55, 0.45)
#   o_bc = (0.20, 0.35, 0.25, 0.20)  -> o_b = (0.55, 0.45)
W_RHO = np.arange(1, 9) / 36.0
S_AB = np.array([0.10, 0.15, 0.45, 0.30])
T_B = np.array([0.55, 0.45])
O_BC = np.array([0.20, 0.35, 0.25, 0.20])
UNIF2 = np.array([0.5, 0.5])

# frozen scalar-oracle values for the fixture
THREE_STATE_ANCHOR = 0.07223789560135664  # S(w || s_ab * o_bc / t_b)
BSW_LHS = 0.07223789560135664
BSW_RHS = 0.07223789560135667


def _classical_quadruple():
    rho = _diag_tri(W_RHO)
    sigma = _diag_tri(np.kron(S_AB, UNIF2))  # sigma_AB = diag(S_AB)
    tau = _diag_tri(np.kron(UNIF2, np.kron(T_B, UNIF2)))  # tau_B = diag(T_B)
    omega = _diag_tri(np.kron(UNIF2, O_BC))  # omega_BC = diag(O_BC)
    return rho, sigma, tau, omega


# ---------------------------------------------------------------------------
# Renyi monotonicity and the overlap chain
# ---------------------------------------------------------------------------


def test_renyi_monotonicity_self_pair_all_zero():
    rho, _ = _pair(3, 0)
    result = check_renyi_monotonicity(rho, rho)
    assert result.passed
    assert all(abs(v) < 1e-10 for v in result.quantities.values())


def test_renyi_monotonicity_random_pairs():
    for seed in range(5):
        rho, sigma = _pair(4, seed)
        result = check_renyi_monotonicity(rho, sigma)
        assert result.passed
        assert result.slack >= -1e-8


def test_renyi_monotonicity_rejects_bad_grid():
    rho, sigma = _pair(2, 1)
    with pytest.raises(BadAlpha):
        check_renyi_monotonicity(rho, sigma, alphas=(0.5, 0.3))
    with pytest.raises(BadAlpha):
        check_renyi_monotonicity(rho, sigma, alphas=(0.5, 1.2))


def test_overlap_chain_random_and_scaled():
    from qelab.states import SubnormalizedOperator

    rng = RNG(2)
    for _ in range(10):
        rho = regularize(random_density(3, rng), 1e-6)
        sigma = regularize(random_density(3, rng), 1e-6)
        assert check_overlap_chain(rho, sigma).passed
        scaled = SubnormalizedOperator(rng.uniform(0.4, 1.0) * sigma.mat)
        assert check_overlap_chain(rho, scaled).passed


def test_overlap_chain_asserts_the_shift_rule_of_a_scaled_reference():
    from qelab.states import SubnormalizedOperator
    from qelab.tolerances import TOL_IDENTITY

    rho, base = _pair(4, 3)
    scaled = SubnormalizedOperator(0.7 * base.mat)
    result = check_overlap_chain(rho, scaled, sigma_base=base, mu=0.7)
    shift = relative_entropy(rho, base) - np.log(0.7)
    assert result.quantities["scaling_residual"] == abs(result.quantities["relative_entropy"] - shift)
    assert result.quantities["scaling_residual"] <= TOL_IDENTITY and result.passed
    assert "scaling_residual" not in check_overlap_chain(rho, scaled).quantities
    # a weight that does not match the reference fails through extra_ok alone
    wrong = check_overlap_chain(rho, scaled, sigma_base=base, mu=0.6)
    assert wrong.quantities["scaling_residual"] == pytest.approx(np.log(0.7 / 0.6))
    assert wrong.slack == result.slack and not wrong.extra_ok and not wrong.passed


def test_overlap_chain_link_order():
    rho, sigma = _pair(4, 3)
    result = check_overlap_chain(rho, sigma)
    # the links, in chain order, then the extra quantities
    assert list(result.quantities) == [
        "relative_entropy",
        "overlap_bound",
        "sqrt_hs_sq",
        "quarter_td_sq",
        "trace_sigma",
        "pinsker_slack",
    ]


# ---------------------------------------------------------------------------
# Monotonicity family
# ---------------------------------------------------------------------------


def test_monotonicity_identity_channel_zero_slack():
    rho, sigma = _pair(3, 4)
    result = check_monotonicity(rho, sigma, KrausChannel([np.eye(3)]))
    assert abs(result.slack) < 1e-10


def test_monotonicity_random_channels():
    from qelab.channels import random_channel

    rng = RNG(5)
    for _ in range(10):
        rho = regularize(random_density(3, rng), 1e-6)
        sigma = regularize(random_density(3, rng), 1e-6)
        channel = random_channel(3, 2, rng)
        assert check_monotonicity(rho, sigma, channel).slack >= -1e-8


def test_stronger_monotonicity_self_pair_collapses():
    rng = RNG(6)
    rho = regularize(random_density(4, rng), 1e-6)
    channel = random_unital_channel(4, 3, rng)
    result = check_stronger_monotonicity(rho, rho, channel)
    assert result.passed
    assert all(abs(result.quantities[k]) < 1e-8 for k in ("relent_gap", *ROOT_LINKS))
    # the correction operator collapses to sigma itself
    assert result.quantities["trace_surrogate"] == pytest.approx(1.0, abs=1e-8)


def test_stronger_monotonicity_random_unital():
    rng = RNG(7)
    for _ in range(15):
        rho = regularize(random_density(4, rng), 1e-6)
        sigma = regularize(random_density(4, rng), 1e-6)
        channel = random_unital_channel(4, 3, rng)
        result = check_stronger_monotonicity(rho, sigma, channel)
        assert result.passed
        assert result.quantities["trace_surrogate"] <= 1.0 + 1e-8


def test_stronger_monotonicity_rejects_non_unital():
    from qelab.channels import random_channel

    rng = RNG(8)
    for _ in range(10):
        channel = random_channel(3, 3, rng)
        if not channel.is_unital:
            rho, sigma = _pair(3, 9)
            with pytest.raises(NotUnital):
                check_stronger_monotonicity(rho, sigma, channel)
            return
    raise AssertionError("no non-unital channel sampled")


def test_unital_trace_bound_random():
    rng = RNG(10)
    for _ in range(15):
        rho = regularize(random_density(4, rng), 1e-6)
        sigma = regularize(random_density(4, rng), 1e-6)
        channel = random_unital_channel(4, 4, rng)
        result = check_unital_trace_bound(rho, sigma, channel)
        assert result.passed
        assert result.quantities["trace_value"] <= 1.0 + 1e-8


def test_ptrace_strengthening_self_pair_zero():
    state = _tri(11, dims=(2, 2, 2))
    pair = DensityMatrix(state.marginal([0, 1]), state.dims[:2])
    result = check_ptrace_strengthening(pair, pair)
    assert result.passed
    assert all(abs(result.quantities[k]) < 1e-8 for k in ("relent_gap", *ROOT_LINKS))


@pytest.mark.parametrize("dims", [(2, 2, 2), (8,)], ids=["tripartite", "one-part"])
@pytest.mark.parametrize("checker", [check_ptrace_strengthening, checks.explore_ptrace_petz])
def test_ptrace_checker_and_exploration_need_a_bipartite_split(checker, dims):
    rho, sigma = (DensityMatrix(st, dims) for st in _pair(8, 13))
    want = rf"^split mismatch: state 0 has dims {re.escape(str(dims))}, expected 2 dims >= 1$"
    with pytest.raises(DimMismatch, match=want):
        checker(rho, sigma)


def test_ptrace_strengthening_random():
    rng = RNG(12)
    for _ in range(10):
        rho = DensityMatrix(regularize(random_density(4, rng), 1e-6), (2, 2))
        sigma = DensityMatrix(regularize(random_density(4, rng), 1e-6), (2, 2))
        assert check_ptrace_strengthening(rho, sigma).passed


# ---------------------------------------------------------------------------
# SSA strengthening and relatives
# ---------------------------------------------------------------------------


def test_ssa_product_state_all_links_zero():
    state = _product_tri(13)
    result = check_ssa_strengthened(state)
    assert result.passed
    assert all(abs(result.quantities[k]) < 1e-9 for k in ("cmi", *ROOT_LINKS))
    assert max_sv(ssa_surrogate(state) - state.mat) < 1e-9


def test_ssa_random_sweep():
    for seed in range(8):
        assert check_ssa_strengthened(_tri(seed + 20)).passed


def test_ssa_surrogate_subnormalized():
    for seed in range(8):
        tr = real_trace(ssa_surrogate(_tri(seed + 30)))
        assert tr <= 1.0 + 1e-8


def test_trace_exp_bound_classical_saturation():
    # classical matched-middle value is exactly Tr tau_B-marginal = 1
    rho = _diag_tri(W_RHO)
    tau = _diag_tri(np.kron(UNIF2, O_BC))
    result = check_trace_exp_bound(rho, rho, tau)
    assert result.quantities["trace_value"] == pytest.approx(1.0, abs=1e-12)
    assert result.passed


def test_trace_exp_bound_constructed_families():
    # sigma = rho pushed through local channels on A and C keeps rho_B
    from qelab.suites import _perturb_edges

    rng = RNG(14)
    for _ in range(10):
        rho = _tri(int(rng.integers(1 << 30)))
        sigma = _perturb_edges(rho, rng)
        tau = _tri(int(rng.integers(1 << 30)))
        result = check_trace_exp_bound(rho, sigma, tau)
        assert result.passed
        assert result.quantities["trace_value"] <= 1.0 + 1e-8


def test_trace_exp_bound_rejects_unmatched_marginals():
    with pytest.raises(MarginalMismatch):
        check_trace_exp_bound(_tri(15), _tri(16), _tri(17))


def test_bsw_identity_self_quadruple_reduces_to_cmi():
    from qelab.entropy import cmi

    state = _tri(18)
    result = check_bsw_identity(state, state, state, state)
    assert result.passed
    assert result.quantities["lhs"] == pytest.approx(cmi(state), abs=1e-9)
    assert result.quantities["rhs"] == pytest.approx(cmi(state), abs=1e-9)


def test_bsw_identity_classical_oracle():
    rho, sigma, tau_bc, omega_b = _classical_quadruple()
    # roles: sigma -> AB factor, tau -> BC factor, omega -> B divisor
    result = check_bsw_identity(rho, sigma, _diag_tri(np.kron(UNIF2, O_BC)),
                                _diag_tri(np.kron(UNIF2, np.kron(T_B, UNIF2))))
    assert result.quantities["lhs"] == pytest.approx(BSW_LHS, abs=1e-10)
    assert result.quantities["rhs"] == pytest.approx(BSW_RHS, abs=1e-10)
    assert result.quantities["residual"] < 1e-10


def test_bsw_identity_is_judged_at_tol_identity_whatever_tol_says():
    from qelab.tolerances import TOL_IDENTITY

    states = [_tri(seed) for seed in (41, 51, 61, 71)]
    default, loose = check_bsw_identity(*states), check_bsw_identity(*states, tol=1.0)
    assert loose.tolerance == default.tolerance == TOL_IDENTITY
    assert {k: float(v).hex() for k, v in loose.quantities.items()} == {
        k: float(v).hex() for k, v in default.quantities.items()}
    assert float(loose.slack).hex() == float(default.slack).hex()
    assert loose.passed == default.passed


def test_bsw_identity_random_quadruples():
    for seed in range(6):
        result = check_bsw_identity(
            _tri(seed + 40), _tri(seed + 50), _tri(seed + 60), _tri(seed + 70)
        )
        assert result.passed
        assert result.quantities["residual"] < 1e-8


def test_super_ssa_self_reference_saturates():
    state = _tri(19)
    result = check_super_ssa(state, state)
    assert abs(result.slack) < 1e-9


def test_super_ssa_random():
    for seed in range(8):
        assert check_super_ssa(_tri(seed + 80), _tri(seed + 90)).passed


def test_three_state_chain_classical_oracle():
    rho, sigma, tau, omega = _classical_quadruple()
    result = check_three_state_chain(rho, sigma, tau, omega)
    assert result.passed
    anchor = result.quantities["relent_to_surrogate"]
    assert anchor == pytest.approx(THREE_STATE_ANCHOR, abs=1e-10)
    assert result.quantities["trace_surrogate"] == pytest.approx(1.0, abs=1e-12)


def test_three_state_chain_rejects_unmatched():
    with pytest.raises(MarginalMismatch):
        check_three_state_chain(_tri(21), _tri(22), _tri(23), _tri(24))


def test_subadd_exp_trivial_middle():
    # d_B = 1: the B-purity is exactly 1 and everything collapses
    rng = RNG(25)
    full = kron(
        regularize(random_density(2, rng), 1e-4).mat,
        regularize(random_density(2, rng), 1e-4).mat,
    )
    state = DensityMatrix(full, (2, 1, 2))
    result = check_subadd_exp(state)
    assert result.passed
    assert result.quantities["trace_b_sq"] == pytest.approx(1.0, abs=1e-12)


def test_subadd_exp_markov_state():
    state = _markov(26)
    result = check_subadd_exp(state)
    assert result.passed
    combo = result.quantities["entropy_combo"]
    from qelab.entropy import cmi, von_neumann

    expected = von_neumann(state.marginal([1])) + cmi(state)
    assert combo == pytest.approx(expected, abs=1e-9)
    assert combo >= -1e-9


def test_subadd_exp_random_sweep():
    for seed in range(8):
        result = check_subadd_exp(_tri(seed + 100))
        assert result.passed
        # Tr(rho_AB rho_BC embedded) equals Tr rho_B^2 identically
        assert result.quantities["trace_product"] == pytest.approx(
            result.quantities["trace_b_sq"], abs=1e-10
        )


# ---------------------------------------------------------------------------
# Markov characterizations and the compressed-product study
# ---------------------------------------------------------------------------


def test_markov_characterizations_on_markov_state():
    result = markov_characterizations(_markov(27))
    assert result.quantities["cmi"] < MARKOV_LIKE_CMI
    assert result.extra_ok
    q = result.quantities
    assert q["cmi"] < 1e-10
    for key in ("r_log", "r_petz", "r_recon_ab", "r_recon_bc"):
        assert q[key] < 1e-7, key


def test_markov_characterizations_on_product_state():
    result = markov_characterizations(_product_tri(28))
    assert result.quantities["cmi"] < MARKOV_LIKE_CMI
    q = result.quantities
    assert q["cmi"] < 1e-10
    assert q["r_recon_ab"] < 1e-9


def test_markov_characterizations_on_generic_state():
    result = markov_characterizations(_tri(29))
    assert not result.quantities["cmi"] < MARKOV_LIKE_CMI
    assert result.extra_ok  # all four signatures agree it is not Markov
    assert result.quantities["cmi"] > 1e-3


def test_trotter_product_state_constant_one():
    result = trotter_sequence(_product_tri(30))
    for n in DEFAULT_TROTTER_NS:
        assert result.quantities[f"t_{n}"] == pytest.approx(1.0, abs=1e-9), n
    assert result.passed


def test_trotter_markov_state_saturates():
    result = trotter_sequence(_markov(31))
    for n in DEFAULT_TROTTER_NS:
        assert result.quantities[f"t_{n}"] == pytest.approx(1.0, abs=1e-8), n


def test_trotter_random_bound_and_convergence():
    for seed in range(5):
        result = trotter_sequence(_tri(seed + 110))
        assert result.passed
        ts = [result.quantities[f"t_{n}"] for n in DEFAULT_TROTTER_NS]
        assert max(ts) <= 1.0 + 1e-8
        gaps = [abs(t - result.quantities["trace_surrogate"]) for t in ts]
        assert gaps[-1] < gaps[0]


def test_trotter_rejects_bad_orders():
    with pytest.raises(BadConfig):
        trotter_sequence(_tri(32), n_values=())
    with pytest.raises(BadConfig):
        trotter_sequence(_tri(32), n_values=(0,))


# ---------------------------------------------------------------------------
# Finite-alpha compression bound and its operator limit
# ---------------------------------------------------------------------------


def test_dw_alpha_self_pair_trace_one():
    rng = RNG(33)
    rho = regularize(random_density(3, rng), 1e-6)
    channel = random_unital_channel(3, 2, rng)
    result = dw_alpha_profile(rho, rho, channel, alphas=(0.5,))
    assert result.quantities["q_0.5"] == pytest.approx(1.0, abs=1e-9)


def test_dw_alpha_diagonal_oracle():
    # mixed-permutation channel on diagonal states stays classical:
    # frozen value computed by scalar doubly-stochastic arithmetic
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    channel = KrausChannel(
        [np.sqrt(0.7) * np.eye(2), np.sqrt(0.3) * swap]
    )
    rho = DensityMatrix(np.diag([0.65, 0.35]))
    sigma = DensityMatrix(np.diag([0.25, 0.75]))
    result = dw_alpha_profile(rho, sigma, channel, alphas=(0.4,))
    assert result.quantities["q_0.4"] == pytest.approx(
        0.9731742438190949, abs=1e-12
    )
    assert result.passed


def test_dw_alpha_random_grid():
    rng = RNG(34)
    for alpha in (0.1, 0.5, 0.9):
        rho = regularize(random_density(4, rng), 1e-6)
        sigma = regularize(random_density(4, rng), 1e-6)
        channel = random_unital_channel(4, 3, rng)
        result = dw_alpha_profile(rho, sigma, channel, alphas=(alpha,))
        assert result.passed
        assert result.quantities[f"q_{alpha!r}"] <= 1.0 + 1e-8


def test_dw_alpha_rejects_bad_alpha():
    rho, sigma = _pair(2, 35)
    channel = KrausChannel([np.eye(2)])
    for alpha in (0.0, 1.0, -0.5):
        with pytest.raises(BadAlpha):
            dw_alpha_profile(rho, sigma, channel, alphas=(alpha,))


def test_dw_profile_and_tripartite_route():
    rng = RNG(36)
    rho = regularize(random_density(3, rng), 1e-6)
    sigma = regularize(random_density(3, rng), 1e-6)
    channel = random_unital_channel(3, 2, rng)
    profile = dw_alpha_profile(rho, sigma, channel, alphas=(0.5, 0.25, 0.125))
    assert profile.passed
    tri = check_dw_tripartite(_tri(37), alphas=(0.5, 0.25))
    assert tri.passed
    assert tri.quantities["route_residual"] < 1e-8


def _old_alpha_compressed(rho_mat, sigma_mat, channel, alpha):
    """The alpha-compression as computed before its alpha-independent parts were shared."""
    img_rho = channel.apply(rho_mat)
    img_sigma = channel.apply(sigma_mat)
    mid = hermitize(
        matrix_power(img_sigma, -alpha / 2.0)
        @ matrix_power(img_rho, alpha)
        @ matrix_power(img_sigma, -alpha / 2.0)
    )
    s_half = matrix_power(sigma_mat, alpha / 2.0)
    inner = hermitize(s_half @ channel.apply_dual(mid) @ s_half)
    return matrix_power(inner, 1.0 / alpha)


def _old_unital_surrogate(rho_mat, sigma_mat, channel):
    log_img_rho = matrix_log(channel.apply(rho_mat))
    log_img_sigma = matrix_log(channel.apply(sigma_mat))
    combo = (matrix_log(sigma_mat) + channel.apply_dual(log_img_rho)
             - channel.apply_dual(log_img_sigma))
    return matrix_exp(hermitize(combo))


@pytest.mark.parametrize("seed", [70, 71, 72])
def test_alpha_grids_equal_single_alpha_calls(seed):
    rng = RNG(seed)
    rho, sigma = _pair(4, seed)
    channel = random_unital_channel(4, 3, rng)
    profile = dw_alpha_profile(rho, sigma, channel, DEFAULT_DW_ALPHAS)
    values = []
    for alpha in DEFAULT_DW_ALPHAS:
        # fresh objects, so no spectrum cached by the profile is reused
        single = dw_alpha_profile(
            DensityMatrix(rho.mat), DensityMatrix(sigma.mat), channel, alphas=(alpha,)
        )
        old = real_trace(_old_alpha_compressed(rho.mat, sigma.mat, channel, alpha))
        key = f"q_{alpha!r}"
        assert profile.quantities[key] == single.quantities[key] == old
        values.append(old)
    assert profile.slack == min(1.0 - v for v in values)
    sbw = check_sbw_limit(rho, sigma, channel, DEFAULT_SBW_ALPHAS)
    surrogate = _old_unital_surrogate(rho.mat, sigma.mat, channel)
    for alpha in DEFAULT_SBW_ALPHAS:
        old = max_sv(_old_alpha_compressed(rho.mat, sigma.mat, channel, alpha) - surrogate)
        assert sbw.quantities[f"e_{alpha!r}"] == old


def test_sbw_limit_self_pair_zero_error():
    rng = RNG(38)
    rho = regularize(random_density(3, rng), 1e-6)
    channel = random_unital_channel(3, 2, rng)
    result = check_sbw_limit(rho, rho, channel, alphas=(0.5, 0.25, 0.125))
    for key, val in result.quantities.items():
        if key.startswith("e_"):
            assert val < 1e-9, key


def test_sbw_limit_converges():
    rng = RNG(39)
    rho = regularize(random_density(3, rng), 1e-6)
    sigma = regularize(random_density(3, rng), 1e-6)
    channel = random_unital_channel(3, 3, rng)
    result = check_sbw_limit(rho, sigma, channel)
    assert result.passed
    assert result.quantities["e_last"] < 1e-4
    assert result.quantities["e_last"] <= result.quantities["e_first"]


def test_sbw_limit_runs_each_order_once_in_descending_order():
    rng = RNG(40)
    rho = regularize(random_density(2, rng), 1e-6)
    sigma = regularize(random_density(2, rng), 1e-6)
    channel = random_unital_channel(2, 2, rng)
    with pytest.raises(BadAlpha):
        check_sbw_limit(rho, rho, KrausChannel([np.eye(2)]), alphas=(1.5, 0.5))

    def bits(result):
        return ({key: float(value).hex() for key, value in result.quantities.items()},
                float(result.slack).hex(), result.passed)

    grids = [(0.25, 0.5), (0.5, 0.5, 0.25), (0.5, 0.25)]
    results = [bits(check_sbw_limit(rho, sigma, channel, alphas=grid)) for grid in grids]
    assert sorted(results[0][0]) == ["e_0.25", "e_0.5", "e_first", "e_last"]
    assert results[0] == results[1] == results[2]


# each public entry that takes orders in (0, 1), called as (alphas, rho, sigma, channel)
WINDOW_ENTRIES = {
    "renyi": lambda a, rho, sigma, channel: renyi(a, rho, sigma),
    "dw_alpha_profile": lambda a, rho, sigma, channel: dw_alpha_profile(rho, sigma, channel, a),
    "check_dw_tripartite": lambda a, rho, sigma, channel: check_dw_tripartite(rho, a),
    "check_sbw_limit": lambda a, rho, sigma, channel: check_sbw_limit(rho, sigma, channel, a),
}


@pytest.mark.parametrize("entry", sorted(WINDOW_ENTRIES))
def test_each_alpha_entry_checks_the_one_window_once(monkeypatch, entry):
    call = WINDOW_ENTRIES[entry]
    rho, sigma = _tri(62), _tri(63)
    channel = random_unital_channel(8, 3, RNG(64))
    for bad in (0.0, 1.0, -0.1, float("nan")):
        with pytest.raises(BadAlpha, match="strictly between 0 and 1"):
            call([bad], rho, sigma, channel)
    seen = []
    real = entropy.require_alpha_window
    for module in (entropy, checks):
        monkeypatch.setattr(module, "require_alpha_window",
                            lambda alphas: seen.append(alphas) or real(alphas))
    call([0.5, 0.25], rho, sigma, channel)
    assert len(seen) == 1


def test_default_sbw_grid_is_descending_dyadic():
    assert DEFAULT_SBW_ALPHAS[0] == 0.5
    assert all(
        a == pytest.approx(b * 2.0)
        for a, b in zip(DEFAULT_SBW_ALPHAS, DEFAULT_SBW_ALPHAS[1:])
    )


# ---------------------------------------------------------------------------
# Appendix inequalities
# ---------------------------------------------------------------------------


def _rand_herm(d, rng):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2


def test_lieb_concavity_trivial_rows():
    rng = RNG(41)
    h = _rand_herm(3, rng)
    x = regularize(random_density(3, rng), 1e-6).mat
    y = regularize(random_density(3, rng), 1e-6).mat
    same = check_lieb_concavity(h, x, x, 0.3)
    assert abs(same.slack) < 1e-10
    linear = check_lieb_concavity(np.zeros((3, 3)), x, y, 0.5)
    assert abs(linear.slack) < 1e-10  # f reduces to the trace, affine


def test_lieb_concavity_random():
    rng = RNG(42)
    for _ in range(10):
        h = _rand_herm(4, rng)
        x = regularize(random_density(4, rng), 1e-6).mat
        y = regularize(random_density(4, rng), 1e-6).mat
        assert check_lieb_concavity(h, x, y, 0.5).slack >= -1e-8


def test_cl_concavity_trivial_rows():
    rng = RNG(43)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    x = regularize(random_density(3, rng), 1e-6).mat
    y = regularize(random_density(3, rng), 1e-6).mat
    linear = check_cl_concavity(m, x, y, 0.4, alphas=(1.0,))
    assert abs(linear.slack) < 1e-10
    same = check_cl_concavity(m, x, x, 0.4, alphas=(2.0,))
    assert abs(same.slack) < 1e-10
    with pytest.raises(BadAlpha):
        check_cl_concavity(m, x, y, 0.4, alphas=(0.5,))


def test_cl_concavity_random_grid():
    rng = RNG(44)
    for _ in range(3):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        x = regularize(random_density(4, rng), 1e-6).mat
        y = regularize(random_density(4, rng), 1e-6).mat
        assert check_cl_concavity(m, x, y, 0.5).slack >= -1e-8


def _old_cl_slacks(m, x1, x2, lam):
    """slack_<alpha> by the per-alpha loop the grid checker replaced, which built and
    decomposed the mixture once per alpha."""
    m = np.asarray(m, dtype=complex)
    slacks = {}
    for alpha in DEFAULT_CL_ALPHAS:

        def f(x):
            core = hermitize(m @ matrix_power(x, 1.0 / alpha) @ m.conj().T)
            return real_trace(matrix_power(core, alpha))

        f_mix = f(lam * as_matrix(x1) + (1.0 - lam) * as_matrix(x2))
        f_avg = lam * f(spectrum_of(x1)) + (1.0 - lam) * f(spectrum_of(x2))
        slacks[f"slack_{alpha!r}"] = f_mix - f_avg
    return slacks


@pytest.mark.parametrize("seed", [90, 91, 92])
@pytest.mark.parametrize("wrap", [np.asarray, DensityMatrix], ids=["raw", "density"])
def test_cl_grid_equals_the_per_alpha_loop_and_decomposes_the_mixture_once(seed, wrap):
    rng = RNG(seed)
    d = 2 + seed % 3
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    x1 = wrap(regularize(random_density(d, rng), 1e-6).mat)
    x2 = wrap(regularize(random_density(d, rng), 1e-6).mat)
    lam = float(rng.uniform(0.05, 0.95))
    old = _old_cl_slacks(m, x1, x2, lam)
    spy = mock.Mock(wraps=linalg.herm_eig)
    with mock.patch.object(checks, "herm_eig", spy), mock.patch.object(linalg, "herm_eig", spy):
        result = check_cl_concavity(m, x1, x2, lam)
    assert result.name == "carlen-lieb-concavity"
    assert {k: v.hex() for k, v in result.quantities.items()} == {
        k: v.hex() for k, v in old.items()
    }
    assert result.slack.hex() == min(old.values()).hex()
    mixture = lam * as_matrix(x1) + (1.0 - lam) * as_matrix(x2)
    decomposed = [call.args[0] for call in spy.call_args_list]
    assert sum(np.array_equal(h, mixture) for h in decomposed) == 1


def test_golden_thompson_trivial_rows():
    rng = RNG(45)
    # commuting pair
    base = _rand_herm(4, rng)
    a, b = 0.7 * base, -0.2 * base
    assert abs(check_golden_thompson(a, b).slack) < 1e-9
    # zero second argument
    assert abs(check_golden_thompson(base, np.zeros((4, 4))).slack) < 1e-10


def test_golden_thompson_random():
    rng = RNG(46)
    for _ in range(10):
        assert check_golden_thompson(
            _rand_herm(6, rng), _rand_herm(6, rng)
        ).slack >= -1e-8


def test_audenaert_equal_inputs_all_ties():
    rng = RNG(47)
    m = 0.8 * regularize(random_density(3, rng), 1e-6).mat
    result = check_audenaert_ps(m, m)
    assert result.passed
    links = result.quantities
    assert links["trace_distance"] == pytest.approx(0.0, abs=1e-10)
    assert links["sqrt_hs_sq"] == pytest.approx(0.0, abs=1e-10)


def test_audenaert_diagonal_oracle():
    # frozen values for M = diag(.5,.3), N = diag(.4,.2)
    m = np.diag([0.5, 0.3])
    n = np.diag([0.4, 0.2])
    result = check_audenaert_ps(m, n, t_values=(0.5,))
    links = result.quantities
    assert links["trace_distance"] == pytest.approx(0.2, abs=1e-12)
    assert links["sqrt_hs_sq"] == pytest.approx(0.015674860443448502, abs=1e-12)
    assert links["norm_product"] == pytest.approx(
        np.sqrt(0.015674860443448502) * 1.6686297191278092, abs=1e-12
    )
    # Tr M^.5 N^.5 - (Tr M + Tr N - ||M-N||_1)/2
    assert result.quantities["audenaert_slack_0.5"] == pytest.approx(
        0.6921625697782758 - 0.6000000000000001, abs=1e-12
    )
    assert result.passed


def test_audenaert_random_psd_pairs():
    rng = RNG(48)
    for _ in range(10):
        m = 0.9 * regularize(random_density(4, rng), 1e-6).mat
        n = 0.7 * regularize(random_density(4, rng), 1e-6).mat
        assert check_audenaert_ps(m, n).passed
    with pytest.raises(BadAlpha):
        check_audenaert_ps(m, n, t_values=(1.5,))


# ---------------------------------------------------------------------------
# Squashed-entanglement proxy and the twirl
# ---------------------------------------------------------------------------


def test_squashed_proxy_markov_saturates_to_zero():
    result = check_squashed_proxy(_markov(49))
    assert result.quantities["half_cmi"] < 1e-9
    assert result.quantities["eighth_dist_sq"] < 1e-9


def test_squashed_proxy_random():
    for seed in range(8):
        result = check_squashed_proxy(_tri(seed + 120))
        assert result.passed


def test_twirl_identity_within_bound():
    rng = RNG(50)
    x = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    x = (x + x.conj().T) / 2
    result = check_twirl_identity(x, (2, 3), rng, samples=2000)
    assert result.passed
    assert result.quantities["mc_error"] < result.quantities["bound"]


# ---------------------------------------------------------------------------
# Conjecture explorer
# ---------------------------------------------------------------------------


def test_explore_unknown_kind_rejected():
    with pytest.raises(BadConfig):
        explore_conjecture("not-a-kind", 5, (2, 2, 2), 0)
    with pytest.raises(BadConfig):
        explore_conjecture("cmi-petz", 0, (2, 2, 2), 0)


def test_explore_reports_are_deterministic():
    r1 = explore_conjecture("cmi-petz", 40, (2, 2, 2), 5)
    r2 = explore_conjecture("cmi-petz", 40, (2, 2, 2), 5)
    assert r1["min_slack"] == r2["min_slack"]
    assert r1["worst_trial"] == r2["worst_trial"]
    assert r1["histogram"]["counts"] == r2["histogram"]["counts"]
    assert r1 == r2


def test_explore_all_kinds_smoke():
    for kind in EXPLORATIONS:
        report = explore_conjecture(kind, 15, (2, 2, 2), 3)
        assert report["trials"] == 15
        assert sum(report["histogram"]["counts"]) == 15
        assert not report["candidate_counterexample"]


def test_explore_cmi_petz_saturates_on_markov_input():
    # the evaluator's slack collapses to ~0 on an exactly recoverable state
    result = EXPLORATIONS["cmi-petz"].run({"rho": _markov(51)}, 1e-8, {})
    slack, quantities = result.slack, result.quantities
    assert abs(slack) < 1e-7
    assert quantities["cmi"] < 1e-9
    assert quantities["recovery_distance"] < 1e-6


def test_explore_trotter_monotone_records_differences():
    result = EXPLORATIONS["trotter-monotone"].run({"rho": _tri(52)}, 1e-8, {})
    slack, quantities = result.slack, result.quantities
    assert set(quantities) == {"t_1", "t_2", "t_4", "t_8", "t_16"}
    # observed monotone decrease on generic states; recorded, not asserted
    assert slack > -1e-6


def _counting(monkeypatch, owner, attr):
    calls = []
    real = getattr(owner, attr)
    monkeypatch.setattr(owner, attr, lambda *a, **k: calls.append(1) or real(*a, **k))
    return calls


def test_explore_trotter_monotone_decomposes_only_the_three_marginals(monkeypatch):
    expected = trotter_sequence(_tri(53), n_values=(1, 2, 4, 8, 16)).quantities
    state = _tri(53)  # the same state, whose reduced states have no spectra yet
    eighs = _counting(monkeypatch, np.linalg, "eigh")
    quantities = EXPLORATIONS["trotter-monotone"].run({"rho": state}, 1e-8, {}).quantities
    assert len(eighs) == 3
    assert quantities == {key: expected[key] for key in quantities}
    EXPLORATIONS["trotter-monotone"].run({"rho": state}, 1e-8, {})
    assert len(eighs) == 3  # the reduced states keep their spectra


def test_stronger_monotonicity_pushes_each_image_once(monkeypatch):
    rho, sigma = _pair(6, 54)
    channel = random_unital_channel(6, 3, RNG(55))
    after = relative_entropy(channel.apply(rho.mat), channel.apply(sigma.mat))
    applies = _counting(monkeypatch, KrausChannel, "apply")
    dual_applies = _counting(monkeypatch, KrausChannel, "apply_dual")
    result = check_stronger_monotonicity(rho, sigma, channel)
    # Phi(rho), Phi(sigma), and two dual applies in the surrogate
    assert len(applies) == 2
    assert len(dual_applies) == 2
    assert result.quantities["after"] == after


# ---------------------------------------------------------------------------
# Non-Hermitian input is still rejected at every boundary
# ---------------------------------------------------------------------------


def _skewed(x):
    bad = np.array(x, dtype=complex)
    bad[0, 1] += 0.1
    return bad


_RNG80 = RNG(80)
_H = _rand_herm(3, _RNG80)
_X1 = regularize(random_density(3, _RNG80), 1e-6).mat
_X2 = regularize(random_density(3, _RNG80), 1e-6).mat
_M = _RNG80.normal(size=(3, 3)) + 1j * _RNG80.normal(size=(3, 3))
NON_HERMITIAN_CASES = {
    "golden-thompson-a": lambda: check_golden_thompson(_skewed(_H), _H),
    "golden-thompson-b": lambda: check_golden_thompson(_H, _skewed(_H)),
    "lieb-h": lambda: check_lieb_concavity(_skewed(_H), _X1, _X2, 0.5),
    "lieb-x1": lambda: check_lieb_concavity(_H, _skewed(_X1), _X2, 0.5),
    "carlen-lieb-x1": lambda: check_cl_concavity(_M, _skewed(_X1), _X2, 0.5, (2.0,)),
    "matrix-log": lambda: matrix_log(_skewed(_X1)),
    "relative-entropy-rho": lambda: relative_entropy(_skewed(_X1), _X2),
    "relative-entropy-sigma": lambda: relative_entropy(_X1, _skewed(_X2)),
}


@pytest.mark.parametrize("case", sorted(NON_HERMITIAN_CASES))
def test_non_hermitian_input_raises_at_each_boundary(case):
    with pytest.raises(NotHermitian):
        NON_HERMITIAN_CASES[case]()


@pytest.mark.parametrize("check, decompositions", [
    # the mixture, x1 and x2 once each, and on each of the three the alpha grid's cores as
    # one stack
    (lambda: check_cl_concavity(_M, _X1, _X2, 0.5), 3 + 3),
    # the mixture, x1 and x2, and each one's exponential
    (lambda: check_lieb_concavity(_H, _X1, _X2, 0.5), 6),
], ids=["carlen-lieb", "lieb"])
def test_raw_concavity_operands_are_decomposed_once(check, decompositions, monkeypatch):
    eighs = _counting(monkeypatch, np.linalg, "eigh")
    check()
    assert len(eighs) == decompositions
