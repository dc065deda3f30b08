"""Tests for entropy functionals against independently computed values.

Frozen reference numbers below were produced by direct scalar evaluation of
the classical formulas (probability vectors, natural log), independent of
the matrix implementations under test.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qelab import entropy, suites
from qelab.channels import random_channel
from qelab.entropy import (
    cmi,
    exp_log_combination,
    overlap_lower_bound,
    relative_entropy,
    renyi,
    von_neumann,
)
from qelab.errors import (
    BadAlpha,
    NonFinite,
    NotHermitian,
    NotPSD,
    NotTripartite,
    SingularTerm,
    ZeroOverlap,
)
from qelab.linalg import (
    herm_eig,
    kron,
    matrix_log,
    max_sv_within,
    real_trace,
    spectrum_of,
    support_projector,
    trace_norm,
)
from qelab.states import (
    DensityMatrix,
    SubnormalizedOperator,
    as_matrix,
    random_density,
    regularize,
)
from qelab.tolerances import DEFAULT_EPS, SUPPORT_LEAK_TOL, TOL_INEQ
from helpers import cmi_relative_entropy_form, random_tripartite

# scalar oracles, frozen
VN_DIAG_34_14 = 0.5623351446188083  # -(3/4 ln 3/4 + 1/4 ln 1/4)
KL_73_46 = 0.18378689738681217  # sum p ln(p/q), p=(.7,.3), q=(.4,.6)
RENYI03_73_46 = 0.057615602853543536  # (alpha-1)^-1 ln sum p^a q^(1-a), a=0.3
RENYI05_73_46 = 0.09541140987375521  # same at a=0.5; equals -2 ln sum sqrt(pq)
CMI_1TO8 = 0.0023907280987455204  # classical I(A:C|B) of p_abc = (1..8)/36

P_DIAG = np.diag([0.7, 0.3])
Q_DIAG = np.diag([0.4, 0.6])


def test_von_neumann_pure_state_is_zero():
    assert von_neumann(np.diag([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)


def test_von_neumann_maximally_mixed():
    for d in (2, 3, 5):
        assert von_neumann(np.eye(d) / d) == pytest.approx(np.log(d), abs=1e-12)


def test_von_neumann_frozen_value():
    assert von_neumann(np.diag([0.75, 0.25])) == pytest.approx(
        VN_DIAG_34_14, abs=1e-12
    )


def test_von_neumann_basis_invariance():
    rng = np.random.default_rng(0)
    from qelab.states import random_unitary

    u = random_unitary(4, rng)
    rho = random_density(4, rng)
    assert von_neumann(u @ rho.mat @ u.conj().T) == pytest.approx(
        von_neumann(rho.mat), abs=1e-10
    )


def test_von_neumann_rejects_a_non_psd_input():
    with pytest.raises(NotPSD):
        von_neumann(-np.eye(2))


def test_von_neumann_rejects_a_non_hermitian_input():
    with pytest.raises(NotHermitian):
        von_neumann(np.array([[0.5, 0.3], [0.0, 0.5]]))


@pytest.mark.parametrize("fn, expected", [
    (relative_entropy, np.log(2.0)),
    (lambda r, s: renyi(0.3, r, s), np.log(2.0)),
    (overlap_lower_bound, np.log(2.0)),
], ids=["relative_entropy", "renyi", "overlap_lower_bound"])
def test_a_valid_state_with_a_tiny_negative_eigenvalue_evaluates(fn, expected):
    rho = DensityMatrix(np.diag([1.0 + 5e-11, -5e-11]))  # within the PSD slack
    assert fn(rho, DensityMatrix(np.eye(2) / 2)) == pytest.approx(expected, abs=1e-9)


def test_relative_entropy_self_is_zero():
    rho = random_density(3, np.random.default_rng(1))
    assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-10)


def test_relative_entropy_classical_oracle():
    out = relative_entropy(P_DIAG, Q_DIAG)
    assert out == pytest.approx(KL_73_46, abs=1e-12)


def test_relative_entropy_disjoint_support_is_infinite():
    rho = DensityMatrix(np.diag([1.0, 0.0]))
    sigma = DensityMatrix(np.diag([0.0, 1.0]))
    out = relative_entropy(rho, sigma)
    assert out == np.inf


def test_relative_entropy_support_inclusion_is_finite():
    # sigma full rank, rho rank deficient: finite on rho's support
    rho = DensityMatrix(np.diag([1.0, 0.0]))
    sigma = DensityMatrix(np.diag([0.5, 0.5]))
    out = relative_entropy(rho, sigma)
    assert out == pytest.approx(np.log(2.0), abs=1e-12)


def test_relative_entropy_zero_iff_equal():
    rng = np.random.default_rng(2)
    rho = regularize(random_density(3, rng), 1e-6)
    sigma = regularize(random_density(3, rng), 1e-6)
    dist = trace_norm(rho.mat - sigma.mat)
    assert dist > 1e-3  # sanity: a generic pair is far apart
    assert relative_entropy(rho, sigma) > 0.125 * dist**2  # Pinsker-ish
    assert relative_entropy(rho, rho) < 1e-12


def test_pinsker_bound():
    rng = np.random.default_rng(3)
    for _ in range(50):
        rho = regularize(random_density(4, rng), 1e-6)
        sigma = regularize(random_density(4, rng), 1e-6)
        s = relative_entropy(rho, sigma)
        assert s >= 0.5 * trace_norm(rho.mat - sigma.mat) ** 2 - 1e-8


def test_renyi_self_is_zero():
    rho = random_density(3, np.random.default_rng(4))
    assert renyi(0.5, rho, rho) == pytest.approx(0.0, abs=1e-10)


def test_renyi_classical_oracle():
    assert renyi(0.3, P_DIAG, Q_DIAG) == pytest.approx(
        RENYI03_73_46, abs=1e-12
    )
    assert renyi(0.5, P_DIAG, Q_DIAG) == pytest.approx(
        RENYI05_73_46, abs=1e-12
    )


def test_renyi_half_equals_overlap_bound():
    rng = np.random.default_rng(5)
    for _ in range(10):
        rho = regularize(random_density(3, rng), 1e-6)
        sigma = regularize(random_density(3, rng), 1e-6)
        assert renyi(0.5, rho, sigma) == pytest.approx(
            overlap_lower_bound(rho, sigma), abs=1e-10
        )


def test_renyi_rejects_alpha_outside_unit_interval():
    rho = random_density(2, np.random.default_rng(6))
    for alpha in (0.0, 1.0, -0.3, 1.7):
        with pytest.raises(BadAlpha):
            renyi(alpha, rho, rho)


def test_renyi_monotone_in_alpha():
    rng = np.random.default_rng(7)
    rho = regularize(random_density(4, rng), 1e-6)
    sigma = regularize(random_density(4, rng), 1e-6)
    values = [renyi(a, rho, sigma) for a in np.linspace(0.05, 0.95, 19)]
    diffs = np.diff(values)
    assert diffs.min() >= -1e-10


def test_renyi_approaches_relative_entropy():
    rng = np.random.default_rng(8)
    rho = regularize(random_density(3, rng), 1e-6)
    sigma = regularize(random_density(3, rng), 1e-6)
    s = relative_entropy(rho, sigma)
    gaps = [s - renyi(1.0 - 2.0**-k, rho, sigma) for k in range(1, 13)]
    assert all(g >= -1e-9 for g in gaps)  # approach from below
    assert gaps[-1] < gaps[0] / 100.0  # and the gap really closes


def test_overlap_bound_zero_for_equal_states():
    rho = random_density(3, np.random.default_rng(9))
    assert overlap_lower_bound(rho, rho) == pytest.approx(0.0, abs=1e-10)


def test_overlap_bound_scaling_identity():
    # bound(rho, mu sigma) = bound(rho, sigma) - ln mu
    rng = np.random.default_rng(10)
    rho = regularize(random_density(3, rng), 1e-6)
    sigma = regularize(random_density(3, rng), 1e-6)
    mu = 0.6
    scaled = SubnormalizedOperator(mu * sigma.mat)
    assert overlap_lower_bound(rho, scaled) == pytest.approx(
        overlap_lower_bound(rho, sigma) - np.log(mu), abs=1e-10
    )


def test_relative_entropy_scaling_identity():
    rng = np.random.default_rng(11)
    rho = regularize(random_density(3, rng), 1e-6)
    sigma = regularize(random_density(3, rng), 1e-6)
    mu = 0.35
    scaled = SubnormalizedOperator(mu * sigma.mat)
    assert relative_entropy(rho, scaled) == pytest.approx(
        relative_entropy(rho, sigma) - np.log(mu), abs=1e-10
    )


def test_overlap_bound_nonnegative_for_subnormalized():
    rng = np.random.default_rng(12)
    for _ in range(20):
        rho = regularize(random_density(3, rng), 1e-6)
        mu = rng.uniform(0.3, 1.0)
        sigma = SubnormalizedOperator(
            mu * regularize(random_density(3, rng), 1e-6).mat
        )
        assert overlap_lower_bound(rho, sigma) >= -1e-10


def test_overlap_bound_orthogonal_supports():
    rho = DensityMatrix(np.diag([1.0, 0.0]))
    sigma = DensityMatrix(np.diag([0.0, 1.0]))
    with pytest.raises(ZeroOverlap):
        overlap_lower_bound(rho, sigma)


def test_cmi_product_state_is_zero():
    rng = np.random.default_rng(13)
    parts = [random_density(2, rng).mat for _ in range(3)]
    state = DensityMatrix(kron(parts[0], kron(parts[1], parts[2])), (2, 2, 2))
    assert cmi(state) == pytest.approx(0.0, abs=1e-12)


def test_cmi_classical_oracle():
    w = np.arange(1, 9) / 36.0
    state = DensityMatrix(np.diag(w), (2, 2, 2))
    assert cmi(state) == pytest.approx(CMI_1TO8, abs=1e-12)


def test_cmi_two_forms_agree():
    rng = np.random.default_rng(14)
    for _ in range(10):
        state = random_tripartite((2, 2, 2), rng)
        assert cmi(state) == pytest.approx(
            cmi_relative_entropy_form(state), abs=1e-9
        )


def test_cmi_nonnegative():
    rng = np.random.default_rng(15)
    for _ in range(25):
        state = random_tripartite((2, 3, 2), rng)
        assert cmi(state) >= -1e-8


def test_cmi_requires_three_parts():
    rng = np.random.default_rng(16)
    pair = DensityMatrix(random_density(4, rng), (2, 2))
    with pytest.raises(NotTripartite):
        cmi(pair)


def test_exp_log_single_term_roundtrip():
    rng = np.random.default_rng(17)
    rho = regularize(random_density(4, rng), 1e-6)
    out = exp_log_combination([(1, rho, (0,))])
    np.testing.assert_allclose(out, rho.mat, atol=1e-10)


def test_exp_log_diagonal_oracle():
    # exp(log a - log b + log c) = a*c/b elementwise for commuting diagonals
    a = DensityMatrix(np.diag([0.5, 0.5]))
    b = DensityMatrix(np.diag([0.3, 0.7]))
    c = DensityMatrix(np.diag([0.2, 0.8]))
    out = exp_log_combination([(1, a, (0,)), (-1, b, (0,)), (1, c, (0,))])
    np.testing.assert_allclose(
        np.diag(out).real,
        [0.33333333333333337, 0.5714285714285715],
        atol=1e-12,
    )
    assert np.trace(out).real == pytest.approx(0.9047619047619049, abs=1e-12)


def test_exp_log_product_state_structure():
    # for a product state, exp(log r_AB - log r_B + log r_BC) = r_A x r_B x r_C
    rng = np.random.default_rng(18)
    parts = [regularize(random_density(2, rng), 1e-4).mat for _ in range(3)]
    full = kron(parts[0], kron(parts[1], parts[2]))
    state = DensityMatrix(full, (2, 2, 2))
    out = exp_log_combination([(1, state, (0, 1)), (-1, state, (1,)), (1, state, (1, 2))])
    np.testing.assert_allclose(out, full, atol=1e-9)


def test_exp_log_rejects_rank_deficient_term():
    with pytest.raises(SingularTerm):
        exp_log_combination([(1, DensityMatrix(np.diag([1.0, 0.0])), (0,))])
    with pytest.raises(SingularTerm):
        exp_log_combination([])


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _stack(states):
    """The states as one DensityMatrix over the stack of their matrices, on their dims."""
    return DensityMatrix(np.stack([st.mat for st in states]), states[0].dims)


def test_stacked_entropies_give_each_row_its_own_bits():
    # rows with a partial support, a pure state and a reference whose support rho leaks out of
    rng = np.random.default_rng(71)
    rhos = [random_density(4, rng), random_density(4, rng, rank=2), random_density(4, rng, rank=1),
            random_density(4, rng)]
    sigmas = [random_density(4, rng), random_density(4, rng), random_density(4, rng),
              random_density(4, rng, rank=2)]
    rho, sigma = _stack(rhos), _stack(sigmas)
    entropies = von_neumann(rho)
    relents = relative_entropy(rho, sigma)
    raw = relative_entropy(rho.mat, sigma.mat)
    assert np.isinf(relents[3]) and np.isfinite(relents[:3]).all()
    for i, (r, s) in enumerate(zip(rhos, sigmas)):
        assert _same_bits(entropies[i], von_neumann(r))
        assert _same_bits(relents[i], relative_entropy(r, s))
        assert _same_bits(raw[i], relative_entropy(r.mat, s.mat))
    # every row leaking
    leaky = _stack([sigmas[3], sigmas[3]])
    full = _stack(rhos[:1] * 2)
    assert np.isinf(relative_entropy(full, leaky)).all()


def test_the_leak_verdict_takes_an_svd_for_a_leaking_row_alone(monkeypatch):
    rng = np.random.default_rng(72)
    rhos = [random_density(4, rng) for _ in range(3)]
    sigmas = [random_density(4, rng), random_density(4, rng, rank=2), random_density(4, rng)]
    rho, sigma = _stack(rhos), _stack(sigmas)
    full_rho, full_sigma = _stack(rhos[::2]), _stack(sigmas[::2])
    real, shapes = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd",
                        lambda x, *a, **k: shapes.append(x.shape) or real(x, *a, **k))
    assert np.isfinite(relative_entropy(full_rho, full_sigma)).all()
    assert np.isfinite(relative_entropy(rhos[0], sigmas[0]))
    assert shapes == []  # a full-support sigma: the Frobenius bound settles the verdict
    relents = relative_entropy(rho, sigma)
    assert shapes == [(1, 4, 4)]
    assert np.isinf(relents[1]) and np.isfinite(relents[::2]).all()


def test_stacked_renyi_overlap_cmi_and_exp_log_give_each_row_its_own_bits():
    rng = np.random.default_rng(76)
    rhos = [regularize(random_tripartite((2, 2, 2), rng), 1e-3) for _ in range(3)]
    sigmas = [regularize(random_tripartite((2, 2, 2), rng), 1e-3) for _ in range(3)]
    rho, sigma = _stack(rhos), _stack(sigmas)
    surrogates = exp_log_combination([(1.0, rho, (0, 1)), (-1.0, rho, (1,)), (1.0, sigma, (1, 2))])
    for i, (r, s) in enumerate(zip(rhos, sigmas)):
        assert _same_bits(renyi(0.3, rho, sigma)[i], renyi(0.3, r, s))
        assert _same_bits(overlap_lower_bound(rho, sigma)[i], overlap_lower_bound(r, s))
        assert _same_bits(cmi(rho)[i], cmi(r))
        alone = exp_log_combination([(1.0, r, (0, 1)), (-1.0, r, (1,)), (1.0, s, (1, 2))])
        assert _same_bits(surrogates[i], alone)
    # one singular row makes the stack raise, with that row's message
    singular = random_density(4, rng, rank=2)
    with pytest.raises(SingularTerm) as alone:
        exp_log_combination([(1.0, singular, (0,))])
    both = DensityMatrix(np.stack([rhos[0].marginal([0, 1]), singular.mat]))
    with pytest.raises(SingularTerm) as stacked:
        exp_log_combination([(1.0, both, (0,))])
    assert str(stacked.value) == str(alone.value)


# ---------------------------------------------------------------------------
# The support-leak test runs only where sigma has a kernel
# ---------------------------------------------------------------------------


def _relative_entropy_leak_test_everywhere(rho, sigma):
    """relative_entropy as it was written before the leak test was confined to the rows whose
    sigma has a kernel: every row takes the projector, the two products and the leak norm."""
    r, s = as_matrix(rho), as_matrix(sigma)
    s_eig = spectrum_of(sigma)
    off = np.eye(s.shape[-1]) - support_projector(s_eig)
    inside = max_sv_within(off @ r @ off, SUPPORT_LEAK_TOL, strict=True)
    log_r = matrix_log(spectrum_of(rho), support_only=True)
    log_s = matrix_log(s_eig, support_only=True)
    value = np.where(inside, real_trace(r @ (log_r - log_s)), math.inf)
    return value.item() if value.ndim == 0 else value


def _hex(values) -> list[str]:
    return [float(v).hex() for v in np.atleast_1d(values)]


def _projected_into(sigma: DensityMatrix, rho: DensityMatrix) -> DensityMatrix:
    """P rho P / Tr, with P the projector onto the support of sigma."""
    p = support_projector(sigma.mat)
    inside = p @ rho.mat @ p
    return DensityMatrix(inside / np.trace(inside).real)


def test_relative_entropy_keeps_the_bits_of_the_leak_test_on_every_row():
    rng = np.random.default_rng(80)
    for d in (2, 4, 8):
        sigmas = [regularize(random_density(d, rng), 1e-6), random_density(d, rng),
                  random_density(d, rng, rank=1), random_density(d, rng, rank=d // 2),
                  random_density(d, rng, rank=d // 2)]
        rhos = [random_density(d, rng), regularize(random_density(d, rng, rank=1), 1e-3),
                _projected_into(sigmas[2], random_density(d, rng)),
                _projected_into(sigmas[3], random_density(d, rng)),
                random_density(d, rng)]  # the last leaks out of its sigma's kernel
        expected = [_relative_entropy_leak_test_everywhere(r, s) for r, s in zip(rhos, sigmas)]
        assert math.isinf(expected[-1]) and all(map(math.isfinite, expected[:-1]))
        for r, s, value in zip(rhos, sigmas, expected):  # 2-D calls
            assert _hex(relative_entropy(r, s)) == _hex(value)
            assert _hex(relative_entropy(r.mat, s.mat)) == _hex(value)
        for order in ([0, 1, 2, 3, 4], [4, 2, 0, 3, 1], [0, 1], [2, 3], [4, 4], [1, 3, 0]):
            rho, sigma = _stack([rhos[i] for i in order]), _stack([sigmas[i] for i in order])
            assert _hex(relative_entropy(rho, sigma)) == _hex([expected[i] for i in order])
            assert _hex(relative_entropy(rho, sigma)) == _hex(
                _relative_entropy_leak_test_everywhere(rho, sigma))


def test_a_full_support_sigma_needs_no_support_projector(monkeypatch):
    def no_projector(*args, **kwargs):
        raise AssertionError("a full-support sigma reached support_projector")

    monkeypatch.setattr(entropy, "support_projector", no_projector)
    rng = np.random.default_rng(81)
    rhos = [regularize(random_density(8, rng, rank=r), DEFAULT_EPS) for r in (1, 3, 8)]
    sigmas = [regularize(random_density(8, rng, rank=r), DEFAULT_EPS) for r in (1, 3, 8)]
    assert np.isfinite(relative_entropy(_stack(rhos), _stack(sigmas))).all()
    assert all(math.isfinite(relative_entropy(r, s)) for r, s in zip(rhos, sigmas))
    for kind in ("stronger-mono", "ptrace-petz"):
        _, _, results = suites._run_chunk(suites.EXPLORATIONS[kind], (2, 2, 2), 0, range(100),
                                          DEFAULT_EPS, TOL_INEQ, {})
        assert len(results) == 100 and all(np.isfinite(r.slack) for r in results)
    with pytest.raises(AssertionError, match="support_projector"):  # a kernel still takes it
        relative_entropy(rhos[0], random_density(8, rng, rank=2))


# ---------------------------------------------------------------------------
# A NaN or infinite matrix is NonFinite, not numpy's LinAlgError or a verdict
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("at", [(0, 0), (0, 2), None], ids=["diagonal", "corner", "every"])
def test_a_non_finite_matrix_raises_non_finite(bad, at):
    x = np.full((3, 3), bad, dtype=complex) if at is None else np.eye(3, dtype=complex) / 3
    x[at or ()] = bad
    state = DensityMatrix(np.eye(3) / 3)
    calls = [lambda: herm_eig(x), lambda: relative_entropy(state, x),
             lambda: relative_entropy(x, state.mat), lambda: von_neumann(x),
             lambda: trace_norm(x), lambda: trace_norm(np.stack([state.mat, x]))]
    for call in calls:  # with no numpy warning on the way (warnings are errors here)
        with pytest.raises(NonFinite, match="NaN or infinite"):
            call()


# ---------------------------------------------------------------------------
# Properties of relative entropy on near-singular states (hypothesis)
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(d=st.integers(2, 8), data=st.data(), eps=st.floats(1e-6, 1e-1),
       seed=st.integers(0, 2**32 - 1))
def test_relative_entropy_is_nonnegative_and_contracts_under_a_channel(d, data, eps, seed):
    rng = np.random.default_rng(seed)
    r_rho, r_sigma = (data.draw(st.integers(1, d)) for _ in range(2))
    rho = regularize(random_density(d, rng, rank=r_rho), eps)
    sigma = regularize(random_density(d, rng, rank=r_sigma), eps)
    channel = random_channel(d, 2, rng)
    before = relative_entropy(rho, sigma)
    after = relative_entropy(channel.apply(rho.mat), channel.apply(sigma.mat))
    assert before >= -TOL_INEQ
    assert after <= before + TOL_INEQ


@settings(max_examples=60, deadline=None)
@given(d=st.integers(2, 8), data=st.data(), eps=st.floats(1e-6, 1e-1),
       seed=st.integers(0, 2**32 - 1))
def test_relative_entropy_on_the_support_of_a_singular_sigma(d, data, eps, seed):
    rng = np.random.default_rng(seed)
    sigma = random_density(d, rng, rank=data.draw(st.integers(1, d - 1)))
    inside = _projected_into(sigma, random_density(d, rng))
    value = relative_entropy(inside, sigma)
    assert math.isfinite(value) and value >= -TOL_INEQ
    assert relative_entropy(regularize(random_density(d, rng), eps), sigma) == math.inf
