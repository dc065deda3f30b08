"""Parameter grids evaluated as one stack: every point has the bits of its own call.

The per-point loops below are the reference: each writes out, for one parameter, the
formula that the grid evaluates for all of them.  A cap on the stacked entries
(states._CHUNK_ENTRIES, monkeypatched small) splits a grid into blocks, which must not
change a bit either.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qelab import checks, states
from qelab.channels import KrausChannel, ptrace_channel, random_unital_channel
from qelab.checks import (
    _alpha_compressed,
    _compressed_product,
    _pushed,
    _spectra,
    dw_alpha_profile,
    markov_characterizations,
)
from qelab.entropy import exp_log_combination, renyi
from qelab.linalg import (
    dagger,
    embed,
    herm_eig,
    hermitize,
    matrix_exp,
    matrix_fn,
    matrix_log,
    matrix_power,
    max_sv,
    psd_support,
    ptrace,
    unitary_power,
)
from qelab.states import AB, B, BC, DensityMatrix, markov_state, random_density, regularize
from qelab.suites import trial_rng
from helpers import markov_spec

RNG = np.random.default_rng  # brevity
# 0.5 and 2.0 take np.power's scalar fast paths, which an array exponent would miss
EXPONENTS = (-0.5, 0.5, 2.0, 0.37, -1.25, 1.0 / 3.0)
T_SAMPLES = (0.3, -0.7, 1.1, -1.9, 2.5)


def _same_bits(a, b) -> bool:
    """Equal dtype, shape and bytes: equal values, sign bits of zeros included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _psd_stack(d, ranks, rng):
    """One PSD matrix per rank; a rank below d leaves a partial support."""
    g = [rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r)) for r in ranks]
    return np.stack([x @ x.conj().T for x in g])


def grid(points, batch):
    """The points as one grid block ahead of the batch axes (states.grids under the cap)."""
    [block] = states.grids(points, batch, 1)
    return block


def _power_alone(h, p):
    """One point of matrix_power: the scalar function on the support of one spectrum."""
    return matrix_fn(h, lambda x: np.power(x, p), support_only=True)


def _unitary_power_alone(h, t):
    """One point of unitary_power on one matrix."""
    vals, vecs = herm_eig(h)
    mask = psd_support(vals)
    phases = np.ones(vals.shape, dtype=complex)
    phases[mask] = np.exp(1j * t * np.log(vals[mask]))
    return (vecs * phases) @ vecs.conj().T


# ---------------------------------------------------------------------------
# linalg: the outer and paired forms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", [1, 3, 6])
def test_matrix_power_outer_form_gives_each_point_its_own_bits(d):
    stack = _psd_stack(d, [d, max(1, d - 2), d], RNG(d))
    spec = herm_eig(stack)
    ps = grid(EXPONENTS, stack.shape[:-2])
    assert ps.shape == (len(EXPONENTS), 1)
    whole = matrix_power(spec, ps)
    assert whole.shape == (len(EXPONENTS),) + stack.shape
    for j, p in enumerate(EXPONENTS):
        assert _same_bits(whole[j], _power_alone(spec, p))
        for i, row in enumerate(stack):
            assert _same_bits(whole[j, i], _power_alone(herm_eig(row), p))
    # one matrix: the grid is its only batch axis
    alone = matrix_power(stack[0], grid(EXPONENTS, ()))
    for j, p in enumerate(EXPONENTS):
        assert _same_bits(alone[j], _power_alone(herm_eig(stack[0]), p))


def test_matrix_power_paired_form_gives_row_j_its_own_exponent():
    rng = RNG(2)
    stacks = np.stack([_psd_stack(4, [4, 2], rng) for _ in EXPONENTS])  # (k, n, d, d)
    ps = grid(EXPONENTS, (2,))
    whole = matrix_power(stacks, ps)
    assert whole.shape == stacks.shape
    for j, p in enumerate(EXPONENTS):
        assert _same_bits(whole[j], _power_alone(herm_eig(stacks[j]), p))
    # a per-trial exponent pairs with the trial axis itself
    per_trial = matrix_power(stacks[0], np.array([0.5, 2.0]))
    for i, p in enumerate((0.5, 2.0)):
        assert _same_bits(per_trial[i], _power_alone(herm_eig(stacks[0, i]), p))


def test_a_grid_that_does_not_fit_the_batch_raises():
    stack = _psd_stack(3, [3, 3, 3], RNG(3))
    for fn in (matrix_power, unitary_power):
        with pytest.raises(IndexError):  # a grid varies along its leading axis only
            fn(stack, np.array([[0.5, 2.0, 0.3]]))
        with pytest.raises(ValueError):  # and broadcasts against the batch
            fn(stack, np.array([0.5, 2.0]))


@pytest.mark.parametrize("d", [1, 2, 5])
def test_unitary_power_on_a_stack_gives_each_row_the_bits_of_its_2d_call(d):
    stack = _psd_stack(d, [d, 1, d], RNG(10 + d))
    for t in T_SAMPLES:
        whole = unitary_power(stack, t)
        assert whole.shape == stack.shape
        for i, row in enumerate(stack):
            assert _same_bits(unitary_power(row, t), _unitary_power_alone(row, t))
            assert _same_bits(whole[i], _unitary_power_alone(row, t))


def test_unitary_power_outer_form_on_a_stack_with_negative_t():
    stack = _psd_stack(4, [4, 3], RNG(20))
    ts = grid(T_SAMPLES, stack.shape[:-2])
    for whole, sign in ((unitary_power(stack, ts), 1.0), (unitary_power(stack, -ts), -1.0)):
        assert whole.shape == (len(T_SAMPLES),) + stack.shape
        for j, t in enumerate(T_SAMPLES):
            for i, row in enumerate(stack):
                assert _same_bits(whole[j, i], _unitary_power_alone(row, sign * t))


# ---------------------------------------------------------------------------
# checks: grids in capped blocks
# ---------------------------------------------------------------------------


def _cap(monkeypatch, entries):
    monkeypatch.setattr(states, "_CHUNK_ENTRIES", entries)


def _chunk(n, dims, seed):
    d = math.prod(dims)
    rngs = [RNG([seed, i]) for i in range(n)]
    return DensityMatrix(regularize(random_density(d, rngs), 1e-6), dims)


def _compressed_alone(eig, dims, p):
    ab_pow = embed(_power_alone(eig[AB], p / 2.0), dims, AB)
    b_neg = embed(_power_alone(eig[B], -p / 2.0), dims, B)
    bc_pow = embed(_power_alone(eig[BC], p), dims, BC)
    return hermitize(ab_pow @ b_neg @ bc_pow @ b_neg @ ab_pow)


@pytest.mark.parametrize("per_block", [1, 2, 3, 64])
@pytest.mark.parametrize("n", [None, 3])
def test_compressed_products_in_blocks_match_the_loop(monkeypatch, per_block, n):
    dims = (2, 2, 2)
    state = _chunk(n or 1, dims, 30)
    state = state if n else state.row(0)
    rows = n or 1
    _cap(monkeypatch, per_block * rows * 64)
    eig = _spectra(state)
    ps = [0.9, 0.5, 0.25, 1.0 / 3.0, 0.125]
    blocks = list(_compressed_product(eig, dims, ps))
    assert [len(p) for p, _ in blocks] == [len(b) for b in states.capped(ps, rows * 64)]
    assert max(len(p) for p, _ in blocks) == min(per_block, len(ps))
    products = np.concatenate([g for _, g in blocks])
    for j, p in enumerate(ps):
        assert _same_bits(products[j], _compressed_alone(eig, dims, p))


def _alpha_alone(pushed, alpha):
    sigma_eig, img_rho, img_sigma, channel = pushed
    img_sigma_neg = _power_alone(img_sigma.spectrum, -alpha / 2.0)
    mid = hermitize(img_sigma_neg @ _power_alone(img_rho.spectrum, alpha) @ img_sigma_neg)
    s_half = _power_alone(sigma_eig, alpha / 2.0)
    inner = hermitize(s_half @ channel.apply_dual(mid) @ s_half)
    return _power_alone(herm_eig(inner), 1.0 / alpha)


@pytest.mark.parametrize("per_block", [1, 2, 5, 64])
@pytest.mark.parametrize("unital", [True, False])
def test_alpha_compressions_in_blocks_match_the_loop(monkeypatch, per_block, unital):
    n, d = 3, 4
    rngs = [RNG([40, i]) for i in range(n)]
    rho, sigma = (regularize(random_density(d, rngs), 1e-6) for _ in range(2))
    if unital:
        channel = random_unital_channel(d, 2, rngs)
    else:  # one channel for the whole stack, d_out < d_in
        channel = ptrace_channel((2, 2), 0)
    _cap(monkeypatch, per_block * n * d * d)
    pushed = _pushed(rho, sigma, channel)
    alphas = [0.9, 0.5, 0.25, 0.1, 0.0625]
    compressions = np.concatenate(list(_alpha_compressed(pushed, alphas)))
    for j, alpha in enumerate(alphas):
        assert _same_bits(compressions[j], _alpha_alone(pushed, alpha))


def _r_petz_alone(state, t_samples):
    dims, r_petz = state.dims, 0.0
    for t in t_samples:
        lhs = _unitary_power_alone(state.mat, t) @ embed(
            _unitary_power_alone(state.marginal(BC), -t), dims, BC)
        rhs = embed(_unitary_power_alone(state.marginal(AB), t), dims, AB) @ embed(
            _unitary_power_alone(state.marginal(B), -t), dims, B)
        r_petz = max(r_petz, max_sv(lhs - rhs))
    return r_petz


@pytest.mark.parametrize("per_block", [1, 3, 64])
def test_the_markov_t_grid_in_blocks_matches_the_loop(monkeypatch, per_block):
    specs = [markov_spec(trial_rng(42, "markov-roundtrip", t), 2, 2) for t in range(4)]
    for spec in specs:
        state = markov_state(spec)
        _cap(monkeypatch, per_block * state.dim**2)
        r_petz = markov_characterizations(state, T_SAMPLES).quantities["r_petz"]
        assert type(r_petz) is float
        assert _same_bits(r_petz, _r_petz_alone(state, T_SAMPLES))


@pytest.mark.parametrize("per_block", [1, 2, 64])
def test_renyi_on_an_order_grid_matches_the_loop(monkeypatch, per_block):
    n, d = 3, 4
    rngs = [RNG([50, i]) for i in range(n)]
    rho, sigma = (regularize(random_density(d, rngs), 1e-6) for _ in range(2))
    _cap(monkeypatch, per_block * n * d * d)
    alphas = [0.1, 0.25, 0.5, 0.75]
    values = renyi(alphas, rho, sigma)
    for alpha, value in zip(alphas, values):
        overlap = np.trace(_power_alone(rho.spectrum, alpha)
                           @ _power_alone(sigma.spectrum, 1.0 - alpha), axis1=-2, axis2=-1).real
        alone = [math.log(o) / (alpha - 1.0) for o in overlap.tolist()]
        assert _same_bits(value, np.array(alone))


@pytest.mark.parametrize("per_block", [1, 2, 64])
def test_the_concavity_grids_in_blocks_match_the_loop(monkeypatch, per_block):
    n, d = 3, 4
    rngs = [RNG([55, i]) for i in range(n)]
    x1, x2 = (regularize(random_density(d, rngs), 1e-6) for _ in range(2))
    m = np.stack([r.normal(size=(d, d)) + 1j * r.normal(size=(d, d)) for r in rngs]) / 2.0
    lam = np.array([0.2, 0.5, 0.9])
    _cap(monkeypatch, per_block * n * d * d)
    alphas, t_values = (1.5, 2.0, 4.0), (0.0, 0.25, 0.5, 1.0)
    cl = checks.check_cl_concavity(m, x1, x2, lam, alphas)
    mix = herm_eig(lam[:, None, None] * x1.mat + (1.0 - lam[:, None, None]) * x2.mat)

    def trace_at(x, alpha):
        core = hermitize(m @ _power_alone(x, 1.0 / alpha) @ dagger(m))
        return np.trace(_power_alone(herm_eig(core), alpha), axis1=-2, axis2=-1).real

    for alpha in alphas:
        avg = lam * trace_at(x1.spectrum, alpha) + (1.0 - lam) * trace_at(x2.spectrum, alpha)
        slack = trace_at(mix, alpha) - avg
        assert [r.quantities[f"slack_{alpha!r}"] for r in cl] == slack.tolist()
    aps = checks.check_audenaert_ps(x1, x2, t_values)
    for t in t_values:
        crossed = np.trace(_power_alone(x1.spectrum, t) @ _power_alone(x2.spectrum, 1.0 - t),
                           axis1=-2, axis2=-1).real
        for r, c in zip(aps, crossed.tolist()):
            half_min = 0.5 * (r.quantities["trace_m"] + r.quantities["trace_n"]
                              - r.quantities["trace_distance"])
            assert r.quantities[f"audenaert_slack_{t!r}"] == c - half_min


@pytest.mark.parametrize("per_block", [1, 2, 64])
def test_exp_log_terms_decomposed_in_blocks_match_the_loop(monkeypatch, per_block):
    state = _chunk(3, (2, 2, 2), 60)
    terms = [(1.0, state, (0, 1)), (-1.0, state, (1,)), (1.0, state, (1, 2))]
    acc = 0.0
    for sign, st, where in terms:  # one decomposition per term
        acc = acc + sign * matrix_log(herm_eig(embed(st.marginal(where), st.dims, where)))
    _cap(monkeypatch, per_block * 3 * 64)
    whole = exp_log_combination(terms)
    assert _same_bits(whole, matrix_exp(hermitize(acc)))


# ---------------------------------------------------------------------------
# Call counts: a grid is one stack, not a loop of calls
# ---------------------------------------------------------------------------


def _recording(monkeypatch, owner, attr, record=lambda *a, **k: 1):
    calls = []
    real = getattr(owner, attr)
    monkeypatch.setattr(owner, attr, lambda *a, **k: calls.append(record(*a, **k)) or real(*a, **k))
    return calls


def test_dw_alpha_applies_the_dual_once_per_alpha_block(monkeypatch):
    rngs = [trial_rng(42, "dw-alpha", t) for t in range(5)]
    instance = {
        "rho": regularize(random_density(8, rngs), 1e-6),
        "sigma": regularize(random_density(8, rngs), 1e-6),
        "channel": random_unital_channel(8, 8, rngs),
    }
    duals = _recording(monkeypatch, KrausChannel, "apply_dual")
    results = dw_alpha_profile(**instance)
    assert len(results) == 5
    assert len(duals) == 1  # all 12 alphas of a 5-trial 2,2,2 chunk in one block
    _cap(monkeypatch, 4 * 5 * 64)
    duals.clear()
    assert dw_alpha_profile(**instance) == results
    assert len(duals) == 3  # blocks of 4 alphas


def test_markov_takes_one_batched_svd_for_the_t_grid(monkeypatch):
    state = markov_state(markov_spec(trial_rng(42, "markov-roundtrip", 0), 2, 2))
    shapes = _recording(monkeypatch, np.linalg, "svd", lambda x, *a, **k: np.shape(x))
    markov_characterizations(state, checks.DEFAULT_T_SAMPLES)
    d = state.dim
    # r_log, then r_petz over the 4 t-samples, then both reconstructions
    assert shapes == [(d, d), (4, d, d), (2, d, d)]


# ---------------------------------------------------------------------------
# Property: ptrace and embed are adjoint, on matrices and on grid stacks
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    dims=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    subset=st.lists(st.booleans(), min_size=3, max_size=3),
    lead=st.sampled_from([(), (1, 1), (2, 3), (3, 1)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_ptrace_and_embed_are_adjoint(dims, subset, lead, seed):
    # Tr[ptrace(X) Y] = Tr[X embed(Y)].  Each side is a sum of at most D^2 complex products
    # (the left one of partial sums), so with u = eps / 2 it lies within
    # sqrt(2) gamma(D^2 + 4) sum |x| |embed(y)| <= sqrt(2) gamma(D^2 + 4) ||X||_F ||embed(Y)||_F
    # of the exact value, gamma(m) = m u / (1 - m u); the two sides within twice that.
    rng = RNG(seed)
    keep = [k for k in range(len(dims)) if subset[k]]
    total, part = math.prod(dims), math.prod(dims[k] for k in keep)
    x = rng.normal(size=lead + (total, total)) + 1j * rng.normal(size=lead + (total, total))
    y = rng.normal(size=lead + (part, part)) + 1j * rng.normal(size=lead + (part, part))
    big = embed(y, dims, keep)

    def trace_of_product(a, b):
        return (a * np.swapaxes(b, -1, -2)).sum(axis=(-2, -1))

    lhs = trace_of_product(ptrace(x, dims, keep), y)
    rhs = trace_of_product(x, big)
    mu = (total**2 + 4) * np.finfo(float).eps / 2
    tol = 2 * math.sqrt(2) * mu / (1 - mu)
    norms = np.linalg.norm(x, axis=(-2, -1)) * np.linalg.norm(big, axis=(-2, -1))
    assert np.all(np.abs(lhs - rhs) <= tol * norms)
    assert big.shape == lead + (total, total)
    assert np.array_equal(dagger(big), embed(dagger(y), dims, keep))
