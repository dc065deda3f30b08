"""Tests for state wrappers, random ensembles, and Markov-state construction."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qelab.entropy import cmi, von_neumann
from qelab.errors import (
    BadConfig,
    BadRank,
    BadTrace,
    DimMismatch,
    InconsistentBlocks,
    NonFinite,
    NotPSD,
    NotTripartite,
)
from qelab.linalg import embed, herm_eig, kron, matrix_log, max_sv, trace_norm
from qelab.states import (
    DensityMatrix,
    MarkovSpec,
    SubnormalizedOperator,
    as_matrix,
    as_spectrum,
    markov_state,
    normalized_weights,
    random_density,
    random_tripartite,
    random_unitaries,
    random_unitary,
    regularize,
    require_tripartite,
)
from qelab.serialize import deserialize_value, serialize_value


def test_density_matrix_validates_trace():
    with pytest.raises(BadTrace):
        DensityMatrix(np.diag([0.6, 0.6]))


def test_density_matrix_rejects_negative_eigenvalue():
    with pytest.raises(NotPSD):
        DensityMatrix(np.diag([1.5, -0.5]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(0, 1), (1, 1)])
def test_non_finite_entry_is_rejected_before_any_decomposition(bad, where):
    mat = np.eye(2, dtype=complex) / 4
    mat[where] = bad
    with pytest.raises(NonFinite):
        SubnormalizedOperator(mat)
    mat = np.eye(2, dtype=complex) / 2
    mat[0, 1] = bad
    with pytest.raises(NonFinite):
        DensityMatrix(mat)


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 6),
    rank=st.integers(1, 6),
    scale=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_cached_spectrum_equals_herm_eig_of_the_matrix(d, rank, scale, seed):
    rho = random_density(d, np.random.default_rng(seed), rank=min(rank, d))
    op = SubnormalizedOperator(scale * rho.mat)
    for obj in (rho, op):
        spectrum = obj.spectrum
        fresh = herm_eig(obj.mat)
        assert all(np.array_equal(a, b) for a, b in zip(spectrum, fresh))
        assert obj.spectrum is spectrum  # decomposed once
        assert not any(part.flags.writeable for part in spectrum)
        assert as_spectrum(obj) is spectrum
        assert as_matrix(obj) is obj.mat
    raw = np.array(rho.mat)
    assert all(np.array_equal(a, b) for a, b in zip(as_spectrum(raw), rho.spectrum))


def test_subnormalized_accepts_trace_below_one():
    op = SubnormalizedOperator(np.diag([0.3, 0.2]))
    assert op.trace == pytest.approx(0.5)
    with pytest.raises(BadTrace):
        SubnormalizedOperator(np.diag([0.8, 0.8]))


def test_multipartite_dims_must_match():
    with pytest.raises(DimMismatch):
        DensityMatrix(np.eye(4) / 4, (2, 3))


def test_multipartite_reduce_keeps_order():
    rng = np.random.default_rng(2)
    state = random_tripartite((2, 3, 2), rng)
    rb = DensityMatrix(state.marginal([1]), state.dims[1:2])
    assert rb.dims == (3,)
    assert np.trace(rb.mat).real == pytest.approx(1.0)
    with pytest.raises(NotTripartite):
        require_tripartite(rb)


def test_random_density_dimension_one():
    rho = random_density(1, np.random.default_rng(0))
    np.testing.assert_allclose(rho.mat, [[1.0]])


def test_random_density_spectral_contract():
    rho = random_density(4, np.random.default_rng(8))
    assert np.trace(rho.mat).real == pytest.approx(1.0, abs=1e-14)
    assert np.linalg.eigvalsh(rho.mat).min() >= -1e-12


def test_random_density_full_rank_sweep():
    rng = np.random.default_rng(21)
    smallest = min(
        np.linalg.eigvalsh(random_density(3, rng).mat).min() for _ in range(200)
    )
    assert smallest > 0.0


def test_random_density_rank_control():
    rho = random_density(4, np.random.default_rng(5), rank=2)
    assert np.linalg.matrix_rank(rho.mat, tol=1e-10) == 2
    with pytest.raises(BadRank):
        random_density(3, np.random.default_rng(5), rank=0)


def test_random_unitary_contract():
    u1 = random_unitary(1, np.random.default_rng(3))
    assert abs(abs(u1[0, 0]) - 1.0) < 1e-12
    u = random_unitary(5, np.random.default_rng(3))
    assert max_sv(u.conj().T @ u - np.eye(5)) < 1e-10


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 40),
    d=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_unitaries_equal_stacked_single_draws(n, d, seed):
    batched_rng = np.random.default_rng(seed)
    single_rng = np.random.default_rng(seed)
    batch = random_unitaries(n, d, batched_rng)
    singles = np.stack([random_unitary(d, single_rng) for _ in range(n)])
    assert batch.shape == (n, d, d)
    assert np.array_equal(batch, singles)
    assert batched_rng.bit_generator.state == single_rng.bit_generator.state


def test_random_unitaries_rejects_bad_sizes():
    rng = np.random.default_rng(0)
    with pytest.raises(DimMismatch):
        random_unitaries(3, 0, rng)
    with pytest.raises(BadConfig):
        random_unitaries(0, 2, rng)


def test_random_unitary_twirl_concentration():
    # Monte Carlo mean of U X U^dag over many samples approaches (Tr X / d) 1
    rng = np.random.default_rng(100)
    d, n = 3, 2000
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    x = (x + x.conj().T) / 2
    acc = np.zeros((d, d), dtype=complex)
    for _ in range(n):
        u = random_unitary(d, rng)
        acc += u @ x @ u.conj().T
    acc /= n
    target = np.trace(x) / d * np.eye(d)
    assert np.abs(acc - target).max() < 5.0 * max_sv(x) / np.sqrt(n)


def test_random_tripartite_reductions_are_states():
    state = random_tripartite((2, 2, 2), np.random.default_rng(4))
    for keep in ([0], [1], [2], [0, 1], [1, 2], [0, 2]):
        red = state.marginal(keep)
        assert np.trace(red).real == pytest.approx(1.0)
        assert np.linalg.eigvalsh(red).min() >= -1e-10
    tiny = random_tripartite((1, 1, 1), np.random.default_rng(4))
    assert tiny.mat.shape == (1, 1)
    assert random_tripartite((2, 3, 2), np.random.default_rng(4)).marginal([1]).shape == (3, 3)


def test_regularize_pure_state_spectrum():
    eps = 0.01
    rho = DensityMatrix(np.diag([1.0, 0.0]))
    out = regularize(rho, eps)
    np.testing.assert_allclose(
        np.linalg.eigvalsh(out.mat), [eps / 2, 1 - eps + eps / 2], atol=1e-14
    )


def test_regularize_rejects_zero_eps():
    with pytest.raises(BadConfig):
        regularize(DensityMatrix(np.eye(2) / 2), 0.0)


def test_regularize_trace_and_distance():
    rng = np.random.default_rng(6)
    rho = random_density(5, rng)
    eps = 1e-3
    out = regularize(rho, eps)
    assert np.trace(out.mat).real == pytest.approx(1.0, abs=1e-12)
    # ||reg(rho, eps) - rho||_1 = eps * ||rho - 1/d||_1 exactly
    assert trace_norm(out.mat - rho.mat) == pytest.approx(
        eps * trace_norm(rho.mat - np.eye(5) / 5), abs=1e-12
    )


def test_normalized_weights():
    w = normalized_weights([0.5, 0.5 + 5e-11])
    assert sum(w) == pytest.approx(1.0)
    with pytest.raises(InconsistentBlocks):
        normalized_weights([0.5, 0.6])
    with pytest.raises(InconsistentBlocks):
        normalized_weights([1.2, -0.2])


def _product_block_spec():
    rng = np.random.default_rng(12)
    a = random_density(2, rng).mat
    bl = random_density(2, rng).mat
    br = random_density(3, rng).mat
    c = random_density(2, rng).mat
    return MarkovSpec(
        d_a=2,
        d_c=2,
        weights=(1.0,),
        ab_factors=(DensityMatrix(kron(a, bl)),),
        bc_factors=(DensityMatrix(kron(br, c)),),
    ), (a, bl, br, c)


def test_markov_state_single_product_block():
    spec, (a, bl, br, c) = _product_block_spec()
    state = markov_state(spec)
    assert state.dims == (2, 6, 2)
    expected = kron(a, kron(kron(bl, br), c))
    assert max_sv(state.mat - expected) < 1e-12
    assert abs(cmi(state)) < 1e-10


def test_markov_state_classical_b_blocks():
    # two blocks with trivial inner factors: B is a classical label
    rng = np.random.default_rng(14)
    specs = []
    for _ in range(2):
        specs.append(
            (random_density(2, rng).mat, random_density(2, rng).mat)
        )
    spec = MarkovSpec(
        d_a=2,
        d_c=2,
        weights=(0.4, 0.6),
        ab_factors=(DensityMatrix(specs[0][0]), DensityMatrix(specs[1][0])),
        bc_factors=(DensityMatrix(specs[0][1]), DensityMatrix(specs[1][1])),
    )
    state = markov_state(spec)
    assert state.dims == (2, 2, 2)
    assert abs(cmi(state)) < 1e-10


def test_markov_state_generic_blocks_ruskai_residual():
    # blocks (d_bL, d_bR) = (2, 1) and (1, 2); log identity on the support
    rng = np.random.default_rng(15)
    spec = MarkovSpec(
        d_a=2,
        d_c=2,
        weights=(0.5, 0.5),
        ab_factors=(
            regularize(random_density(4, rng), 1e-3),
            regularize(random_density(2, rng), 1e-3),
        ),
        bc_factors=(
            regularize(random_density(2, rng), 1e-3),
            regularize(random_density(4, rng), 1e-3),
        ),
    )
    assert spec.block_dims == ((2, 1), (1, 2))
    assert spec.d_b == 4
    state = markov_state(spec)
    dims = state.dims
    full = matrix_log(state.mat, support_only=True)
    log_b = embed(
        matrix_log(state.marginal([1]), support_only=True), dims, (1,)
    )
    log_ab = embed(
        matrix_log(state.marginal([0, 1]), support_only=True), dims, (0, 1)
    )
    log_bc = embed(
        matrix_log(state.marginal([1, 2]), support_only=True), dims, (1, 2)
    )
    assert max_sv(full + log_b - log_ab - log_bc) < 1e-8
    assert abs(cmi(state)) < 1e-10


def test_markov_spec_rejects_inconsistent_dims():
    with pytest.raises(InconsistentBlocks):
        MarkovSpec(
            d_a=2,
            d_c=2,
            weights=(1.0,),
            ab_factors=(DensityMatrix(np.eye(6) / 6),),
            bc_factors=(DensityMatrix(np.eye(5) / 5),),  # 5 not divisible by d_c
        )


def test_markov_determinism():
    rng1 = np.random.default_rng(77)
    rng2 = np.random.default_rng(77)
    s1 = random_density(6, rng1)
    s2 = random_density(6, rng2)
    assert np.array_equal(s1.mat, s2.mat)


@pytest.mark.parametrize("dims", [(3,), (2, 2), (2, 3, 2), (1, 1, 1)],
                         ids=lambda dims: "x".join(map(str, dims)))
def test_state_json_roundtrip(dims):
    state = DensityMatrix(random_density(int(np.prod(dims)), np.random.default_rng(50)), dims)
    back = deserialize_value(json.loads(json.dumps(serialize_value(state))))
    assert isinstance(back, DensityMatrix)
    assert back.dims == dims
    assert np.array_equal(back.mat, state.mat)


def test_state_json_is_pinned():
    half = np.diag([0.5, 0.5])
    body = '"re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]}'
    assert json.dumps(serialize_value(DensityMatrix(half))) == (
        '{"type": "state", "dims": [2], ' + body
    )
    assert json.dumps(serialize_value(DensityMatrix(half, (1, 2)))) == (
        '{"type": "state", "dims": [1, 2], ' + body
    )


def test_state_from_a_state_is_not_validated_again(monkeypatch):
    rho = random_tripartite((2, 3, 2), np.random.default_rng(3))
    spectrum = rho.spectrum

    def no_decomposition(*args, **kwargs):
        raise AssertionError("a state was decomposed again")

    for kernel in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, kernel, no_decomposition)
    same = DensityMatrix(rho)
    flat = DensityMatrix(rho, (12,))
    assert same.dims == (2, 3, 2) and flat.dims == (12,)
    assert same.mat is rho.mat and flat.mat is rho.mat
    assert same.spectrum is spectrum and flat.spectrum is spectrum
    with pytest.raises(DimMismatch):
        DensityMatrix(rho, (2, 2))


def test_regularize_keeps_dims():
    rho = random_tripartite((2, 3, 2), np.random.default_rng(3))
    assert regularize(rho, 1e-3).dims == (2, 3, 2)
    assert regularize(rho.mat, 1e-3).dims == (12,)
    assert regularize(rho, 1e-3, (3, 4)).dims == (3, 4)
    with pytest.raises(DimMismatch):
        regularize(rho, 1e-3, (5, 2))


@pytest.mark.parametrize("eps", [1e-15, 1e-6, 0.5])
def test_regularize_checks_only_the_trace_of_a_validated_state(eps, monkeypatch):
    rho = random_density(6, np.random.default_rng(8))
    validated = regularize(rho.mat, eps)  # a raw matrix is validated in full
    calls = []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a: calls.append(a))
    out = regularize(rho, eps)
    assert calls == []
    assert out.mat.tobytes() == validated.mat.tobytes() and not out.mat.flags.writeable
    assert out.trace.hex() == validated.trace.hex()


def test_markov_spec_json_roundtrip():
    spec, _ = _product_block_spec()
    back = deserialize_value(serialize_value(spec))
    assert back.d_a == spec.d_a and back.d_c == spec.d_c
    assert back.weights == spec.weights
    assert max_sv(back.ab_factors[0].mat - spec.ab_factors[0].mat) < 1e-14
    with pytest.raises(BadConfig):
        deserialize_value({"d_a": 2, "d_c": 2}, "markov_spec")


def test_von_neumann_on_multipartite_marginal():
    # sanity hook tying states to the entropy layer
    state = random_tripartite((2, 2, 2), np.random.default_rng(33))
    s_b = von_neumann(state.marginal([1]))
    assert 0.0 <= s_b <= np.log(2) + 1e-12


def test_a_stacked_state_keeps_its_rows_dims_and_traces_and_names_its_rows():
    rng = np.random.default_rng(5)
    states = [DensityMatrix(random_density(4, rng), (2, 2)) for _ in range(3)]
    stack = DensityMatrix.stack(states)
    assert stack.mat.shape == (3, 4, 4) and stack.dims == (2, 2)
    assert all(np.array_equal(row, st.mat) for row, st in zip(stack.mat, states))
    assert stack.trace.tolist() == [st.trace for st in states]
    assert repr(stack) == "DensityMatrix(n=3, dim=4)"
