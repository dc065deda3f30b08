"""Tests for Kraus channels, duals, recovery maps, and twirls."""

from __future__ import annotations

import numpy as np
import pytest

from qelab.channels import (
    TWIRL_CHUNK,
    KrausChannel,
    PetzMap,
    ptrace_channel,
    random_channel,
    random_unital_channel,
    require_unital,
    twirl_exact,
    twirl_mc,
)
from qelab.entropy import relative_entropy
from qelab.errors import DimMismatch, NotUnital, SingularSigma
from qelab.linalg import hermitize, is_hermitian, kron, max_sv, ptrace, trace_norm
from qelab.serialize import deserialize_value, serialize_value
from qelab.states import (
    DensityMatrix,
    MarkovSpec,
    markov_state,
    random_density,
    random_tripartite,
    random_unitary,
    regularize,
)


def _identity_channel(d):
    return KrausChannel([np.eye(d)])


def _depolarizing_kraus(d):
    # matrix units |i><j| / sqrt(d) form a completely depolarizing channel
    ops = []
    for i in range(d):
        for j in range(d):
            k = np.zeros((d, d), dtype=complex)
            k[i, j] = 1.0 / np.sqrt(d)
            ops.append(k)
    return KrausChannel(ops)


def test_identity_channel_leaves_input_unchanged():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    np.testing.assert_allclose(_identity_channel(3).apply(x), x, atol=1e-14)


def test_depolarizing_channel_maps_to_maximally_mixed():
    rng = np.random.default_rng(1)
    rho = random_density(3, rng)
    out = _depolarizing_kraus(3).apply(rho.mat)
    np.testing.assert_allclose(out, np.eye(3) / 3, atol=1e-12)


def test_channel_preserves_trace_and_positivity():
    rng = np.random.default_rng(2)
    channel = random_channel(4, 3, rng)
    rho = random_density(4, rng)
    out = channel.apply(rho.mat)
    assert np.trace(out).real == pytest.approx(1.0, rel=1e-12)
    assert np.linalg.eigvalsh(out).min() >= -1e-10


def test_channel_rejects_wrong_input_dimension():
    with pytest.raises(DimMismatch):
        _identity_channel(2).apply(np.eye(3))
    with pytest.raises(DimMismatch):  # the dual takes the output space, here of dim 2
        ptrace_channel((2, 3), 1).apply_dual(np.eye(6))


def test_tp_validation():
    with pytest.raises(Exception):
        KrausChannel([np.eye(2) * 0.5])  # not trace preserving


def test_dual_of_identity_is_identity():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 2))
    np.testing.assert_allclose(
        _identity_channel(2).apply_dual(x), x, atol=1e-14
    )


def test_dual_of_partial_trace_embeds():
    # dual of Tr_B sends Y to Y (x) 1_B; verify via the duality identity
    channel = ptrace_channel((2, 3), 1)
    rng = np.random.default_rng(4)
    y = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    np.testing.assert_allclose(
        channel.apply_dual(y), kron(y, np.eye(3)), atol=1e-12
    )


def test_duality_identity_sweep():
    rng = np.random.default_rng(5)
    channel = random_channel(3, 2, rng)
    worst = 0.0
    for _ in range(100):
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        y = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        lhs = np.trace(channel.apply_dual(x) @ y)
        rhs = np.trace(x @ channel.apply(y))
        worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-10


def _old_dual_apply(channel, y):
    """The dual as it was built before apply_dual: a second Kraus map with
    operators K_i^dag, applied like any channel."""
    dual_kraus = [np.asarray(k.conj().T, dtype=complex) for k in channel.kraus]
    y = np.asarray(y, dtype=complex)
    out = sum(k @ y @ k.conj().T for k in dual_kraus)
    return hermitize(out) if is_hermitian(y, 1e-12) else out


@pytest.mark.parametrize("d", [2, 3, 4, 6, 8, 64])
def test_apply_dual_matches_the_old_dual_channel_bit_for_bit(d):
    rng = np.random.default_rng([7, d])
    channels = [random_channel(d, 2, rng), random_unital_channel(d, 3, rng)]
    if d % 2 == 0:
        channels += [ptrace_channel((2, d // 2), 0), ptrace_channel((2, d // 2), 1)]
    for channel in channels:
        g = rng.normal(size=(channel.d_out,) * 2) + 1j * rng.normal(size=(channel.d_out,) * 2)
        for y in (g, g + g.conj().T):  # general, and Hermitian (re-Hermitized)
            assert np.array_equal(channel.apply_dual(y), _old_dual_apply(channel, y))


def test_dual_of_tp_channel_is_unital():
    rng = np.random.default_rng(6)
    channel = random_channel(4, 2, rng)
    np.testing.assert_allclose(
        channel.apply_dual(np.eye(4)), np.eye(4), atol=1e-10
    )


def test_petz_of_identity_channel_is_identity():
    rng = np.random.default_rng(7)
    sigma = regularize(random_density(3, rng), 1e-6)
    recovery = PetzMap(_identity_channel(3), sigma)
    x = random_density(3, rng).mat
    np.testing.assert_allclose(recovery.apply(x), x, atol=1e-9)


def test_petz_fixed_point():
    # the recovery map built from (channel, sigma) always restores sigma
    rng = np.random.default_rng(8)
    sigma = regularize(random_density(4, rng), 1e-6)
    channel = random_channel(4, 2, rng)
    recovered = PetzMap(channel, sigma).apply(channel.apply(sigma.mat))
    assert max_sv(recovered - sigma.mat) < 1e-8


def test_petz_rejects_vanishing_sigma():
    from qelab.states import SubnormalizedOperator

    channel = _identity_channel(2)
    with pytest.raises(SingularSigma):
        PetzMap(channel, SubnormalizedOperator(np.zeros((2, 2))))


def _markov_chain_state(rng):
    specs = MarkovSpec(
        d_a=2,
        d_c=2,
        weights=(0.5, 0.5),
        ab_factors=(
            regularize(random_density(2, rng), 1e-3),
            regularize(random_density(2, rng), 1e-3),
        ),
        bc_factors=(
            regularize(random_density(2, rng), 1e-3),
            regularize(random_density(2, rng), 1e-3),
        ),
    )
    return markov_state(specs)


def test_petz_recovery_saturates_on_markov_states():
    # For a short-chain state, tracing out C loses nothing that the
    # recovery map through the BC edge cannot restore: with the reference
    # sigma = rho_A (x) rho_BC and the channel Tr_C, the data-processing
    # gap vanishes and the recovered state matches rho exactly.
    rng = np.random.default_rng(9)
    state = _markov_chain_state(rng)
    dims = state.dims
    rho_a = state.marginal([0])
    rho_bc = state.marginal([1, 2])
    sigma = DensityMatrix(kron(rho_a, rho_bc))
    channel = ptrace_channel(dims, 2)
    gap = (
        relative_entropy(state.mat, sigma.mat)
        - relative_entropy(
            channel.apply(state.mat), channel.apply(sigma.mat)
        )
    )
    assert abs(gap) < 1e-8
    recovered = PetzMap(channel, sigma).apply(channel.apply(state.mat))
    assert trace_norm(recovered - state.mat) < 1e-7


def test_petz_recovery_incomplete_off_markov():
    # a generic state is not recoverable: positive gap and visible distance
    rng = np.random.default_rng(10)
    state = random_tripartite((2, 2, 2), rng)
    dims = state.dims
    sigma = DensityMatrix(kron(state.marginal([0]), state.marginal([1, 2])))
    channel = ptrace_channel(dims, 2)
    recovered = PetzMap(channel, sigma).apply(channel.apply(state.mat))
    assert trace_norm(recovered - state.mat) > 1e-3


def test_ptrace_channel_trivial_full_trace():
    channel = ptrace_channel((2,), 0)
    rho = random_density(2, np.random.default_rng(11))
    out = channel.apply(rho.mat)
    assert out.shape == (1, 1)
    assert out[0, 0].real == pytest.approx(1.0)


def test_ptrace_channel_agrees_with_ptrace():
    rng = np.random.default_rng(12)
    channel = ptrace_channel((2, 3, 2), 1)
    gram = sum(k.conj().T @ k for k in channel.kraus)
    np.testing.assert_allclose(gram, np.eye(12), atol=1e-12)
    for _ in range(50):
        rho = random_density(12, rng)
        np.testing.assert_allclose(
            channel.apply(rho.mat), ptrace(rho.mat, (2, 3, 2), [0, 2]), atol=1e-12
        )


def test_unital_channel_properties():
    rng = np.random.default_rng(13)
    channel = random_unital_channel(3, 4, rng)
    assert channel.is_unital
    np.testing.assert_allclose(sum(k.conj().T @ k for k in channel.kraus), np.eye(3), atol=1e-10)
    np.testing.assert_allclose(
        channel.apply(np.eye(3) / 3), np.eye(3) / 3, atol=1e-10
    )
    kk = sum(k @ k.conj().T for k in channel.kraus)
    assert max_sv(kk - np.eye(3)) < 1e-10
    require_unital(channel)  # should not raise


def test_single_unitary_channel_preserves_entropy():
    rng = np.random.default_rng(14)
    channel = random_unital_channel(3, 1, rng)
    rho = regularize(random_density(3, rng), 1e-6)
    sigma = regularize(random_density(3, rng), 1e-6)
    before = relative_entropy(rho, sigma)
    after = relative_entropy(channel.apply(rho.mat), channel.apply(sigma.mat))
    assert after == pytest.approx(before, abs=1e-9)


def test_require_unital_rejects_non_unital():
    # an isometry-based channel is generically not unital
    rng = np.random.default_rng(15)
    for _ in range(10):
        channel = random_channel(3, 3, rng)
        if not channel.is_unital:
            with pytest.raises(NotUnital):
                require_unital(channel)
            return
    raise AssertionError("all sampled channels were unital; broaden the sweep")


def test_twirl_exact_product_and_identity():
    rng = np.random.default_rng(16)
    ra = random_density(2, rng).mat
    rb = random_density(3, rng).mat
    out = twirl_exact(kron(ra, rb), (2, 3))
    np.testing.assert_allclose(out, kron(ra, np.eye(3) / 3), atol=1e-12)
    np.testing.assert_allclose(twirl_exact(np.eye(6), (2, 3)), np.eye(6), atol=1e-12)


def test_twirl_over_first_factor():
    rng = np.random.default_rng(17)
    ra = random_density(2, rng).mat
    rb = random_density(3, rng).mat
    out = twirl_exact(kron(ra, rb), (2, 3), over=0)
    np.testing.assert_allclose(out, kron(np.eye(2) / 2, rb), atol=1e-12)


def test_twirl_mc_converges():
    rng = np.random.default_rng(18)
    x = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    x = (x + x.conj().T) / 2
    x /= max_sv(x)  # operator norm 1
    n = 10_000
    approx = twirl_mc(x, (2, 3), rng, samples=n)
    exact = twirl_exact(x, (2, 3))
    assert np.abs(approx - exact).max() < 5.0 / np.sqrt(n)


def test_twirl_mc_hermitian_output():
    rng = np.random.default_rng(19)
    x = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
    out = twirl_mc(x, (2, 2), rng, samples=50)
    assert max_sv(out - out.conj().T) < 1e-12


def _twirl_mc_per_sample(x, dims, rng, samples, over):
    # the one-draw-per-sample loop that twirl_mc replaced
    da, db = dims
    acc = np.zeros_like(x)
    for _ in range(samples):
        u = random_unitary(dims[over], rng)
        w = kron(np.eye(da), u) if over == 1 else kron(u, np.eye(db))
        acc += w @ x @ w.conj().T
    out = acc / samples
    if max_sv(x - x.conj().T) <= 1e-12 * max(max_sv(x), 1e-300):
        out = (out + out.conj().T) / 2
    return out


@pytest.mark.parametrize("dims", [(2, 3), (3, 2), (2, 2), (4, 4)])
@pytest.mark.parametrize("over", [0, 1])
@pytest.mark.parametrize(
    "samples", [1, TWIRL_CHUNK - 1, TWIRL_CHUNK, TWIRL_CHUNK + 1, 1300]
)
def test_twirl_mc_chunks_match_the_per_sample_loop(dims, over, samples):
    rng = np.random.default_rng([samples, over, *dims])
    d = dims[0] * dims[1]
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    for x in (g, g + g.conj().T):
        seed = int(rng.integers(2**32))
        chunked_rng = np.random.default_rng(seed)
        looped_rng = np.random.default_rng(seed)
        chunked = twirl_mc(x, dims, chunked_rng, samples, over=over)
        looped = _twirl_mc_per_sample(x, dims, looped_rng, samples, over)
        assert np.array_equal(chunked, looped)
        assert chunked_rng.bit_generator.state == looped_rng.bit_generator.state


@pytest.mark.parametrize("d,env_dim", [(2, 1), (3, 2), (4, 3), (8, 2)])
def test_random_channel_kraus_bits_unchanged(d, env_dim):
    # the isometry draw and phase fix as random_channel wrote them inline
    rng = np.random.default_rng([d, env_dim])
    g = rng.standard_normal((d * env_dim, d)) + 1j * rng.standard_normal((d * env_dim, d))
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r)
    q = q * (diag / np.abs(diag))
    channel = random_channel(d, env_dim, np.random.default_rng([d, env_dim]))
    assert len(channel.kraus) == env_dim
    for i, k in enumerate(channel.kraus):
        assert np.array_equal(k, q[i * d : (i + 1) * d, :])


def test_twirl_mc_rejects_bad_arguments():
    x = np.eye(4, dtype=complex)
    rng = np.random.default_rng(0)
    with pytest.raises(DimMismatch):
        twirl_mc(x, (2, 3), rng, samples=10)
    with pytest.raises(DimMismatch):
        twirl_mc(x, (2, 2), rng, samples=10, over=2)
    with pytest.raises(DimMismatch):
        twirl_mc(x, (2, 2), rng, samples=0)


def test_channel_json_roundtrip():
    rng = np.random.default_rng(20)
    channel = random_unital_channel(2, 3, rng)
    back = deserialize_value(serialize_value(channel))
    assert back.d_in == channel.d_in and back.d_out == channel.d_out
    rho = random_density(2, rng)
    np.testing.assert_allclose(
        back.apply(rho.mat), channel.apply(rho.mat), atol=1e-14
    )


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_a_stacked_channel_acts_row_by_row_with_each_rows_bits():
    rng = np.random.default_rng(72)
    channels = [random_channel(4, 2, rng) for _ in range(3)]
    stacked = KrausChannel.stack(channels)
    xs = np.stack([random_density(4, rng).mat for _ in range(3)])
    xs[1] += 1e-6 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))  # not Hermitian
    applied, duals = stacked.apply(xs), stacked.apply_dual(xs)
    for i, channel in enumerate(channels):
        assert _same_bits(applied[i], channel.apply(xs[i]))
        assert _same_bits(duals[i], channel.apply_dual(xs[i]))
    assert not is_hermitian(applied[1], 1e-12) and is_hermitian(applied[0], 1e-12)
    # one channel for the whole stack
    one = ptrace_channel((2, 2), 1)
    for i, row in enumerate(one.apply(xs)):
        assert _same_bits(row, one.apply(xs[i]))
    with pytest.raises(DimMismatch):
        KrausChannel.stack([channels[0], random_channel(4, 3, rng)])


def test_a_stacked_channel_is_unital_when_every_row_is():
    rng = np.random.default_rng(74)
    unital = [random_unital_channel(4, 3, rng) for _ in range(2)]
    assert require_unital(KrausChannel.stack(unital)).is_unital
    generic = random_channel(4, 3, rng)
    assert not generic.is_unital
    with pytest.raises(NotUnital):
        require_unital(KrausChannel.stack(unital + [generic]))


def test_a_petz_map_takes_the_image_its_caller_holds():
    rng = np.random.default_rng(75)
    channel, sigma = random_channel(4, 2, rng), random_density(4, rng)
    x = random_density(4, rng).mat
    held = PetzMap(channel, sigma, channel.apply(sigma.mat)).apply(x)
    assert _same_bits(held, PetzMap(channel, sigma).apply(x))


def test_a_stacked_petz_map_mixes_only_its_singular_rows():
    rng = np.random.default_rng(73)
    channel = _identity_channel(4)
    sigmas = [random_density(4, rng), random_density(4, rng, rank=2), random_density(4, rng)]
    xs = np.stack([random_density(4, rng).mat for _ in range(3)])
    recovered = PetzMap(channel, DensityMatrix.stack(sigmas)).apply(xs)
    for i, sigma in enumerate(sigmas):
        assert _same_bits(recovered[i], PetzMap(channel, sigma).apply(xs[i]))
    with pytest.raises(DimMismatch):
        DensityMatrix.stack([sigmas[0], DensityMatrix(sigmas[1], (2, 2))])
