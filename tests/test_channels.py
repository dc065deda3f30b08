"""Tests for Kraus channels, duals, recovery maps, and twirls."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qelab import channels as channels_module, cli, linalg, states
from qelab.channels import (
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
from qelab.errors import DimMismatch, NonFinite, NotUnital, SingularSigma
from qelab.linalg import dagger, hermitize, kron, max_sv, ptrace, trace_norm
from qelab.serialize import deserialize_value, serialize_value
from qelab.states import (
    DensityMatrix,
    MarkovSpec,
    markov_state,
    random_density,
    random_unitaries,
    random_unitary,
    regularize,
)
from qelab.tolerances import TOL_HERM, TOL_RECON
from helpers import random_tripartite
from test_linalg import hexes


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
    return hermitize(out) if max_sv(y - dagger(y)) <= 1e-12 * max_sv(y) else out


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


def _twirl_mc_per_sample(x, dims, rng, samples):
    # the one-draw-per-sample loop, terms added in turn
    da, db = dims
    acc = np.zeros_like(x)
    for _ in range(samples):
        w = kron(np.eye(da), random_unitary(db, rng))
        acc += w @ x @ w.conj().T
    out = acc / samples
    if max_sv(x - x.conj().T) <= TOL_HERM * max(max_sv(x), 1e-300):
        out = (out + out.conj().T) / 2
    return out


UNIT_ROUNDOFF = np.finfo(float).eps / 2


def _gamma(k):
    return k * UNIT_ROUNDOFF / (1 - k * UNIT_ROUNDOFF)


def _twirl_sum_error(x, dims, samples, defect=0.0):
    """Bound on an entry's rounding error in twirl_mc, to first order in the unit roundoff u.

    Entry (ai, bj) is the mean over samples of sum_kl U_ik X_ab[k, l] conj(U_jl), whose
    absolute terms sum to at most d_B max|X| (1 + defect)^2: a row of U has norm at most
    1 + defect.  twirl_mc forms each term with two complex dot products of length d = d_A d_B
    (each gamma_{d + 2}), adds the ``samples`` terms in turn, divides by ``samples`` and may
    Hermitize: gamma_{samples + 2 d + 6}.
    """
    k = samples + 2 * dims[0] * dims[1] + 6
    return _gamma(k) * dims[1] * np.abs(x).max() * (1 + defect) ** 2


def _operator(d, rng, hermitian):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return g + g.conj().T if hermitian else g


def _assert_twirl_matches_the_loop(x, dims, samples, seed):
    drawn, looped = np.random.default_rng(seed), np.random.default_rng(seed)
    out = twirl_mc(x, dims, drawn, samples)
    assert _same_bits(out, _twirl_mc_per_sample(x, dims, looped, samples))
    assert drawn.bit_generator.state == looped.bit_generator.state  # the same draws


def _unital_per_unitary(d, n_kraus, rng):
    # the one-random_unitary-call-per-Kraus-operator loop of random_unital_channel,
    # as the Kraus stacks (n_kraus, streams, d, d) of every stream
    rngs = [rng] if isinstance(rng, np.random.Generator) else list(rng)
    ops = np.empty((n_kraus, len(rngs), d, d), dtype=complex)
    for row, stream in enumerate(rngs):
        probs = stream.dirichlet(np.ones(n_kraus))
        probs = 0.9 * probs + 0.1 / n_kraus
        for k, p in enumerate(probs):
            ops[k, row] = np.sqrt(p) * random_unitary(d, stream)
    return ops


def _assert_unital_matches_the_loop(d, n_kraus, streams, seed):
    def rngs():
        if streams is None:
            return np.random.default_rng(seed)
        return [np.random.default_rng([seed, i]) for i in range(streams)]

    drawn, looped = rngs(), rngs()
    channel = random_unital_channel(d, n_kraus, drawn)
    ops = _unital_per_unitary(d, n_kraus, looped)
    assert len(channel.kraus) == n_kraus
    for k, kraus in enumerate(channel.kraus):
        assert np.array_equal(kraus, ops[k, 0] if streams is None else ops[k])
    for a, b in zip(states.streams(drawn), states.streams(looped)):
        assert a.bit_generator.state == b.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    d=st.integers(1, 16),
    streams=st.sampled_from([None, 1, 5, 32]),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_unital_channel_equals_the_per_unitary_loop(data, d, streams, seed):
    n_kraus = data.draw(st.integers(1, d), label="n_kraus")
    _assert_unital_matches_the_loop(d, n_kraus, streams, seed)


@pytest.mark.parametrize("streams", [None, 2])
def test_random_unital_channel_equals_the_per_unitary_loop_at_d64(streams):
    _assert_unital_matches_the_loop(64, 3, streams, 64)


TWIRL_DIMS = [(2, 3), (3, 2), (2, 2), (4, 4)]
TINY_DIMS = [(1, 1), (2, 1), (1, 2)]
BLOCK_2X2 = states._CHUNK_ENTRIES // 16  # samples per capped block at dims (2, 2)


@pytest.mark.parametrize("dims", TWIRL_DIMS)
@pytest.mark.parametrize("hermitian", [0, 1])
@pytest.mark.parametrize("samples", [1, BLOCK_2X2 - 1, BLOCK_2X2, BLOCK_2X2 + 1, 1300])
def test_twirl_mc_chunks_match_the_per_sample_loop(dims, hermitian, samples):
    rng = np.random.default_rng([samples, hermitian, *dims])
    x = _operator(dims[0] * dims[1], rng, hermitian)
    _assert_twirl_matches_the_loop(x, dims, samples, int(rng.integers(2**32)))


@pytest.mark.parametrize("dims", TINY_DIMS)
@pytest.mark.parametrize("negative_zero", [0, 1])
@pytest.mark.parametrize("samples", [9, BLOCK_2X2 + 1])
def test_twirl_mc_of_tiny_factors_matches_the_per_sample_loop(dims, negative_zero, samples):
    # 1 x 1 terms are where a complex sum over the stack would be taken pairwise
    rng = np.random.default_rng([samples, negative_zero, *dims])
    d = dims[0] * dims[1]
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    if negative_zero:
        x = np.full((d, d), complex(-0.0, -0.0))
    _assert_twirl_matches_the_loop(x, dims, samples, samples)


@pytest.mark.parametrize("dims", TWIRL_DIMS + TINY_DIMS)
@pytest.mark.parametrize("hermitian", [0, 1])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_twirl_mc_matches_the_loop_at_the_block_edges(dims, hermitian, offset):
    d = dims[0] * dims[1]
    samples = max(1, states._CHUNK_ENTRIES // (d * d)) + offset
    rng = np.random.default_rng([samples, hermitian, *dims])
    x = _operator(d, rng, hermitian)
    _assert_twirl_matches_the_loop(x, dims, samples, int(rng.integers(2**32)))


@pytest.mark.parametrize("dims,samples", [((16, 16), 3), ((2, 3), 1300)])
def test_twirl_mc_draws_in_blocks_under_the_entry_cap(monkeypatch, dims, samples):
    # each block's products hold n d^2 entries, so n stays under the cap (one from d = 65)
    drawn = []

    def spy(n, d, rng):
        drawn.append(n)
        return random_unitaries(n, d, rng)

    monkeypatch.setattr("qelab.channels.random_unitaries", spy)
    d = dims[0] * dims[1]
    twirl_mc(np.eye(d, dtype=complex), dims, np.random.default_rng(0), samples)
    assert sum(drawn) == samples
    assert max(drawn) <= max(1, states._CHUNK_ENTRIES // (d * d))


def test_twirl_mc_holds_a_few_operands_at_d256():
    # a few 1 MiB operands; a stack of the 8 samples' 1 (x) U or products would be 8 MiB each
    x = np.eye(256, dtype=complex)
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        twirl_mc(x, (16, 16), rng, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * x.nbytes


_TWIRL_BITS = """
import numpy as np
from qelab import channels, checks

rng = np.random.default_rng([42, 10, 0])  # criterion 10's trial 0 at seed 42
g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
result = checks.check_twirl_identity((g + g.conj().T) / 2, (2, 3), rng, 10_000)
values = [result.slack, *result.quantities.values()]
for dims, samples in (((4, 4), 300), ((16, 16), 4)):
    d = dims[0] * dims[1]
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    out = channels.twirl_mc(x, dims, rng, samples)
    values += [*out.real.ravel(), *out.imag.ravel()]
print(" ".join(float(v).hex() for v in values))
"""


def test_twirl_bits_do_not_depend_on_the_blas_thread_count():
    # (1 (x) U) X of a block is one GEMM, which OpenBLAS may split over its rows alone
    src = os.path.dirname(os.path.dirname(os.path.abspath(states.__file__)))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", _TWIRL_BITS], env=env,
                              capture_output=True, text=True, check=True)
        outputs.append(done.stdout)
    assert outputs[0] and outputs[0] == outputs[1]


def _unitarity_defect(samples, db, seed):
    """max |U^dag U - 1| and |U U^dag - 1| over the draws of twirl_mc's generator, plus the
    rounding of those products."""
    u = random_unitaries(samples, db, np.random.default_rng(seed))
    eye = np.eye(db)
    measured = max(np.abs(dagger(u) @ u - eye).max(), np.abs(u @ dagger(u) - eye).max())
    return measured + 2 * _gamma(db + 2)


_TWIRL_CASES = dict(
    da=st.integers(1, 3),
    db=st.integers(1, 4),
    hermitian=st.booleans(),
    samples=st.integers(1, 600),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=40, deadline=None)
@given(**_TWIRL_CASES)
def test_twirl_mc_preserves_the_trace(da, db, hermitian, samples, seed):
    # Tr (U X_aa U^dag) = Tr (X_aa U^dag U), within d_B^2 max|X| defect of Tr X_aa
    x = _operator(da * db, np.random.default_rng([seed, 1]), hermitian)
    out = twirl_mc(x, (da, db), np.random.default_rng(seed), samples)
    defect = _unitarity_defect(samples, db, seed)
    trace_x = complex(math.fsum(np.diag(x).real), math.fsum(np.diag(x).imag))
    trace_out = complex(math.fsum(np.diag(out).real), math.fsum(np.diag(out).imag))
    bound = (da * db * _twirl_sum_error(x, (da, db), samples, defect)
             + da * db * db * np.abs(x).max() * defect + 2 * UNIT_ROUNDOFF * abs(trace_x))
    assert abs(trace_out - trace_x) <= bound


@settings(max_examples=40, deadline=None)
@given(**_TWIRL_CASES)
def test_twirl_mc_fixes_a_product_with_the_identity(da, db, hermitian, samples, seed):
    # (1 (x) U)(A (x) 1)(1 (x) U)^dag = A (x) U U^dag, within max|A| defect of A (x) 1
    x = kron(_operator(da, np.random.default_rng([seed, 1]), hermitian), np.eye(db))
    out = twirl_mc(x, (da, db), np.random.default_rng(seed), samples)
    defect = _unitarity_defect(samples, db, seed)
    bound = _twirl_sum_error(x, (da, db), samples, defect) + np.abs(x).max() * defect
    assert np.abs(out - x).max() <= bound


def _haar_per_unitary(n, d, rngs):
    # one Gaussian draw, QR and phase fix per unitary, stream after stream
    out = np.empty((n, len(rngs), d, d), dtype=complex)
    for row, rng in enumerate(rngs):
        for k in range(n):
            g = rng.standard_normal((2, d, d))
            q, r = np.linalg.qr(g[0] + 1j * g[1])
            diag = np.diagonal(r)
            out[k, row] = q * (diag / np.abs(diag))
    return out


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("per_block,offset", [(1, -1), (1, 0), (2, -1), (2, 0), (2, 1), (3, 0)])
@pytest.mark.parametrize("streams", [None, 3])
def test_draws_in_blocks_under_a_small_entry_cap_match_the_loop(
    monkeypatch, d, per_block, offset, streams
):
    # a cap of per_block unitaries (plus or minus an entry) splits each stream's draws and
    # the chunk's QR into several blocks, which must not change a bit
    monkeypatch.setattr(states, "_CHUNK_ENTRIES", max(1, per_block * d * d + offset))
    n = 7

    def rngs():
        if streams is None:
            return np.random.default_rng([d, per_block, offset + 1])
        return [np.random.default_rng([d, per_block, offset + 1, i]) for i in range(streams)]

    drawn, looped = rngs(), rngs()
    u = random_unitaries(n, d, drawn)
    ref = _haar_per_unitary(n, d, states.streams(looped))
    assert np.array_equal(u, ref[:, 0] if streams is None else ref)
    for a, b in zip(states.streams(drawn), states.streams(looped)):
        assert a.bit_generator.state == b.bit_generator.state
    _assert_unital_matches_the_loop(d, d, streams, per_block + 10 * (offset + 1))


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


def _stack(channels):
    """The channels as one stacked channel: Kraus operator i the stack of each one's."""
    return KrausChannel([np.stack(ops) for ops in zip(*(c.kraus for c in channels))])


def _twins(seed, n):
    """n streams, twice: a chunk's list and the one-stream calls that match it row by row."""
    return ([np.random.default_rng([seed, i]) for i in range(n)],
            [np.random.default_rng([seed, i]) for i in range(n)])


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([1, 2, 5, 32]),
    d=st.sampled_from([2, 4, 8]),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["random_density", "regularize", "random_channel",
                          "random_unital_channel"]),
)
def test_a_sampler_over_n_streams_draws_each_row_as_its_stream_alone(n, d, seed, kind):
    draw = {
        "random_density": lambda rng: random_density(d, rng),
        "regularize": lambda rng: regularize(random_density(d, rng), 1e-3, (2, d // 2)),
        "random_channel": lambda rng: random_channel(d, 2, rng),
        "random_unital_channel": lambda rng: random_unital_channel(d, 3, rng),
    }[kind]
    chunk, singles = _twins(seed, n)
    stacked = draw(chunk)
    for i, rng in enumerate(singles):
        alone, row = draw(rng), stacked.row(i)
        assert type(row) is type(alone)
        if isinstance(alone, KrausChannel):
            assert len(row.kraus) == len(alone.kraus)
            assert all(_same_bits(a, b) for a, b in zip(row.kraus, alone.kraus))
            assert (row.d_in, row.d_out, row.is_unital) == (alone.d_in, alone.d_out,
                                                            alone.is_unital)
        else:
            assert _same_bits(row.mat, alone.mat) and row.dims == alone.dims
            assert type(row.trace) is float and row.trace.hex() == alone.trace.hex()
    # each stream was drawn as far as its one-stream twin
    for rng, twin in zip(chunk, singles):
        assert rng.bit_generator.state == twin.bit_generator.state
        assert rng.standard_normal() == twin.standard_normal()


def test_a_stacked_channel_acts_row_by_row_with_each_rows_bits():
    rng = np.random.default_rng(72)
    channels = [random_channel(4, 2, rng) for _ in range(3)]
    stacked = _stack(channels)
    xs = np.stack([random_density(4, rng).mat for _ in range(3)])
    xs[1] += 1e-6 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))  # not Hermitian
    applied, duals = stacked.apply(xs), stacked.apply_dual(xs)
    for i, channel in enumerate(channels):
        assert _same_bits(applied[i], channel.apply(xs[i]))
        assert _same_bits(duals[i], channel.apply_dual(xs[i]))
    dev = max_sv(applied - dagger(applied)) / max_sv(applied)
    assert dev[1] > 1e-12 and dev[0] <= 1e-12
    # one channel for the whole stack
    one = ptrace_channel((2, 2), 1)
    for i, row in enumerate(one.apply(xs)):
        assert _same_bits(row, one.apply(xs[i]))
    with pytest.raises(DimMismatch):  # Kraus stacks of other shapes
        KrausChannel([stacked.kraus[0], stacked.kraus[1][:2]])


def test_a_stacked_channel_is_unital_when_every_row_is():
    rng = np.random.default_rng(74)
    unital = [random_unital_channel(4, 3, rng) for _ in range(2)]
    assert require_unital(_stack(unital)).is_unital
    generic = random_channel(4, 3, rng)
    assert not generic.is_unital
    with pytest.raises(NotUnital):
        require_unital(_stack(unital + [generic]))


def _svd_shapes(monkeypatch) -> list:
    real, shapes = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd",
                        lambda x, *a, **k: shapes.append(x.shape) or real(x, *a, **k))
    return shapes


def _near_identity(gap: float) -> np.ndarray:
    """A 4 x 4 Kraus operator K with K^dag K = K K^dag = 1 + diag(gap, 0, 0, 0), up to rounding."""
    return np.diag([np.sqrt(1.0 + gap), 1.0, 1.0, 1.0])


def test_a_valid_channel_is_built_and_found_unital_with_no_svd(monkeypatch):
    rng = np.random.default_rng(76)
    stacked = _stack([random_unital_channel(4, 3, rng) for _ in range(2)])
    shapes = _svd_shapes(monkeypatch)
    channel = KrausChannel(stacked.kraus)
    assert channel.is_unital and channel.row(0).is_unital
    assert repr(channel.row(1)).endswith("unital=True)")
    assert shapes == []
    generic = KrausChannel(_stack([random_unital_channel(4, 3, rng),
                                   random_channel(4, 3, rng)]).kraus)
    assert shapes == []  # trace preserving: settled by the Frobenius bound
    assert not generic.is_unital and not generic.is_unital
    assert shapes == [(1, 4, 4)]  # the failing row alone, once


def test_a_deviation_in_doubt_takes_one_svd_and_passes(monkeypatch):
    op = _near_identity(0.75 * TOL_RECON)
    gap = op.T @ op - np.eye(4)
    assert 0.5 * TOL_RECON < np.linalg.norm(gap) < TOL_RECON
    shapes = _svd_shapes(monkeypatch)
    channel = KrausChannel([op])
    assert shapes == [(1, 4, 4)]
    assert channel.is_unital
    assert shapes == [(1, 4, 4)] * 2


def test_a_failing_channel_names_its_deviation():
    rng = np.random.default_rng(77)
    good, bad = _near_identity(0.0), _near_identity(2.0 * TOL_RECON)
    with pytest.raises(DimMismatch) as err:
        KrausChannel([np.stack([good, bad, good])])
    dev = max_sv(bad.T @ bad - np.eye(4))
    assert str(err.value) == f"Kraus operators violate trace preservation by {dev:.3e}"
    channels = [random_unital_channel(4, 3, rng), random_channel(4, 3, rng)]
    stacked = _stack(channels)
    dev = max(max_sv(sum(k @ dagger(k) for k in c.kraus) - np.eye(4)) for c in channels)
    with pytest.raises(NotUnital, match=f"^channel maps identity away from identity by {dev:.3e}$"):
        require_unital(stacked)


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
    recovered = PetzMap(channel, DensityMatrix(np.stack([s.mat for s in sigmas]))).apply(xs)
    for i, sigma in enumerate(sigmas):
        assert _same_bits(recovered[i], PetzMap(channel, sigma).apply(xs[i]))


def _drawn_channels(d, rows):
    """random_unital_channel(d, d) and random_channel(d, 2), or 2-row stacks of them."""
    rng = (np.random.default_rng([92, d]) if rows is None
           else [np.random.default_rng([92, d, i]) for i in range(rows)])
    return [random_unital_channel(d, d, rng), random_channel(d, 2, rng)]


def _gaussian(shape, rng):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("d", [2, 8, 32, 48, 64])
@pytest.mark.parametrize("rows", [None, 2])
def test_each_kraus_sum_of_a_channel_has_the_bits_of_its_generator_sum(monkeypatch, d, rows):
    gaps = []
    real_within = channels_module.max_sv_within
    monkeypatch.setattr(channels_module, "max_sv_within",
                        lambda gap, *a: gaps.append(gap) or real_within(gap, *a))
    rng = np.random.default_rng([93, d])
    lead = () if rows is None else (rows,)
    drawn = _drawn_channels(d, rows)
    if d == 64:  # its Kraus operators hold exact zeros
        drawn += [ptrace_channel((4, 4, 4), traced) for traced in range(3)]
    for channel in drawn:
        del gaps[:]
        KrausChannel(channel.kraus)
        assert hexes(gaps[0]) == hexes(sum(dagger(k) @ k for k in channel.kraus)
                                       - np.eye(channel.d_in))
        assert hexes(channel._unital_gap()) == hexes(
            sum(k @ dagger(k) for k in channel.kraus) - np.eye(channel.d_out))
        x = _gaussian(lead + (channel.d_in,) * 2, rng)
        y = _gaussian(lead + (channel.d_out,) * 2, rng)
        for x in (x, hermitize(x)):  # a Hermitian input's image is re-Hermitized
            want = sum(k @ x @ dagger(k) for k in channel.kraus)
            want = hermitize(want) if np.array_equal(x, dagger(x)) else want
            assert hexes(channel.apply(x)) == hexes(want)
        for y in (y, hermitize(y)):
            want = sum(dagger(k) @ y @ k for k in channel.kraus)
            want = hermitize(want) if np.array_equal(y, dagger(y)) else want
            assert hexes(channel.apply_dual(y)) == hexes(want)


def test_an_overflowing_channel_at_d64_is_nonfinite_without_a_warning():
    kraus = [k * 1e200 for k in random_unital_channel(64, 64, np.random.default_rng(94)).kraus]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite):
            KrausChannel(kraus)


def test_check_all_starts_no_thread_and_runs_every_traced_function_on_the_caller(monkeypatch,
                                                                                capsys):
    # perfbench's tracer rebinds qelab's functions and numpy.linalg's, and keeps one span stack
    main, off_main = threading.main_thread(), []

    def watched(fn, name):
        def call(*args, **kwargs):
            if threading.current_thread() is not main:
                off_main.append(name)
            return fn(*args, **kwargs)
        return call

    for name in ("dagger", "hermitize"):
        real = getattr(linalg, name)
        for module in [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "qelab"]:
            for attr, obj in list(vars(module).items()):
                if obj is real:
                    monkeypatch.setattr(module, attr, watched(real, name))
    for name in ("eigh", "eigvalsh", "svd", "qr", "cholesky"):
        monkeypatch.setattr(np.linalg, name, watched(getattr(np.linalg, name), name))
    before = threading.enumerate()
    code = cli.main(["check", "--suite", "all", "--dims", "4,4,4", "--trials", "1", "--seed", "5"])
    assert code == cli.EXIT_OK and capsys.readouterr().out
    assert threading.enumerate() == before
    assert off_main == []


U = np.finfo(float).eps / 2  # the unit roundoff


def _petz_bar(channel, image) -> float:
    """A first-order bound on ||R(Phi(sigma)) - sigma||_inf for the Petz map R of (Phi, sigma),
    with d = channel.d_in, n Kraus operators, kappa the condition number of Phi(sigma) and
    ||sigma|| <= 1: 8 d u (kappa + n).  eigh of Phi(sigma) is backward stable, with an error of
    c d u ||Phi(sigma)||, which its inverse square roots scale by kappa, as they do the rounding
    of the three products Phi(sigma)^{-1/2} Phi(sigma) Phi(sigma)^{-1/2}; Phi^* maps that near-
    identity to the identity with norm ||Phi^*(1)|| ~ 1, and its n terms add n u; the products
    with sigma^{1/2} and its eigh add a few d u more."""
    vals = np.linalg.eigvalsh(image)
    return 8 * channel.d_in * U * (vals[-1] / vals[0] + len(channel.kraus))


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(2, 8),
    unital=st.booleans(),
    rank=st.integers(1, 8),
    eps=st.floats(1e-6, 1e-1),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_petz_map_sends_the_image_of_its_reference_back(d, unital, rank, eps, seed):
    rng = np.random.default_rng(seed)
    sigma = regularize(random_density(d, rng, rank=min(rank, d)), eps)
    channel = random_unital_channel(d, d, rng) if unital else random_channel(d, 2, rng)
    image = channel.apply(sigma.mat)
    recovered = PetzMap(channel, sigma).apply(image)
    assert max_sv(recovered - sigma.mat) <= _petz_bar(channel, image)


def test_the_petz_map_sends_the_image_of_its_reference_back_at_d64():
    rng = np.random.default_rng(95)
    sigma = regularize(random_density(64, rng, rank=4), 1e-3)
    channel = random_unital_channel(64, 64, rng)
    image = channel.apply(sigma.mat)
    assert max_sv(PetzMap(channel, sigma).apply(image) - sigma.mat) <= _petz_bar(channel, image)
