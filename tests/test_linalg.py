"""Tests for the Hermitian linear-algebra layer."""

from __future__ import annotations

import itertools
import os
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qelab import linalg
from qelab.errors import DimMismatch, NoConvergence, NonFinite, NotHermitian, NotPSD, SingularInput
from qelab.linalg import (
    dagger,
    embed,
    herm_eig,
    hermitize,
    is_hermitian,
    kron,
    matrix_exp,
    matrix_fn,
    matrix_log,
    matrix_power,
    matrix_sqrt,
    max_sv,
    max_sv_within,
    ptrace,
    real_trace,
    require_hermitian,
    support_projector,
    trace_norm,
    unitary_power,
)
from qelab.tolerances import TOL_HERM


def _rand_hermitian(d, rng):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return hermitize(g)


def _rand_psd(d, rng, trace=None):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    if trace is not None:
        m *= trace / np.trace(m).real
    return m


def test_herm_eig_identity():
    res = herm_eig(np.eye(3))
    np.testing.assert_allclose(res.eigenvalues, [1.0, 1.0, 1.0])


def test_herm_eig_diagonal_sorted_ascending():
    res = herm_eig(np.diag([3.0, 1.0]))
    np.testing.assert_allclose(res.eigenvalues, [1.0, 3.0])
    # eigenvectors are the standard basis, permuted
    np.testing.assert_allclose(np.abs(res.eigenvectors), [[0, 1], [1, 0]], atol=1e-12)


def test_herm_eig_reconstruction_residual():
    rng = np.random.default_rng(11)
    h = _rand_hermitian(8, rng)
    res = herm_eig(h)
    recon = res.eigenvectors @ np.diag(res.eigenvalues) @ res.eigenvectors.conj().T
    assert max_sv(recon - h) < 1e-10
    # orthonormality contract
    assert max_sv(res.eigenvectors.conj().T @ res.eigenvectors - np.eye(8)) < 1e-10


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_matrix_fn_exp_of_zero_is_identity():
    np.testing.assert_allclose(matrix_exp(np.zeros((4, 4))), np.eye(4), atol=1e-14)


def test_log_exp_roundtrip():
    rng = np.random.default_rng(0)
    h = _rand_hermitian(6, rng)
    np.testing.assert_allclose(matrix_log(matrix_exp(h)), h, atol=1e-9)


def test_exp_of_commuting_sum_factorizes():
    # exp(X (x) 1 + 1 (x) Y) = exp(X) (x) exp(Y) for Hermitian X, Y
    rng = np.random.default_rng(1)
    x = _rand_hermitian(2, rng)
    y = _rand_hermitian(3, rng)
    lhs = matrix_exp(kron(x, np.eye(3)) + kron(np.eye(2), y))
    rhs = kron(matrix_exp(x), matrix_exp(y))
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_matrix_log_rejects_singular_without_support():
    with pytest.raises(SingularInput):
        matrix_log(np.diag([1.0, 0.0]))
    # a ~0 eigenvalue within the PSD slack is singular too, not a PSD violation
    with pytest.raises(SingularInput):
        matrix_log(np.diag([1.0, -1e-12]))


def test_an_overflowing_matrix_function_is_non_finite_not_singular():
    # exp overflows at the eigenvalue 801, where nothing is singular
    with pytest.raises(NonFinite, match=r"not finite at eigenvalue 8\.010e\+02"):
        matrix_exp(np.diag([801.0, 1.0]))
    with pytest.raises(NonFinite, match=r"not finite at eigenvalue 1\.000e\+03"):
        matrix_fn(np.diag([0.0, 1e3]), lambda x: np.power(x, 1e3))
    # a log or a negative power that fails at an eigenvalue of about 0 is still singular
    with pytest.raises(SingularInput, match="singular on the spectrum"):
        matrix_fn(np.diag([1.0, 1e-200, 1e3]), lambda x: np.power(x, -2.0))
    with pytest.raises(SingularInput, match="singular on the spectrum"):
        matrix_log(np.diag([1e3, 0.0]))


def test_matrix_log_of_a_negative_eigenvalue_is_not_psd():
    with pytest.raises(NotPSD, match="minimum eigenvalue -1.000e"):
        matrix_log(-np.eye(2))
    # one bad row of a stack, behind a singular one: the stack is not PSD
    stack = np.stack([np.eye(2), np.diag([1.0, 0.0]), np.diag([1.0, -1e-9])])
    with pytest.raises(NotPSD) as stacked:
        matrix_log(stack)
    with pytest.raises(NotPSD) as alone:
        matrix_log(stack[2])
    assert str(stacked.value) == str(alone.value)


def test_matrix_log_support_only_on_singular():
    out = matrix_log(np.diag([np.e, 0.0]), support_only=True)
    np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-12)


def test_matrix_fn_identity_returns_hermitization():
    rng = np.random.default_rng(5)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = hermitize(g)
    np.testing.assert_allclose(matrix_fn(h, lambda x: x), h, atol=1e-12)


def test_matrix_sqrt_squares_back():
    rng = np.random.default_rng(7)
    m = _rand_psd(5, rng)
    r = matrix_sqrt(m)
    np.testing.assert_allclose(r @ r, m, atol=1e-9)


def test_matrix_power_negative_is_pseudo_inverse():
    m = np.diag([4.0, 0.0])
    out = matrix_power(m, -0.5)
    np.testing.assert_allclose(out, np.diag([0.5, 0.0]), atol=1e-12)


def test_unitary_power_is_unitary_on_support():
    rng = np.random.default_rng(9)
    m = _rand_psd(4, rng, trace=1.0)
    u = unitary_power(m, 0.7)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-10)
    # group property rho^{is} rho^{it} = rho^{i(s+t)}
    np.testing.assert_allclose(
        unitary_power(m, 0.3) @ unitary_power(m, 0.4), u, atol=1e-10
    )


# a valid state's matrix: its negative eigenvalue is within the PSD slack of state validation
TINY_NEGATIVE = np.diag([1.0 + 5e-11, -5e-11])


@pytest.mark.parametrize("fn, f", [
    (matrix_sqrt, np.sqrt),
    (lambda h: matrix_power(h, 0.3), lambda x: np.power(x, 0.3)),
    (lambda h: matrix_log(h, support_only=True), np.log),
], ids=["sqrt", "power", "log_support"])
def test_a_tiny_negative_eigenvalue_is_clipped(fn, f):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = fn(TINY_NEGATIVE)
    np.testing.assert_allclose(out, np.diag([f(1.0 + 5e-11), 0.0]), rtol=0, atol=1e-15)


@pytest.mark.parametrize("fn", [
    matrix_sqrt,
    lambda h: matrix_power(h, 0.3),
    lambda h: matrix_log(h, support_only=True),
    matrix_log,
    lambda h: unitary_power(h, 0.3),
    support_projector,
], ids=["sqrt", "power", "log_support", "log", "unitary_power", "support_projector"])
def test_a_negative_eigenvalue_beyond_the_slack_is_not_psd(fn):
    with pytest.raises(NotPSD):
        fn(-np.eye(2))
    with pytest.raises(NotPSD):
        fn(herm_eig(np.stack([np.eye(2), np.diag([1.0, -1e-9])])))


def test_support_projector_rank():
    p = support_projector(np.diag([1.0, 1e-20, 2.0]))
    np.testing.assert_allclose(p, np.diag([1.0, 0.0, 1.0]), atol=1e-12)


def test_kron_identities():
    np.testing.assert_allclose(kron(np.eye(2), np.eye(3)), np.eye(6))
    np.testing.assert_allclose(
        kron(np.diag([2.0, 3.0]), np.eye(2)), np.diag([2.0, 2.0, 3.0, 3.0])
    )


def test_kron_index_formula():
    # element (i,j) of A (x) B is A[i // dB, j // dB] * B[i % dB, j % dB]
    rng = np.random.default_rng(3)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    k = kron(a, b)
    for i in range(6):
        for j in range(6):
            assert k[i, j] == pytest.approx(a[i // 3, j // 3] * b[i % 3, j % 3])


def test_ptrace_product_state():
    rng = np.random.default_rng(13)
    ra = _rand_psd(2, rng, trace=1.0)
    rb = _rand_psd(3, rng, trace=1.0)
    np.testing.assert_allclose(ptrace(kron(ra, rb), (2, 3), [0]), ra, atol=1e-12)
    np.testing.assert_allclose(ptrace(kron(ra, rb), (2, 3), [1]), rb, atol=1e-12)


def test_ptrace_bell_state_is_maximally_mixed():
    psi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    rho = np.outer(psi, psi.conj())
    np.testing.assert_allclose(ptrace(rho, (2, 2), [0]), np.eye(2) / 2, atol=1e-12)


def test_ptrace_order_independence():
    rng = np.random.default_rng(17)
    rho = _rand_psd(8, rng, trace=1.0)
    via_two_steps = ptrace(ptrace(rho, (2, 2, 2), [1, 2]), (2, 2), [0])
    direct = ptrace(rho, (2, 2, 2), [1])
    np.testing.assert_allclose(direct, via_two_steps, atol=1e-12)
    # keeping B through either route agrees too
    np.testing.assert_allclose(
        ptrace(ptrace(rho, (2, 2, 2), [0, 1]), (2, 2), [1]), direct, atol=1e-12
    )


def test_ptrace_preserves_trace_and_linearity():
    rng = np.random.default_rng(19)
    x = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    y = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    out = ptrace(2.0 * x + y, (2, 3), [1])
    np.testing.assert_allclose(
        out, 2.0 * ptrace(x, (2, 3), [1]) + ptrace(y, (2, 3), [1]), atol=1e-12
    )
    assert np.trace(out) == pytest.approx(np.trace(2.0 * x + y))


def test_ptrace_dim_mismatch():
    with pytest.raises(DimMismatch):
        ptrace(np.eye(5), (2, 3), [0])


def test_embed_acts_on_named_factors():
    rng = np.random.default_rng(23)
    op = _rand_hermitian(2, rng)
    full = embed(op, (2, 2, 2), (1,))
    np.testing.assert_allclose(full, kron(np.eye(2), kron(op, np.eye(2))), atol=1e-12)
    # embedding on (0, 2) skips the middle factor
    op2 = _rand_hermitian(4, rng)
    full2 = embed(op2, (2, 3, 2), (0, 2))
    # check against brute-force index bookkeeping via ptrace round trip
    assert ptrace(full2, (2, 3, 2), [0, 2]) == pytest.approx(3.0 * op2)


def test_trace_norm():
    assert trace_norm(np.eye(4)) == pytest.approx(4.0)
    rng = np.random.default_rng(29)
    x = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    h = x + x.conj().T
    # on a Hermitian matrix: the sum of the absolute eigenvalues
    assert trace_norm(h) == pytest.approx(np.abs(np.linalg.eigvalsh(h)).sum())
    # between the Frobenius norm and sqrt(d) times it
    assert np.linalg.norm(x) <= trace_norm(x) <= np.sqrt(5) * np.linalg.norm(x)


def test_trace_distance_of_states_at_most_two():
    rng = np.random.default_rng(31)
    for _ in range(20):
        rho = _rand_psd(4, rng, trace=1.0)
        sigma = _rand_psd(4, rng, trace=1.0)
        assert trace_norm(rho - sigma) <= 2.0 + 1e-10


def test_sqrt_norm_chain_on_psd_pairs():
    # ||sqrt(M)-sqrt(N)||_2^2 <= ||M-N||_1 <= ||sqrt(M)-sqrt(N)||_2 ||sqrt(M)+sqrt(N)||_2
    rng = np.random.default_rng(37)
    for _ in range(50):
        m = _rand_psd(4, rng)
        n = _rand_psd(4, rng)
        dm = matrix_sqrt(m) - matrix_sqrt(n)
        sm = matrix_sqrt(m) + matrix_sqrt(n)
        lo = np.linalg.norm(dm) ** 2
        mid = trace_norm(m - n)
        hi = np.linalg.norm(dm) * np.linalg.norm(sm)
        assert lo <= mid + 1e-8
        assert mid <= hi + 1e-8


def test_sqrt_sum_norm_sandwich_for_states():
    # sqrt(2) <= ||sqrt(rho)+sqrt(sigma)||_2 <= 2 for density matrices
    rng = np.random.default_rng(41)
    for _ in range(25):
        rho = _rand_psd(3, rng, trace=1.0)
        sigma = _rand_psd(3, rng, trace=1.0)
        v = np.linalg.norm(matrix_sqrt(rho) + matrix_sqrt(sigma))
        assert np.sqrt(2.0) - 1e-10 <= v <= 2.0 + 1e-10


def test_real_trace_discards_imaginary_noise():
    x = np.array([[1.0 + 1e-18j, 0.0], [0.0, 2.0]])
    assert real_trace(x) == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# One Hermiticity rule; matrix functions take a spectrum
# ---------------------------------------------------------------------------


def _two_svd_rule(x):
    """The rule as herm_eig, _validated_matrix and the channels each wrote it."""
    return max_sv(x - x.conj().T) <= TOL_HERM * max(max_sv(x), 1e-300)


def _verdict(rule, x):
    try:
        with np.errstate(invalid="ignore"):
            return rule(x)
    except NonFinite:
        return "NonFinite"


# relative size of the anti-Hermitian part, as a multiple of the tolerance
_OFFSETS = {"inside": 0.99, "outside": 1.01, "far": 1e4}
_EXPECTED = {"exact": True, "zero": True, "inside": True, "outside": False, "far": False}


@settings(max_examples=300, deadline=None)
@given(
    d=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["exact", "zero", "inside", "outside", "far", "nan", "inf"]),
)
def test_is_hermitian_agrees_with_the_two_svd_rule(d, seed, kind):
    rng = np.random.default_rng(seed)
    x = _rand_hermitian(d, rng) * rng.uniform(1e-3, 1e3)
    if kind == "zero":
        x = np.zeros((d, d), dtype=complex)
    elif kind in _OFFSETS:
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        skew = g - g.conj().T  # x + c skew deviates from Hermitian by 2 c ||skew||
        x = x + (_OFFSETS[kind] * TOL_HERM * max_sv(x) / (2.0 * max_sv(skew))) * skew
    elif kind in ("nan", "inf"):
        x[tuple(rng.integers(0, d, size=2))] = np.nan if kind == "nan" else np.inf
    verdict = _verdict(is_hermitian, x)
    assert verdict == _verdict(_two_svd_rule, x)
    assert verdict is _EXPECTED[kind] if kind in _EXPECTED else verdict == "NonFinite"


def test_exactly_hermitian_input_takes_no_svd(monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("an exactly Hermitian input reached an SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    rng = np.random.default_rng(60)
    for d in (1, 2, 5):
        h = _rand_hermitian(d, rng)
        # exactly Hermitian: within 1e-12 * ||h||, and so within the rule's tolerance
        assert not (h - dagger(h)).any()
        assert is_hermitian(h)
        require_hermitian(h)
        herm_eig(h)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_still_takes_the_svd_path(bad, monkeypatch):
    calls = []
    real_max_sv = linalg.max_sv
    monkeypatch.setattr(linalg, "max_sv", lambda x: calls.append(1) or real_max_sv(x))
    x = np.eye(3, dtype=complex)
    x[0, 2] = bad
    assert _verdict(is_hermitian, x) == _verdict(_two_svd_rule, x) == "NonFinite"
    assert calls


# ---------------------------------------------------------------------------
# max_sv_within: a Frobenius bound settles a row far inside, the SVD every other row
# ---------------------------------------------------------------------------

_RATIOS = (0.49, 0.51, 0.99, 1.01)  # each row's largest singular value over the bound
# The bound; the rows scale with it.  At 1e160 a matrix's sum of squares overflows where that
# of its anti-Hermitian part 1e-9 times smaller does not.
_SCALES = (1.0, 1e-170, 1e-300, 5e-324, 1e160, 1e170, 1e300)


def _rows_at(bound, seed=61, d=3):
    """One rank-1 row per ratio of _RATIOS, whose largest singular value, and so its
    Frobenius norm, is that ratio times bound (up to the rounding of the scaling)."""
    rng = np.random.default_rng(seed)
    rows = []
    for ratio in _RATIOS:
        u, v = (rng.normal(size=d) + 1j * rng.normal(size=d) for _ in range(2))
        m = np.outer(u, v.conj())
        rows.append(m / max_sv(m) * ratio * bound)
    return np.stack(rows)


def _svd_rule(x, bound, strict):
    """The verdict as the SVD gives it, or NonFinite for a NaN or infinite entry."""
    try:
        norm = np.asarray(max_sv(x))
    except NonFinite:
        return "NonFinite"
    return (norm < bound if strict else norm <= bound).tolist()


def _within(x, bound, strict):
    try:
        return max_sv_within(x, bound, strict=strict).tolist()
    except NonFinite:
        return "NonFinite"


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("scale", _SCALES)
def test_max_sv_within_gives_the_svd_rules_verdict(scale, strict):
    rows = _rows_at(scale)
    assert _within(rows, scale, strict) == _svd_rule(rows, scale, strict)
    for row in rows:
        assert _within(row, scale, strict) == _svd_rule(row, scale, strict)
    if scale == 1.0:
        assert _within(rows, scale, strict) == [True, True, True, False]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_row_in_a_stack_gets_the_svd_rules_verdict(bad):
    rows = _rows_at(1.0)
    rows[[0, 2], 0, 1] = bad  # row 0 alone would pass on its Frobenius norm
    for strict in (False, True):
        assert _within(rows, 1.0, strict) == _svd_rule(rows, 1.0, strict) == "NonFinite"
        for row in rows:
            assert _within(row, 1.0, strict) == _svd_rule(row, 1.0, strict)


def test_a_finite_matrix_whose_singular_values_overflow_raises_no_convergence():
    # a finite input whose SVD gives inf is an error, not an inf norm or a verdict on one
    x = np.full((2, 2), 1e308)
    calls = [lambda: max_sv(x), lambda: trace_norm(x), lambda: trace_norm(np.stack([np.eye(2), x])),
             lambda: max_sv_within(x, 1.0), lambda: max_sv_within(x - x.T + 1.0, 1.0, ref=x)]
    for call in calls:
        with pytest.raises(NoConvergence, match="failed or overflowed"):
            call()


def test_only_the_rows_in_doubt_take_the_svd(monkeypatch):
    stacks = {scale: _rows_at(scale) for scale in _SCALES}
    seen = []
    real = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda x, *a, **k: seen.append(x) or real(x, *a, **k))
    rows = stacks.pop(1.0)
    assert max_sv_within(rows[0], 1.0) and seen == []  # 0.49: its Frobenius norm settles it
    max_sv_within(rows, 1.0)
    assert len(seen) == 1 and _same_bits(seen[0], rows[1:])
    for scale, rows in stacks.items():  # a sum of squares out of range leaves all in doubt
        seen.clear()
        max_sv_within(rows, scale)
        assert [m.shape for m in seen] == [(4, 3, 3)]


@pytest.mark.parametrize("scale", _SCALES)
def test_is_hermitian_at_any_scale_agrees_with_the_two_svd_rule(scale):
    rng = np.random.default_rng(62)
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h = _rand_hermitian(3, rng)
    skew = g - dagger(g)
    stack = np.stack([g, h + 1e-12 * skew, h + 1e-9 * skew, h]) * scale
    for x in (stack, stack.real):  # a complex sum of squares overflows to NaN, a real one to inf
        expected = [_two_svd_rule(m) for m in x]
        assert is_hermitian(x).tolist() == expected
        assert [is_hermitian(m) for m in x] == expected
        if scale in (1.0, 1e-170, 1e160, 1e170):  # where a bare sum of squares under- or overflows
            assert expected == [False, True, False, True]


SPECTRAL_FNS = {
    "matrix_fn": lambda h: matrix_fn(h, np.cos),
    "matrix_exp": matrix_exp,
    "matrix_log": matrix_log,
    "matrix_log_support": lambda h: matrix_log(h, support_only=True),
    "matrix_sqrt": matrix_sqrt,
    "matrix_power": lambda h: matrix_power(h, -0.37),
    "matrix_power_full": lambda h: matrix_fn(h, lambda x: np.power(x, 1.7)),
    "unitary_power": lambda h: unitary_power(h, 0.7),
    "support_projector": support_projector,
}


def _outcome(fn, arg):
    try:
        return fn(arg)
    except (SingularInput, NotPSD) as exc:
        return type(exc).__name__


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(SPECTRAL_FNS)),
    d=st.integers(1, 6),
    rank=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_matrix_functions_give_the_same_bits_from_a_spectrum(name, d, rank, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(d, min(rank, d))) + 1j * rng.normal(size=(d, min(rank, d)))
    h = g @ g.conj().T
    fn = SPECTRAL_FNS[name]
    direct = _outcome(fn, h)
    spectral = _outcome(fn, herm_eig(h))
    if isinstance(direct, str):
        assert direct == spectral
    else:
        assert np.array_equal(direct, spectral)


@pytest.mark.parametrize("name", sorted(SPECTRAL_FNS))
def test_matrix_functions_validate_a_raw_matrix(name):
    with pytest.raises(NotHermitian):
        SPECTRAL_FNS[name](np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_a_spectrum_is_not_decomposed_again(monkeypatch):
    spec = herm_eig(_rand_psd(4, np.random.default_rng(61)))

    def no_eig(*args, **kwargs):
        raise AssertionError("a spectrum went through herm_eig")

    monkeypatch.setattr(linalg, "herm_eig", no_eig)
    for fn in SPECTRAL_FNS.values():
        fn(spec)


# ---------------------------------------------------------------------------
# Stacks: an (n, d, d) call gives each row the bits of its own 2-D call
# ---------------------------------------------------------------------------


def _same_bits(a, b) -> bool:
    """Equal dtype, shape and bytes: equal values, sign bits of zeros included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _psd_stack(d, ranks, rng):
    """One PSD matrix per rank; a rank below d leaves a partial support."""
    mats = []
    for rank in ranks:
        g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
        mats.append(g @ g.conj().T)
    return np.stack(mats)


STACKED_FNS = {
    "herm_eig": lambda h: herm_eig(h),
    "exp": matrix_exp,
    "cos": lambda h: matrix_fn(h, np.cos),
    "log_support": lambda h: matrix_log(h, support_only=True),
    "sqrt": matrix_sqrt,
    "power": lambda h: matrix_power(h, -0.37),
    "support_projector": support_projector,
    "is_hermitian": is_hermitian,
    "hermitian_within_1e-12": lambda h: max_sv(h - dagger(h)) <= 1e-12 * max_sv(h),
    "max_sv": max_sv,
    "trace_norm": trace_norm,
    "real_trace": real_trace,
}


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(STACKED_FNS)),
    d=st.integers(1, 6),
    ranks=st.lists(st.integers(1, 6), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_stack_gives_each_row_its_own_bits(name, d, ranks, seed):
    rng = np.random.default_rng(seed)
    stack = _psd_stack(d, [min(r, d) for r in ranks], rng)
    if len(ranks) > 1:  # a row that is Hermitian only up to rounding takes the SVD rule
        stack[-1] += 1e-15 * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    fn = STACKED_FNS[name]
    whole = fn(stack)
    for i, row in enumerate(stack):
        alone = fn(row)
        if name == "herm_eig":
            assert _same_bits(whole.eigenvalues[i], alone.eigenvalues)
            assert _same_bits(whole.eigenvectors[i], alone.eigenvectors)
        elif np.ndim(alone) == 0:
            assert type(alone) in (bool, float)
            assert _same_bits(whole[i], np.asarray(alone, dtype=whole.dtype))
        else:
            assert _same_bits(whole[i], alone)


def test_a_partial_support_row_keeps_its_own_branch():
    rng = np.random.default_rng(62)
    stack = _psd_stack(4, [4, 2, 4], rng)
    # and a row with a tiny negative eigenvalue, which is off the support
    v = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    tiny = hermitize((v * [-5e-11, 0.2, 0.3, 0.5 + 5e-11]) @ v.conj().T)
    stack = np.concatenate([stack, tiny[None]])
    spec = herm_eig(stack)
    assert not np.all(np.abs(spec.eigenvalues[1]) > 1e-12 * spec.eigenvalues[1, -1])
    assert spec.eigenvalues[3, 0] < -1e-12 * spec.eigenvalues[3, -1]
    for fn in (matrix_sqrt, support_projector, lambda h: matrix_log(h, support_only=True)):
        whole = fn(spec)
        for i in range(4):
            assert _same_bits(whole[i], fn(herm_eig(stack[i])))


@pytest.mark.parametrize("dims", [(2, 3, 2), (3, 2, 2), (2, 2, 2)])
def test_stacked_ptrace_and_embed_match_each_row(dims):
    rng = np.random.default_rng(63)
    total = int(np.prod(dims))
    stack = _psd_stack(total, [total, 1, total], rng)
    stack[1, 0, 0] = -0.0  # a negative zero must come through as one
    subsets = [s for r in range(1, 4) for s in itertools.combinations(range(3), r)]
    for keep in subsets:
        whole = ptrace(stack, dims, keep)
        for i in range(3):
            assert _same_bits(whole[i], ptrace(stack[i], dims, keep))
        part = int(np.prod([dims[k] for k in keep]))
        ops = _psd_stack(part, [part, 1, part], rng)
        ops[2] *= -1.0  # negative entries, so products with the identity's zeros give -0.0
        whole = embed(ops, dims, keep)
        for i in range(3):
            alone = embed(ops[i], dims, keep)
            assert _same_bits(whole[i], alone)
            assert _same_bits(alone, _kron_embed(ops[i], dims, keep))


@pytest.mark.parametrize("shapes", [((2, 3), (3, 2)), ((1, 2), (4, 4)), ((3, 3), (1, 1))])
def test_kron_gives_the_bits_of_np_kron_on_matrices_and_on_each_row_of_a_stack(shapes):
    rng = np.random.default_rng(65)
    a = rng.normal(size=(3,) + shapes[0]) + 1j * rng.normal(size=(3,) + shapes[0])
    b = -rng.normal(size=(3,) + shapes[1])  # real, so complex-by-real products give -0.0
    a[1, 0, 0] = -0.0
    for i in range(3):
        assert _same_bits(kron(a[i], b[i]), np.kron(a[i], b[i]))
        assert _same_bits(kron(a, b)[i], np.kron(a[i], b[i]))
        assert _same_bits(kron(a, b[0])[i], np.kron(a[i], b[0]))
        assert _same_bits(kron(a[0], b)[i], np.kron(a[0], b[i]))


def _kron_embed(op, dims, acting_on):
    """embed as np.kron and a transpose write it."""
    n = len(dims)
    rest = [i for i in range(n) if i not in acting_on]
    if not rest:
        return op.copy()
    big = np.kron(op, np.eye(int(np.prod([dims[i] for i in rest]))))
    order = list(acting_on) + rest
    perm = list(np.argsort(order))
    tensor = big.reshape([dims[i] for i in order] * 2)
    total = int(np.prod(dims))
    return tensor.transpose(perm + [n + p for p in perm]).reshape(total, total)


def test_a_bad_row_in_a_stack_still_raises():
    rng = np.random.default_rng(64)
    stack = _psd_stack(3, [3, 3, 3], rng)
    skewed = stack.copy()
    skewed[1, 0, 1] += 1.0
    with pytest.raises(NotHermitian):
        herm_eig(skewed)
    with pytest.raises(NotHermitian):
        require_hermitian(skewed)
    singular = _psd_stack(3, [3, 1, 3], rng)
    with pytest.raises(SingularInput):
        matrix_log(singular)
    with pytest.raises(DimMismatch):
        ptrace(stack, (2, 2), [0])
    with pytest.raises(DimMismatch):
        embed(stack, (3, 2), [1])


def hexes(x) -> list[str]:
    """float.hex of each real and imaginary part: equal lists are equal values, -0.0 and inf
    included (the bytes tell NaNs apart)."""
    return [float.hex(v) for v in np.asarray(x, dtype=complex).view(float).ravel().tolist()]


def _generator_sum(kraus, y, dual):
    """A Kraus sum as the generator sums of KrausChannel wrote it before _kraus_sum."""
    if y is None:
        return sum(dagger(k) @ k for k in kraus) if dual else sum(k @ dagger(k) for k in kraus)
    return sum(dagger(k) @ y @ k for k in kraus) if dual else sum(k @ y @ dagger(k) for k in kraus)


def assert_generator_bits(d, rows, seed) -> None:
    """linalg._kraus_sum has the bytes of _generator_sum on 9 terms of size d, one matrix
    (rows None) or a stack of ``rows``, with zero, overflowing, NaN and signed-zero terms."""
    rng = np.random.default_rng(seed)
    shape = () if rows is None else (rows,)
    kraus = [rng.normal(size=shape + (d, d)) + 1j * rng.normal(size=shape + (d, d))
             for _ in range(9)]
    kraus[0][...] = 0.0  # exact zeros in the first term: the sum starts from 0 + T_0
    kraus[4][...] = 0.0
    kraus[4][..., 0, 0] = 1e200  # its term overflows at (0, 0) alone
    y = rng.normal(size=shape + (d, d)) + 1j * rng.normal(size=shape + (d, d))
    y[..., 0, 0] = -1.0  # -inf there
    y_nan = y.copy()
    y_nan[..., -1, 0] = np.nan
    y_zero = np.full(shape + (d, d), complex(-0.0, -0.0))  # every term is a signed zero
    seen = set()
    with np.errstate(all="ignore"):
        for operand in (None, y, y_nan, y_zero):
            for dual in (False, True):
                want = _generator_sum(kraus, operand, dual)
                got = linalg._kraus_sum(kraus, operand, dual)
                assert hexes(got) == hexes(want) and got.tobytes() == want.tobytes()
                seen.update(hexes(want))
    assert {"nan", "inf", "-inf", "0x0.0p+0"} <= seen


@pytest.mark.parametrize("d", [2, 8, 32, 48, 64])
@pytest.mark.parametrize("rows", [None, 2])
def test_a_kraus_sum_has_the_bits_of_the_generator_sum(d, rows):
    assert_generator_bits(d, rows, [90, d])


@pytest.mark.parametrize("cores", [1, 2, 3, 4])
@pytest.mark.parametrize("rows", [None, 2])
def test_a_kraus_sum_has_the_bits_of_the_generator_sum_whatever_the_lanes(monkeypatch, cores,
                                                                           rows):
    # however many cores the host reports, a d = 64 sum keeps its bits and starts no thread
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    before = threading.enumerate()
    assert_generator_bits(64, rows, [90, 64, cores])
    assert threading.enumerate() == before


def test_a_kraus_sum_holds_a_few_terms_at_a_time():
    # the loop adds each term as it comes, not all 64 terms at once
    rng = np.random.default_rng(99)
    kraus = [rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64)) for _ in range(64)]
    y = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for _ in range(3):
            linalg._kraus_sum(kraus, y)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 5 * y.nbytes
