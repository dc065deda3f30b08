"""Each operand is validated once.

An operand of the one checked type, linalg.Hermitian, is checked when it is built: a
SubnormalizedOperator or DensityMatrix, the reduced states a validated state hands out, and a
channel image or surrogate wrapped as a Hermitian.  Its spectrum, its entropies and the channel
applies to it are not checked again, and a spectrum takes its support mask once.  A raw array
is checked at every call, whatever its flags.

The bit guard holds the unchecked path to the bits of the checking one: a validated matrix is
exactly Hermitian, so hermitize returns its bits and eigh sees the same input.  The flag guard
holds read-only raw arrays to the checks of any raw array.  The count guard runs the command
line in process and pins what the checks cost a run.
"""

from __future__ import annotations

import contextlib
import io

import numpy as np
import pytest

from qelab import checks, channels, cli, entropy, linalg, states
from qelab.channels import PetzMap, random_unital_channel
from qelab.entropy import cmi, relative_entropy, von_neumann
from qelab.errors import NotHermitian
from qelab.linalg import Hermitian, herm_eig, hermitize
from qelab.states import AB, B, BC, random_density, regularize

PARTS = (AB, B, BC, (0,), (0, 2))
# (dims, rank, rows): 2-D states and 5-row stacks, of full rank and of rank 1 regularized
CASES = [(dims, rank, rows) for dims in [(2, 2, 2), (2, 3, 2)] for rank in (None, 1)
         for rows in (None, 5)] + [((4, 4, 4), None, None), ((4, 4, 4), 1, 5)]


def _bits(value) -> bytes:
    return np.asarray(value).tobytes()


def _state(dims, rank, rows, seed=0):
    d = int(np.prod(dims))
    rng = (np.random.default_rng([seed, 1]) if rows is None
           else [np.random.default_rng([seed, 1, i]) for i in range(rows)])
    return regularize(random_density(d, rng, rank=rank), 1e-6, dims)


def _case_id(case) -> str:
    dims, rank, rows = case
    return f"{'x'.join(map(str, dims))}-rank{rank or 'full'}-{'stack' if rows else '2d'}"


@pytest.mark.parametrize("case", CASES, ids=[_case_id(c) for c in CASES])
def test_validated_matrices_and_their_marginals_are_exactly_hermitian(case):
    state = _state(*case)
    for mat in [state.mat] + [state.marginal(part) for part in PARTS]:
        assert _bits(hermitize(mat)) == _bits(mat)


@pytest.mark.parametrize("case", CASES, ids=[_case_id(c) for c in CASES])
def test_trusted_spectra_and_entropies_have_the_bits_of_raw_copies(case):
    state, other = _state(*case), _state(*case, seed=1)
    ops = [state] + [state.reduced(part) for part in PARTS]
    for op in ops:
        for got, want in zip(op.spectrum, herm_eig(op.mat.copy())):
            assert _bits(got) == _bits(want)
        assert _bits(von_neumann(op)) == _bits(von_neumann(op.mat.copy()))
    s_ab, s_bc, s_b = (von_neumann(state.marginal(part).copy()) for part in (AB, BC, B))
    assert _bits(cmi(state)) == _bits(s_ab + s_bc - von_neumann(state.mat.copy()) - s_b)
    for rho, sigma in [(state, other), (state.reduced(AB), other.reduced(AB))]:
        raw = relative_entropy(rho.mat.copy(), sigma.mat.copy())
        assert _bits(relative_entropy(rho, sigma)) == _bits(raw)


@pytest.mark.parametrize("case", CASES, ids=[_case_id(c) for c in CASES])
def test_channel_applies_to_operators_have_the_bits_of_raw_copies(case):
    state, sigma = _state(*case), _state(*case, seed=1)
    channel = random_unital_channel(state.dim, 3, np.random.default_rng(7))
    image = Hermitian(channel.apply(state.mat.copy()))
    petz = PetzMap(channel, sigma).apply
    for apply, op in [(channel.apply, state), (channel.apply_dual, state),
                      (channel.apply_dual, image), (petz, image)]:
        want = _bits(apply(op.mat.copy()))
        assert _bits(apply(op)) == want and _bits(apply(op.mat)) == want


def _read_only_nonhermitian(which: str, d: int = 4) -> np.ndarray:
    """A non-Hermitian matrix made read-only by its flag ("setflags"), or by np.broadcast_to
    as a 2-D view ("broadcast-2d") or as a 5-row stack ("broadcast-stack")."""
    mat = np.diag(np.linspace(0.1, 0.4, d)).astype(complex)
    mat[0, 1] = 0.3
    if which == "setflags":
        mat.setflags(write=False)
        return mat
    return np.broadcast_to(mat, mat.shape if which == "broadcast-2d" else (5, d, d))


@pytest.mark.parametrize("which", ["setflags", "broadcast-2d", "broadcast-stack"])
def test_read_only_raw_arrays_are_checked_like_any_other(which):
    raw = _read_only_nonhermitian(which)
    assert not raw.flags.writeable
    with pytest.raises(NotHermitian):
        herm_eig(raw)
    with pytest.raises(NotHermitian):
        von_neumann(raw)
    channel = random_unital_channel(4, 3, np.random.default_rng(8))
    for apply in (channel.apply, channel.apply_dual):
        out, want = apply(raw), apply(np.array(raw))
        assert _bits(out) == _bits(want)
        assert _bits(hermitize(out)) != _bits(out)  # found not Hermitian, so left as summed
    # a read-only matrix within the Hermitian tolerance is hermitized, as a writable one is
    near = hermitize(np.array(raw)) + 1e-14j * np.eye(4)[::-1]
    near.setflags(write=False)
    for got, want in zip(herm_eig(near), np.linalg.eigh(hermitize(near))):
        assert _bits(got) == _bits(want)


def _spied_run(monkeypatch, argv) -> dict:
    """Run cli.main(argv) in process and count the calls of psd_support, require_hermitian and
    is_hermitian: every call, the psd_support calls on a spectrum already seen, and the
    require_hermitian and is_hermitian calls on the matrix of an operator object (a view of it
    included).  The matrices and spectra seen are kept, so that no id is reused."""
    held, validated, seen = [], set(), set()
    counts = dict.fromkeys(["psd_support", "repeated_spectrum", "require_hermitian",
                            "is_hermitian", "on_validated"], 0)

    def remember(mat):
        held.append(mat)
        validated.add(id(mat))
        return mat

    def is_validated(x) -> bool:
        while x is not None:
            if id(x) in validated:
                return True
            x = getattr(x, "base", None)
        return False

    real_init, real_view = linalg.Hermitian.__init__, states.SubnormalizedOperator._view.__func__

    def init(self, mat):
        real_init(self, mat)
        remember(self.mat)

    monkeypatch.setattr(linalg.Hermitian, "__init__", init)
    monkeypatch.setattr(states.SubnormalizedOperator, "_view", classmethod(
        lambda cls, mat, *args, **kwargs: real_view(cls, remember(mat), *args, **kwargs)))

    def spy(name, real):
        def call(x, *args, **kwargs):
            counts[name] += 1
            held.append(x)
            if name == "psd_support":
                counts["repeated_spectrum"] += id(x) in seen
                seen.add(id(x))
            else:
                counts["on_validated"] += is_validated(x)
            return real(x, *args, **kwargs)
        return call

    for name in ("psd_support", "require_hermitian", "is_hermitian"):
        real = getattr(linalg, name)
        for module in (linalg, states, entropy, channels, checks):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, spy(name, real))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == cli.EXIT_OK
    return counts


@pytest.mark.parametrize("suite, pinned", [
    # Before operands carried their checks, markov-roundtrip made 90 support checks (18 a
    # trial, 35 on a spectrum seen before) and 57 Hermiticity checks, 40 of them on validated
    # operands; all suites made 245 support checks (71 repeated), 223 require_hermitian calls
    # (104 on validated operands) and 28 is_hermitian calls (13).
    ("markov-roundtrip", {"psd_support": 55, "require_hermitian": 12, "is_hermitian": 0}),
    ("all", {"psd_support": 174, "require_hermitian": 114, "is_hermitian": 15}),
])
def test_each_operand_is_checked_once_per_run(monkeypatch, suite, pinned):
    argv = ["check", "--suite", suite, "--dims", "2,2,2", "--trials", "5", "--seed", "1"]
    counts = _spied_run(monkeypatch, argv)
    assert counts["repeated_spectrum"] == 0 and counts["on_validated"] == 0
    assert {name: counts[name] for name in pinned} == pinned
