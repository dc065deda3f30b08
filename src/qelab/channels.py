"""Quantum channels in Kraus form, their duals, and recovery maps.

A channel is held as a list of Kraus operators K_i (shape d_out x d_in) with sum_i
K_i^dag K_i = 1 enforced at construction.  The Hilbert-Schmidt dual Phi^*(Y) = sum_i
K_i^dag Y K_i, which the entropy checkers need, is the method apply_dual; it is generally
not trace preserving.  Both maps, and the Petz recovery map, also act row by row on an
(n, d, d) stack of inputs, with one channel for the whole stack or one channel per row: a
channel whose Kraus operators are (n, d_out, d_in) stacks, such as random_channel draws
for a chunk's list of streams.  Each map and each twirl holds its input to the size it
acts on through linalg.as_matrix, and a twirl and ptrace_channel hold their dims to the
split rule (linalg.split).
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DimMismatch, NotUnital, SingularSigma, need
from .linalg import (
    Hermitian,
    HermitianEigen,
    _kraus_sum,
    as_matrix,
    dagger,
    finite,
    first_flagged,
    herm_eig,
    hermitize,
    is_hermitian,
    kron,
    matrix_power,
    matrix_sqrt,
    max_sv,
    max_sv_within,
    ptrace,
    real_trace,
    require_form,
    spectrum_of,
    split,
    subsystems,
)
from .states import (
    SIZE,
    SubnormalizedOperator,
    _haar_q,
    as_drawn,
    capped,
    gaussians,
    random_unitaries,
    streams,
)
from .tolerances import PETZ_EPS, RANK_CUTOFF, TOL_RECON


def _hermitian_like(x, out: np.ndarray) -> np.ndarray:
    """out, re-Hermitized where the input x (each row of a stack) passes is_hermitian; a
    Hermitian operand passed it when it was built and is not tested again."""
    if isinstance(x, Hermitian):
        return hermitize(out)
    like = np.asarray(is_hermitian(as_matrix(x)))
    if like.all():
        return hermitize(out)
    return np.where(like[..., None, None], hermitize(out), out)


class KrausChannel:
    """Trace-preserving completely positive map given by Kraus operators.

    The operators must satisfy sum K^dag K = 1 within TOL_RECON.  Operators that are
    (n, d_out, d_in) stacks make n channels, one per trial, checked together; the channel
    acts on an (n, d, d) stack row by row, and ``row(i)`` is channel i.
    """

    def __init__(self, kraus: Sequence[np.ndarray]):
        ops = [require_form(np.asarray(k, dtype=complex), "Kraus operator") for k in kraus]
        if not ops or any(k.shape != ops[0].shape for k in ops):
            raise DimMismatch("need one or more Kraus operators, all of one shape")
        d_out, d_in = ops[0].shape[-2:]
        self.kraus = tuple(ops)
        self.d_in = d_in
        self.d_out = d_out
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is NonFinite below
            gap = _kraus_sum(ops, dual=True) - np.eye(d_in)
        ok = max_sv_within(gap, TOL_RECON)
        if not ok.all():
            dev = max_sv(first_flagged(gap, ~ok))
            raise DimMismatch(f"Kraus operators violate trace preservation by {dev:.3e}")

    def row(self, i: int) -> KrausChannel:
        """Channel i of a stack: views of its operators, not checked again."""
        out = object.__new__(KrausChannel)
        out.kraus = tuple(k[i] for k in self.kraus)
        out.d_in, out.d_out = self.d_in, self.d_out
        return out

    def _unital_gap(self) -> np.ndarray:
        """sum K K^dag - 1, of each channel of a stack."""
        return _kraus_sum(self.kraus) - np.eye(self.d_out)

    @cached_property
    def is_unital(self) -> bool:
        """True when the channel, or every channel of a stack, maps the identity to the
        identity within TOL_RECON: decided on first use."""
        return bool(max_sv_within(self._unital_gap(), TOL_RECON).all())

    def apply(self, x: Hermitian | np.ndarray) -> np.ndarray:
        mat = as_matrix(x, self.d_in, "channel input")
        return _hermitian_like(x, _kraus_sum(self.kraus, mat))

    def apply_dual(self, y: Hermitian | np.ndarray) -> np.ndarray:
        """Hilbert-Schmidt adjoint Phi^*(Y) = sum_i K_i^dag Y K_i.

        The dual of a trace-preserving map is unital (it fixes the identity)
        but generally not trace preserving.
        """
        mat = as_matrix(y, self.d_out, "dual input")
        return _hermitian_like(y, _kraus_sum(self.kraus, mat, dual=True))

    def __repr__(self) -> str:
        return (
            f"KrausChannel(d_in={self.d_in}, d_out={self.d_out}, "
            f"n_kraus={len(self.kraus)}, unital={self.is_unital})"
        )


def require_unital(channel: KrausChannel) -> KrausChannel:
    if not channel.is_unital:
        dev = np.max(max_sv(channel._unital_gap()))
        raise NotUnital(f"channel maps identity away from identity by {dev:.3e}")
    return channel


class PetzMap:
    """Transpose-channel recovery map of a channel with respect to a reference.

    For channel Phi and reference sigma this is
        X  |->  sigma^{1/2} Phi^*( Phi(sigma)^{-1/2} X Phi(sigma)^{-1/2} ) sigma^{1/2}.
    It always fixes the pushed-forward reference: apply(Phi(sigma)) = sigma.
    A caller that holds Phi(sigma) already passes it as ``image``, a matrix or a Hermitian.
    A singular Phi(sigma) is handled by mixing in PETZ_EPS of the maximally
    mixed state before the inverse square root (pseudo-inverse on the support
    alone would silently drop weight for inputs leaking off the support).
    """

    def __init__(self, channel: KrausChannel, sigma: SubnormalizedOperator,
                 image: np.ndarray | Hermitian | None = None):
        what = "recovery reference"  # a matrix, or a stack, of finite entries
        finite(require_form(as_matrix(sigma, channel.d_in, what), what))
        image = channel.apply(sigma) if image is None else image
        tr = np.asarray(real_trace(as_matrix(image)))
        if np.any(tr <= RANK_CUTOFF):
            raise SingularSigma("channel output of the reference has ~zero trace")
        eig = spectrum_of(image)
        singular = ~eig.support[..., 0]
        if np.any(singular):  # mixed rows take the spectrum of their mixture
            (vals, vecs), image, d = eig, as_matrix(image), eig.eigenvalues.shape[-1]
            image = (1.0 - PETZ_EPS) * image + (PETZ_EPS * tr[..., None, None] / d) * np.eye(d)
            mixed_vals, mixed_vecs = herm_eig(image)
            eig = HermitianEigen(np.where(singular[..., None], mixed_vals, vals),
                                 np.where(singular[..., None, None], mixed_vecs, vecs))
        self.channel = channel
        self._sqrt_sigma = matrix_sqrt(spectrum_of(sigma))
        self._inv_sqrt_image = matrix_power(eig, -0.5)

    def apply(self, x: Hermitian | np.ndarray) -> np.ndarray:
        mat = as_matrix(x, self.channel.d_out, "recovery input")
        inner = self._inv_sqrt_image @ mat @ self._inv_sqrt_image
        recovered = self._sqrt_sigma @ self.channel.apply_dual(inner) @ self._sqrt_sigma
        return _hermitian_like(x, recovered)


def ptrace_channel(dims: Sequence[int], traced: int) -> KrausChannel:
    """Partial trace over one subsystem as an explicit Kraus channel."""
    dims = split(dims, what="channel input")
    [traced] = subsystems(dims, [traced], "traced")
    d_pre, d_t, d_post = math.prod(dims[:traced]), dims[traced], math.prod(dims[traced + 1 :])
    ops = []
    for i in range(d_t):
        bra = np.zeros((1, d_t))
        bra[0, i] = 1.0
        ops.append(kron(kron(np.eye(d_pre), bra), np.eye(d_post)))
    return KrausChannel(ops)


def random_unital_channel(
    d: int, n_kraus: int, rng: np.random.Generator | Sequence[np.random.Generator]
) -> KrausChannel:
    """Mixed-unitary channel: Kraus sqrt(p_i) U_i with Haar unitaries U_i, or one per stream
    of a chunk as a stack."""
    n_kraus = int(need(n_kraus, SIZE, "Kraus count", DimMismatch))  # random_unitaries tests d
    rngs = streams(rng)
    # Each stream draws its weights, then its unitaries, which random_unitaries writes by
    # blocks under _CHUNK_ENTRIES into the Kraus stacks, scaled in place.  The weights keep
    # every branch comfortably populated so the channel stays full rank.
    probs = np.array([0.9 * stream.dirichlet(np.ones(n_kraus)) + 0.1 / n_kraus for stream in rngs])
    ops = random_unitaries(n_kraus, d, rngs)
    ops *= np.sqrt(probs.T)[..., None, None]
    return as_drawn(rng, KrausChannel(ops))


def random_channel(
    d: int, env_dim: int, rng: np.random.Generator | Sequence[np.random.Generator]
) -> KrausChannel:
    """Generic channel from a Haar-random isometry into d x env_dim, or one per stream of a
    chunk as a stack."""
    d = int(need(d, SIZE, "dimension", DimMismatch))
    env_dim = int(need(env_dim, SIZE, "environment dimension", DimMismatch))
    q = _haar_q(gaussians(streams(rng), (d * env_dim, d)))
    return as_drawn(rng, KrausChannel([q[:, i * d : (i + 1) * d, :] for i in range(env_dim)]))


def _twirl_operand(x: np.ndarray, dims: Sequence[int]) -> tuple[np.ndarray, int, int]:
    da, db = split(dims, parts=2, what="twirl operand")
    x = as_matrix(x, da * db, "twirl operand")
    if x.ndim != 2:  # twirl_mc's GEMM takes one matrix
        raise DimMismatch(f"a twirl takes one matrix, not a stack of shape {x.shape}")
    return x, da, db


def twirl_exact(x: np.ndarray, dims: Sequence[int]) -> np.ndarray:
    """Average of (1 (x) U) X (1 (x) U)^dag over Haar U on the second factor.

    The closed form replaces the twirled factor by its maximally mixed state:
    twirling over B sends X to Tr_B(X) (x) 1_B / d_B.
    """
    x, da, db = _twirl_operand(x, dims)
    return kron(ptrace(x, (da, db), [0]), np.eye(db) / db)


def twirl_mc(
    x: np.ndarray,
    dims: Sequence[int],
    rng: np.random.Generator,
    samples: int,
) -> np.ndarray:
    """Monte Carlo estimate of the twirl over the second factor with ``samples`` Haar draws.

    The draws are those of ``samples`` random_unitary calls, taken in capped blocks.  Each
    block forms (1 (x) U) X for all its draws as one GEMM over the stacked rows of the
    block-diagonal 1 (x) U, which gives each row the bits of its own product, then each
    term's product with (1 (x) U)^dag, and adds the terms in turn: the bits of the
    one-sample loop, whatever the blocks.
    """
    x, da, db = _twirl_operand(x, dims)
    samples = int(need(samples, SIZE, "sample count", DimMismatch))
    acc = np.zeros_like(x)
    for block in capped(range(samples), x.size):
        u = random_unitaries(len(block), db, rng)
        w = np.zeros((len(block),) + x.shape, dtype=complex)
        for a in range(da):  # the block-diagonal 1 (x) U
            w[:, a * db : (a + 1) * db, a * db : (a + 1) * db] = u
        terms = (w.reshape(-1, x.shape[1]) @ x).reshape(w.shape) @ dagger(w)
        terms[0] += acc
        # Summed over the real view (rows of >= 2 entries), so NumPy adds the terms in turn
        # like the per-sample loop: 1 x 1 complex terms would be summed pairwise.
        acc = np.add.reduce(terms.view(float), axis=0).view(complex)
    return _hermitian_like(x, acc / samples)
