"""Quantum channels in Kraus form, their duals, and recovery maps.

A channel is held as a list of Kraus operators K_i (shape d_out x d_in) with
sum_i K_i^dag K_i = 1 enforced at construction.  The Hilbert-Schmidt dual
Phi^*(Y) = sum_i K_i^dag Y K_i, which the entropy checkers need, is the method
apply_dual; it is generally not trace preserving.  Both maps, and the Petz
recovery map, also act row by row on an (n, d, d) stack of inputs, with one
channel for the whole stack or, from KrausChannel.stack, one channel per row.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DimMismatch, NotUnital, SingularSigma
from .linalg import (
    HermitianEigen,
    dagger,
    herm_eig,
    hermitize,
    is_hermitian,
    kron,
    matrix_power,
    matrix_sqrt,
    max_sv,
    ptrace,
    real_trace,
)
from .states import (
    SubnormalizedOperator,
    _haar_q,
    random_unitaries,
    random_unitary,
)
from .tolerances import PETZ_EPS, RANK_CUTOFF, TOL_RECON


def _hermitian_like(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out, re-Hermitized where the input x (each row of a stack) passes is_hermitian at 1e-12."""
    like = np.asarray(is_hermitian(x, 1e-12))
    if like.all():
        return hermitize(out)
    return np.where(like[..., None, None], hermitize(out), out)


class KrausChannel:
    """Trace-preserving completely positive map given by Kraus operators.

    The operators must satisfy sum K^dag K = 1 within TOL_RECON.
    """

    def __init__(self, kraus: Sequence[np.ndarray]):
        ops = [np.asarray(k, dtype=complex) for k in kraus]
        if not ops:
            raise DimMismatch("need at least one Kraus operator")
        d_out, d_in = ops[0].shape
        for k in ops:
            if k.ndim != 2 or k.shape != (d_out, d_in):
                raise DimMismatch(
                    f"all Kraus operators must share shape ({d_out}, {d_in})"
                )
        self.kraus = tuple(ops)
        self.d_in = d_in
        self.d_out = d_out
        gram = sum(k.conj().T @ k for k in ops)
        tp_dev = max_sv(gram - np.eye(d_in))
        if tp_dev > TOL_RECON:
            raise DimMismatch(f"Kraus operators violate trace preservation by {tp_dev:.3e}")
        env = sum(k @ k.conj().T for k in ops)
        self._unital_dev = max_sv(env - np.eye(d_out))

    @classmethod
    def stack(cls, channels: Sequence[KrausChannel]) -> KrausChannel:
        """The channels of a chunk of trials as one channel that acts on an (n, d, d) stack row
        by row: its Kraus operator i is the (n, d_out, d_in) stack of each channel's operator i.
        Each channel was checked when it was built, so the stack is not checked again."""
        first = channels[0]
        shape = (len(first.kraus), first.d_out, first.d_in)
        if any((len(c.kraus), c.d_out, c.d_in) != shape for c in channels):
            raise DimMismatch("stacked channels need equal Kraus counts and shapes")
        out = cls.__new__(cls)
        out.kraus = tuple(np.stack(ops) for ops in zip(*(c.kraus for c in channels)))
        out.d_in, out.d_out = first.d_in, first.d_out
        out._unital_dev = max(c._unital_dev for c in channels)  # unital when every row is
        return out

    @property
    def is_unital(self) -> bool:
        """True when the channel maps the identity to the identity."""
        return self._unital_dev <= TOL_RECON

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        if x.shape[-2:] != (self.d_in, self.d_in):
            raise DimMismatch(f"input shape {x.shape}, channel expects {self.d_in}")
        return _hermitian_like(x, sum(k @ x @ dagger(k) for k in self.kraus))

    def apply_dual(self, y: np.ndarray) -> np.ndarray:
        """Hilbert-Schmidt adjoint Phi^*(Y) = sum_i K_i^dag Y K_i.

        The dual of a trace-preserving map is unital (it fixes the identity)
        but generally not trace preserving.
        """
        y = np.asarray(y, dtype=complex)
        if y.shape[-2:] != (self.d_out, self.d_out):
            raise DimMismatch(f"input shape {y.shape}, dual expects {self.d_out}")
        return _hermitian_like(y, sum(dagger(k) @ y @ k for k in self.kraus))

    def __repr__(self) -> str:
        return (
            f"KrausChannel(d_in={self.d_in}, d_out={self.d_out}, "
            f"n_kraus={len(self.kraus)}, unital={self.is_unital})"
        )


def require_unital(channel: KrausChannel) -> KrausChannel:
    if not channel.is_unital:
        raise NotUnital(
            f"channel maps identity away from identity by {channel._unital_dev:.3e}"
        )
    return channel


class PetzMap:
    """Transpose-channel recovery map of a channel with respect to a reference.

    For channel Phi and reference sigma this is
        X  |->  sigma^{1/2} Phi^*( Phi(sigma)^{-1/2} X Phi(sigma)^{-1/2} ) sigma^{1/2}.
    It always fixes the pushed-forward reference: apply(Phi(sigma)) = sigma.
    A caller that holds Phi(sigma) already passes it as ``image``.
    A singular Phi(sigma) is handled by mixing in PETZ_EPS of the maximally
    mixed state before the inverse square root (pseudo-inverse on the support
    alone would silently drop weight for inputs leaking off the support).
    """

    def __init__(
        self, channel: KrausChannel, sigma: SubnormalizedOperator, image: np.ndarray | None = None
    ):
        if sigma.dim != channel.d_in:
            raise DimMismatch(
                f"reference dim {sigma.dim} does not match channel input {channel.d_in}"
            )
        image = channel.apply(sigma.mat) if image is None else image
        tr = np.asarray(real_trace(image))
        if np.any(tr <= RANK_CUTOFF):
            raise SingularSigma("channel output of the reference has ~zero trace")
        vals, vecs = herm_eig(hermitize(image))
        singular = vals[..., 0] <= RANK_CUTOFF * np.maximum(vals[..., -1], 1e-300)
        if np.any(singular):  # mixed rows take the spectrum of their mixture
            d = image.shape[-1]
            image = (1.0 - PETZ_EPS) * image + (PETZ_EPS * tr[..., None, None] / d) * np.eye(d)
            mixed_vals, mixed_vecs = herm_eig(hermitize(image))
            vals = np.where(singular[..., None], mixed_vals, vals)
            vecs = np.where(singular[..., None, None], mixed_vecs, vecs)
        eig = HermitianEigen(vals, vecs)
        self.channel = channel
        self._sqrt_sigma = matrix_sqrt(sigma.spectrum)
        self._inv_sqrt_image = matrix_power(eig, -0.5)

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        if x.shape[-2:] != (self.channel.d_out, self.channel.d_out):
            raise DimMismatch(
                f"input shape {x.shape}, recovery map expects {self.channel.d_out}"
            )
        inner = self._inv_sqrt_image @ x @ self._inv_sqrt_image
        recovered = self._sqrt_sigma @ self.channel.apply_dual(inner) @ self._sqrt_sigma
        return _hermitian_like(x, recovered)


def ptrace_channel(dims: Sequence[int], traced: int) -> KrausChannel:
    """Partial trace over one subsystem as an explicit Kraus channel."""
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    if not 0 <= traced < n:
        raise DimMismatch(f"traced={traced} out of range for {n} subsystems")
    d_pre = int(np.prod(dims[:traced])) if traced > 0 else 1
    d_post = int(np.prod(dims[traced + 1 :])) if traced + 1 < n else 1
    d_t = dims[traced]
    ops = []
    for i in range(d_t):
        bra = np.zeros((1, d_t))
        bra[0, i] = 1.0
        ops.append(kron(kron(np.eye(d_pre), bra), np.eye(d_post)))
    return KrausChannel(ops)


def random_unital_channel(
    d: int, n_kraus: int, rng: np.random.Generator
) -> KrausChannel:
    """Mixed-unitary channel: Kraus sqrt(p_i) U_i with Haar unitaries U_i."""
    if n_kraus < 1:
        raise DimMismatch(f"need at least one Kraus operator, got {n_kraus}")
    probs = rng.dirichlet(np.ones(n_kraus))
    # Keep every branch comfortably populated so the channel stays full rank.
    probs = 0.9 * probs + 0.1 / n_kraus
    # One draw at a time: at d = n_kraus = 64 a stacked draw holds ~20 MiB of
    # temporaries for no gain in speed.
    ops = [np.sqrt(p) * random_unitary(d, rng) for p in probs]
    return KrausChannel(ops)


def random_channel(d: int, env_dim: int, rng: np.random.Generator) -> KrausChannel:
    """Generic channel from a Haar-random isometry into d x env_dim."""
    if env_dim < 1:
        raise DimMismatch(f"environment dimension must be >= 1, got {env_dim}")
    g = rng.standard_normal((d * env_dim, d)) + 1j * rng.standard_normal(
        (d * env_dim, d)
    )
    q = _haar_q(g)
    ops = [q[i * d : (i + 1) * d, :] for i in range(env_dim)]
    return KrausChannel(ops)


def _check_bipartite(x: np.ndarray, dims: Sequence[int]) -> tuple[int, int]:
    dims = tuple(int(d) for d in dims)
    if len(dims) != 2:
        raise DimMismatch(f"twirl needs exactly two subsystems, got {dims}")
    total = dims[0] * dims[1]
    if x.shape != (total, total):
        raise DimMismatch(f"operator shape {x.shape} does not match dims {dims}")
    return dims


def twirl_exact(x: np.ndarray, dims: Sequence[int], over: int = 1) -> np.ndarray:
    """Average of (1 (x) U) X (1 (x) U)^dag over Haar U on one factor.

    The closed form replaces the twirled factor by its maximally mixed state:
    twirling over B sends X to Tr_B(X) (x) 1_B / d_B.
    """
    x = np.asarray(x, dtype=complex)
    da, db = _check_bipartite(x, dims)
    if over == 1:
        return kron(ptrace(x, (da, db), [0]), np.eye(db) / db)
    if over == 0:
        return kron(np.eye(da) / da, ptrace(x, (da, db), [1]))
    raise DimMismatch(f"over must be 0 or 1, got {over}")


# Haar samples per stacked QR and matmul in twirl_mc: enough to amortize the
# per-call overhead, few enough that the (TWIRL_CHUNK, d, d) temporaries stay
# under 1 MiB each at d = 6, where one stack of 10^4 samples would not.
TWIRL_CHUNK = 512


def twirl_mc(
    x: np.ndarray,
    dims: Sequence[int],
    rng: np.random.Generator,
    samples: int,
    over: int = 1,
) -> np.ndarray:
    """Monte Carlo estimate of the one-sided twirl with ``samples`` Haar draws.

    Draws run in stacked chunks of TWIRL_CHUNK that keep the per-sample draw
    stream and the summation order, so the result does not depend on the chunking.
    """
    x = np.asarray(x, dtype=complex)
    da, db = _check_bipartite(x, dims)
    if over not in (0, 1):
        raise DimMismatch(f"over must be 0 or 1, got {over}")
    if samples < 1:
        raise DimMismatch(f"need at least one sample, got {samples}")
    acc = np.zeros_like(x)
    for start in range(0, samples, TWIRL_CHUNK):
        n = min(TWIRL_CHUNK, samples - start)
        u = random_unitaries(n, dims[over], rng)
        # the same products kron(1, u) or kron(u, 1) forms, so the bits match
        if over == 1:
            w = np.eye(da)[None, :, None, :, None] * u[:, None, :, None, :]
        else:
            w = u[:, :, None, :, None] * np.eye(db)[None, None, :, None, :]
        w = w.reshape(n, da * db, da * db)
        for term in w @ x @ w.conj().swapaxes(-1, -2):
            acc += term
    return _hermitian_like(x, acc / samples)
