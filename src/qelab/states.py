"""Density operators, block-structured Markov states and random-state ensembles.

A DensityMatrix carries the dimensions of the subsystems it lives on (one
subsystem unless told otherwise), so a bipartite or tripartite state is the
same object as a flat one, and ``marginal`` traces it down.  States are
immutable: the wrapped array is frozen at construction and every operation
returns a new object.  Randomness always flows through an explicit
``numpy.random.Generator`` so that every ensemble is reproducible from its
seed alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    BadConfig,
    BadRank,
    BadTrace,
    DimMismatch,
    InconsistentBlocks,
    NonFinite,
    NotPSD,
    NotTripartite,
)
from .linalg import HermitianEigen, herm_eig, hermitize, kron, ptrace, require_hermitian
from .tolerances import TOL_HERM, TOL_PSD, TOL_TRACE


def _validated_matrix(mat: np.ndarray) -> np.ndarray:
    mat = np.asarray(mat, dtype=complex)
    if not np.isfinite(mat).all():
        raise NonFinite("matrix has a NaN or infinite entry")
    mat = hermitize(require_hermitian(mat, TOL_HERM))
    min_eig = float(np.linalg.eigvalsh(mat)[0])
    if min_eig < -TOL_PSD:
        raise NotPSD(f"minimum eigenvalue {min_eig:.3e} below -{TOL_PSD:.1e}")
    mat.setflags(write=False)
    return mat


class SubnormalizedOperator:
    """Hermitian PSD operator with 0 <= trace <= 1 (within tolerance)."""

    def __init__(self, mat: np.ndarray):
        self._mat = _validated_matrix(mat)
        tr = float(np.trace(self._mat).real)
        if tr < -TOL_TRACE or tr > 1.0 + TOL_TRACE:
            raise BadTrace(f"trace {tr!r} outside [0, 1]")
        self._trace = tr

    @property
    def mat(self) -> np.ndarray:
        return self._mat

    @cached_property
    def spectrum(self) -> HermitianEigen:
        """herm_eig of the frozen matrix, computed on first use and kept read-only."""
        spec = herm_eig(self._mat)
        for part in spec:
            part.setflags(write=False)
        return spec

    @property
    def dim(self) -> int:
        return self._mat.shape[-1]

    @property
    def trace(self) -> float:
        return self._trace

    def __repr__(self) -> str:
        if self._mat.ndim > 2:  # a stack of trials (DensityMatrix.stack)
            return f"{type(self).__name__}(n={len(self._mat)}, dim={self.dim})"
        return f"{type(self).__name__}(dim={self.dim}, trace={self._trace:.6f})"


class DensityMatrix(SubnormalizedOperator):
    """Unit-trace special case of SubnormalizedOperator, on subsystems of dimensions ``dims``.

    The first subsystem owns the slowest index: for dims (dA, dB, dC) the
    flat basis index of |a, b, c> is ((a * dB) + b) * dC + c.  ``dims``
    default to those of a DensityMatrix argument, else to one subsystem.  A
    DensityMatrix argument is not validated again: its frozen matrix, and its
    spectrum once computed, are shared.
    """

    def __init__(self, mat: np.ndarray | DensityMatrix, dims: Sequence[int] | None = None):
        if isinstance(mat, DensityMatrix):
            vars(self).update(vars(mat))
        else:
            mat = np.asarray(mat, dtype=complex)
            tr = float(np.trace(mat).real)
            if abs(tr - 1.0) > TOL_TRACE:
                raise BadTrace(f"trace {tr!r} deviates from 1 beyond {TOL_TRACE:.1e}")
            super().__init__(mat)
            self.dims = (self.dim,)
        if dims is not None:
            dims = tuple(int(d) for d in dims)
            if int(np.prod(dims)) != self.dim:
                raise DimMismatch(f"dims {dims} do not multiply to {self.dim}")
            self.dims = dims

    @classmethod
    def stack(cls, states: Sequence[DensityMatrix]) -> DensityMatrix:
        """The states of a chunk of trials as one DensityMatrix over their (n, d, d) matrix
        stack, on their common dims, with the (n,) array of their traces as its trace.  Its
        spectrum is decomposed once, on the stack, when first used.  Each state was
        validated when it was built, so the stack is not validated again."""
        dims = states[0].dims
        if any(st.dims != dims for st in states):
            raise DimMismatch(f"stacked states need equal dims, got {sorted({st.dims for st in states})}")
        out = cls.__new__(cls)
        out._mat = np.stack([st.mat for st in states])
        out._mat.setflags(write=False)
        out._trace = np.array([st.trace for st in states])
        out.dims = dims
        return out

    def marginal(self, keep: Sequence[int]) -> np.ndarray:
        """Raw matrix (or stack) of the partial trace onto the subsystems in ``keep`` (no
        re-validation)."""
        return ptrace(self._mat, self.dims, keep)


def require_tripartite(state: DensityMatrix) -> DensityMatrix:
    if len(state.dims) != 3:
        raise NotTripartite(f"need exactly 3 subsystems, got {len(state.dims)}")
    return state


@dataclass(frozen=True)
class MarkovSpec:
    """Block data for an exact short-chain state on A:B:C.

    B decomposes as a direct sum over blocks k of bL_k (x) bR_k; block k
    carries weight p_k, a joint state on A (x) bL_k and a joint state on
    bR_k (x) C.  Blocks are laid out consecutively along the B index with
    bL slow inside each block.
    """

    d_a: int
    d_c: int
    weights: tuple[float, ...]
    ab_factors: tuple[DensityMatrix, ...] = field(repr=False)
    bc_factors: tuple[DensityMatrix, ...] = field(repr=False)

    def __post_init__(self):
        if self.d_a < 1 or self.d_c < 1:
            raise InconsistentBlocks("edge dimensions must be >= 1")
        n = len(self.weights)
        if n == 0 or len(self.ab_factors) != n or len(self.bc_factors) != n:
            raise InconsistentBlocks("need one weight and one factor pair per block")
        if any(p < 0 for p in self.weights):
            raise InconsistentBlocks("block weights must be nonnegative")
        total = float(sum(self.weights))
        if abs(total - 1.0) > TOL_TRACE:
            raise InconsistentBlocks(
                f"block weights sum to {total!r}; renormalize before building the spec"
            )
        for ab, bc in zip(self.ab_factors, self.bc_factors):
            if ab.dim % self.d_a != 0:
                raise InconsistentBlocks(
                    f"A-side factor dim {ab.dim} not divisible by d_a={self.d_a}"
                )
            if bc.dim % self.d_c != 0:
                raise InconsistentBlocks(
                    f"C-side factor dim {bc.dim} not divisible by d_c={self.d_c}"
                )

    @property
    def block_dims(self) -> tuple[tuple[int, int], ...]:
        """(d_bL, d_bR) per block."""
        return tuple(
            (ab.dim // self.d_a, bc.dim // self.d_c)
            for ab, bc in zip(self.ab_factors, self.bc_factors)
        )

    @property
    def d_b(self) -> int:
        return sum(dl * dr for dl, dr in self.block_dims)


def normalized_weights(raw: Sequence[float]) -> tuple[float, ...]:
    """Renormalize weights whose sum is within TOL_TRACE of 1; reject others."""
    if any(p < 0 for p in raw):
        raise InconsistentBlocks(f"weights must be nonnegative, got {tuple(raw)}")
    total = float(sum(raw))
    if abs(total - 1.0) > TOL_TRACE:
        raise InconsistentBlocks(f"weights sum to {total!r}, not 1")
    return tuple(float(p) / total for p in raw)


def markov_state(spec: MarkovSpec) -> DensityMatrix:
    """Assemble the tripartite state described by a MarkovSpec.

    The result has vanishing conditional mutual information I(A:C|B) by
    construction: conditioned on the block, A correlates only with bL and C
    only with bR.
    """
    d_a, d_c, d_b = spec.d_a, spec.d_c, spec.d_b
    total = d_a * d_b * d_c
    out = np.zeros((total, total), dtype=complex)
    offset = 0
    for p, ab, bc, (dl, dr) in zip(
        spec.weights, spec.ab_factors, spec.bc_factors, spec.block_dims
    ):
        block = kron(ab.mat, bc.mat)  # index order (A, bL, bR, C), A slowest
        idx = np.empty(d_a * dl * dr * d_c, dtype=np.intp)
        pos = 0
        for a in range(d_a):
            for l in range(dl):
                for r in range(dr):
                    b = offset + l * dr + r
                    base = (a * d_b + b) * d_c
                    idx[pos : pos + d_c] = np.arange(base, base + d_c)
                    pos += d_c
        out[np.ix_(idx, idx)] += p * block
        offset += dl * dr
    return DensityMatrix(out, (d_a, d_b, d_c))


def _haar_q(g: np.ndarray) -> np.ndarray:
    """Q factors of a stack of complex Gaussian matrices, Haar-distributed.

    The R-diagonal phases are divided out so the distribution is exactly
    Haar rather than QR-convention dependent.
    """
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def random_unitaries(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` Haar-distributed d x d unitaries as one (n, d, d) stack.

    The draw takes the real then the imaginary Gaussian plane of each sample
    in turn, the stream of ``n`` ``random_unitary`` calls, and stacked QR
    gives the same bits as one QR per matrix.
    """
    if d < 1:
        raise DimMismatch(f"dimension must be >= 1, got {d}")
    if n < 1:
        raise BadConfig(f"need at least one unitary, got {n}")
    g = rng.standard_normal((n, 2, d, d))
    return _haar_q(g[:, 0] + 1j * g[:, 1])


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    return random_unitaries(1, d, rng)[0]


def random_density(
    d: int, rng: np.random.Generator, rank: int | None = None
) -> DensityMatrix:
    """Random density matrix G G^dag / Tr from a d x rank complex Gaussian G."""
    if d < 1:
        raise DimMismatch(f"dimension must be >= 1, got {d}")
    if rank is None:
        rank = d
    if not 1 <= rank <= d:
        raise BadRank(f"rank must be in 1..{d}, got {rank}")
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    mat = g @ g.conj().T
    return DensityMatrix(mat / np.trace(mat).real)


def random_tripartite(
    dims: Sequence[int], rng: np.random.Generator, rank: int | None = None
) -> DensityMatrix:
    """Random tripartite state on dims = (dA, dB, dC)."""
    dims = tuple(int(d) for d in dims)
    if len(dims) != 3:
        raise NotTripartite(f"need 3 dimensions, got {dims}")
    total = int(np.prod(dims))
    return DensityMatrix(random_density(total, rng, rank=rank), dims)


class Decomposed(NamedTuple):
    """A Hermitian matrix beside its herm_eig: a derived operator, such as a channel image,
    decomposed once and not held to the trace and positivity checks of an operator object."""

    mat: np.ndarray
    spectrum: HermitianEigen


def as_matrix(op: SubnormalizedOperator | Decomposed | np.ndarray) -> np.ndarray:
    """The matrix of an operator object, or a raw array as a complex matrix."""
    if isinstance(op, (SubnormalizedOperator, Decomposed)):
        return op.mat
    return np.asarray(op, dtype=complex)


def as_spectrum(op: SubnormalizedOperator | Decomposed | np.ndarray) -> HermitianEigen:
    """The spectrum of an operator object, or herm_eig of a raw array."""
    if isinstance(op, (SubnormalizedOperator, Decomposed)):
        return op.spectrum
    return herm_eig(op)


def regularize(
    state: DensityMatrix | np.ndarray, eps: float, dims: Sequence[int] | None = None
) -> DensityMatrix:
    """Full-rank mixture (1 - eps) rho + eps * I/d, on ``dims`` or else the dims of ``state``.

    Mixing keeps a DensityMatrix, which was validated when it was built, Hermitian and its
    smallest eigenvalue above -TOL_PSD, so only the trace of its mixture is checked again; a
    raw matrix is validated in full."""
    if not 0.0 < eps < 1.0:
        raise BadConfig(f"regularization weight must be in (0, 1), got {eps}")
    mat = as_matrix(state)
    d = mat.shape[0]
    mixed = (1.0 - eps) * mat + (eps / d) * np.eye(d)
    if not isinstance(state, DensityMatrix):
        return DensityMatrix(mixed, dims)
    out = DensityMatrix.__new__(DensityMatrix)
    out._mat = hermitize(mixed)  # the bits validation stores
    out._mat.setflags(write=False)
    out._trace = float(np.trace(out._mat).real)
    if abs(out._trace - 1.0) > TOL_TRACE:
        raise BadTrace(f"trace {out._trace!r} deviates from 1 beyond {TOL_TRACE:.1e}")
    return DensityMatrix(out, state.dims if dims is None else dims)
