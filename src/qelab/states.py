"""Density operators, block-structured Markov states and random-state ensembles.

A DensityMatrix carries the dimensions of the subsystems it lives on (one subsystem
unless told otherwise), held to linalg.split, so a bipartite or tripartite state is the
same object as a flat one, and ``marginal`` traces it down; require_tripartite holds a
state to three parts.  States are immutable: the wrapped array, whose
shape linalg.as_matrix checks before anything reads it, is frozen at construction and
every operation returns a new object.  Randomness always flows through an explicit
``numpy.random.Generator`` so that every ensemble is reproducible from its seed alone.

A sampler takes one Generator, or a chunk's list of trial streams: it then returns
its value as one (n, d, d) stack whose row i is drawn from stream i in the order
a one-stream call draws it, and validates the stack once.  The one-stream call is
the chunk of one: it returns that chunk's ``row(0)``, with the same bits.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import BadRank, BadTrace, DimMismatch, InconsistentBlocks, grid, need, number
from .linalg import (
    Hermitian,
    as_matrix,
    dagger,
    finite,
    first_flagged,
    hermitize,
    kron,
    psd_support,
    ptrace,
    real_trace,
    split,
)
from .tolerances import TOL_PSD, TOL_TRACE

_CHUNK_ENTRIES = 32 * 16 * 16  # entries of one stacked complex operand: 128 KiB at most
# need's tests of a sampler's sizes and counts, and of regularize's eps and --eps
SIZE = number(1, sys.maxsize, integral=True)
MIXING = number(0, 1, strict=True)


def capped(items: Sequence, entries: int) -> list[Sequence]:
    """items in blocks whose stack of operands, ``entries`` entries each, stays within the cap."""
    size = max(1, _CHUNK_ENTRIES // entries)
    return [items[start : start + size] for start in range(0, len(items), size)]


def grids(points: Sequence[float], batch: tuple[int, ...], d: int) -> list[np.ndarray]:
    """A parameter grid in capped blocks for d x d operands on the batch shape ((), or a
    stack's (n,)), each a (k, 1, ..., 1) array that broadcasts ahead of the batch axes."""
    return [np.reshape(np.asarray(block, dtype=float), (-1,) + (1,) * len(batch))
            for block in capped(points, math.prod(batch) * d * d)]


def streams(
    rng: np.random.Generator | Sequence[np.random.Generator],
) -> list[np.random.Generator]:
    """The chunk's list of streams a sampler draws from: [rng] for one Generator."""
    return [rng] if isinstance(rng, np.random.Generator) else list(rng)


def as_drawn(rng: np.random.Generator | Sequence[np.random.Generator], value):
    """A sampler's value for ``rng``: the stack itself for a list of streams, its row 0 (the
    2-D value) for one Generator."""
    return value.row(0) if isinstance(rng, np.random.Generator) else value


def gaussians(rngs: Sequence[np.random.Generator], shape: tuple[int, int]) -> np.ndarray:
    """One complex Gaussian matrix of ``shape`` per stream, as an (n,) + shape stack: each
    stream draws its real plane, then its imaginary plane."""
    planes, out = np.empty((len(rngs), 2) + shape), np.empty((len(rngs),) + shape, complex)
    for row, rng in zip(planes, rngs):
        rng.standard_normal(out=row)
    out.real, out.imag = planes.swapaxes(0, 1)
    return out


def _psd_certified(mat: np.ndarray) -> bool:
    """Whether d <= 256 and np.linalg.cholesky(mat + tau 1) succeeds on every row, with tau =
    TOL_PSD / 2 * max(1, the row's largest diagonal entry).  Success proves that psd_support
    passes on eigvalsh(mat): the computed factor has R^dag R = mat + tau 1 + E, with ||E||_2 <=
    d (d + 1) u (max diagonal + tau) to first order in the roundoff u (Higham, Accuracy and
    Stability of Numerical Algorithms, Thm 10.3), so lambda_min >= -tau - ||E||_2, and eigvalsh
    moves it by O(d u) lambda_max; with max diagonal <= lambda_max and d (d + 1) u <= 7.3e-12
    (d <= 256) well below TOL_PSD / 2, that is above -TOL_PSD * max(1, lambda_max)."""
    d = mat.shape[-1]
    if d > 256:
        return False
    tau = 0.5 * TOL_PSD * np.diagonal(mat, axis1=-2, axis2=-1).real.max(axis=-1, initial=1.0)
    try:
        np.linalg.cholesky(mat + tau[..., None, None] * np.eye(d))
    except np.linalg.LinAlgError:
        return False
    return True


def _require_psd(mat: np.ndarray) -> None:
    """NotPSD unless mat, or each row of a stack, is PSD within the slack of psd_support: by
    _psd_certified, else by eigvalsh and psd_support, with their verdict and message."""
    if not _psd_certified(mat):
        psd_support(np.linalg.eigvalsh(mat))


class SubnormalizedOperator(Hermitian):
    """Hermitian PSD operator with 0 <= trace <= 1 (within tolerance): a Hermitian whose entries
    are also checked finite, and its spectrum PSD and trace in range, when it is built.

    An (n, d, d) stack is n operators, one per trial, validated together; its trace is the
    (n,) array of theirs, and ``row(i)`` is operator i."""

    def __init__(self, mat: np.ndarray):
        super().__init__(finite(np.asarray(mat, dtype=complex)))
        _require_psd(self._mat)
        tr = real_trace(self._mat)
        bad = (tr < -TOL_TRACE) | (tr > 1.0 + TOL_TRACE)
        if np.any(bad):
            raise BadTrace(f"trace {float(first_flagged(tr, bad))!r} outside [0, 1]")
        self._trace = tr

    @classmethod
    def _view(cls, mat: np.ndarray, trace=None, dims: tuple[int, ...] | None = None):
        """An operator of this class over a matrix (or stack) already validated, frozen and not
        checked again, with its trace (taken here if not given) and a DensityMatrix's dims."""
        out = object.__new__(cls)
        out._mat = mat
        out._mat.setflags(write=False)
        out._trace = real_trace(mat) if trace is None else trace
        if dims is not None:
            out.dims = dims
        return out

    def row(self, i: int) -> SubnormalizedOperator:
        """Operator i of a stack: a view of its row, not validated again."""
        return self._view(self._mat[i], float(self._trace[i]), getattr(self, "dims", None))

    @classmethod
    def stack(cls, ops: Sequence[SubnormalizedOperator]) -> SubnormalizedOperator:
        """Validated operators of this class and one shape as one stack, not validated again."""
        return cls._view(np.stack([op.mat for op in ops]), np.array([op.trace for op in ops]),
                         getattr(ops[0], "dims", None))

    @property
    def trace(self) -> float | np.ndarray:
        return self._trace

    def __repr__(self) -> str:
        if self._mat.ndim > 2:  # a stack of trials
            return f"{type(self).__name__}(n={len(self._mat)}, dim={self.dim})"
        return f"{type(self).__name__}(dim={self.dim}, trace={self._trace:.6f})"


class DensityMatrix(SubnormalizedOperator):
    """Unit-trace special case of SubnormalizedOperator, on subsystems of dimensions ``dims``.

    The first subsystem owns the slowest index: for dims (dA, dB, dC) the
    flat basis index of |a, b, c> is ((a * dB) + b) * dC + c.  ``dims``
    default to those of a DensityMatrix argument, else to one subsystem.  A
    DensityMatrix argument is not validated again: its frozen matrix, and its
    spectrum and marginals once computed, are shared.
    """

    def __init__(self, mat: np.ndarray | DensityMatrix, dims: Sequence[int] | None = None):
        if isinstance(mat, DensityMatrix):
            vars(self).update(vars(mat))
        else:
            mat = as_matrix(mat, what="state")
            _check_unit_trace(real_trace(mat))
            super().__init__(mat)
            self.dims = (self.dim,)
        if dims is not None:
            self.dims = split(dims, self.dim)

    def reduced(self, keep: Sequence[int]) -> DensityMatrix:
        """The state on the subsystems in ``keep``: the partial trace of the frozen matrix (or
        stack), which keeps it exactly Hermitian, not validated again, taken once per dims and
        keep.  A state re-wrapped on other dims shares the cache, so its key holds the dims."""
        cache = vars(self).setdefault("_marginals", {})
        key = (self.dims, tuple(sorted(set(keep))))
        if key not in cache:
            mat = ptrace(self._mat, self.dims, keep)
            cache[key] = DensityMatrix._view(mat, dims=tuple(self.dims[k] for k in key[1]))
        return cache[key]

    def marginal(self, keep: Sequence[int]) -> np.ndarray:
        """The read-only matrix (or stack) of reduced(keep)."""
        return self.reduced(keep).mat


def _derived_state(mat: np.ndarray, dims: tuple[int, ...]) -> DensityMatrix:
    """The state over hermitize(mat), the bits validation stores, for a mat made from validated
    states in a way that keeps it Hermitian and within the PSD slack of psd_support (a mixture,
    a weighted direct sum of products): only its entries and trace are checked again."""
    out = DensityMatrix._view(hermitize(finite(mat)), dims=dims)
    _check_unit_trace(out.trace)
    return out


def _check_unit_trace(tr) -> None:
    bad = np.abs(tr - 1.0) > TOL_TRACE
    if np.any(bad):
        tr = float(first_flagged(tr, bad))
        raise BadTrace(f"trace {tr!r} deviates from 1 beyond {TOL_TRACE:.1e}")


AB, B, BC = (0, 1), (1,), (1, 2)  # the parts of a tripartite state A:B:C, by subsystem


def require_tripartite(state: DensityMatrix) -> DensityMatrix:
    split(state.dims, parts=3)
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
        need((self.d_a, self.d_c), grid(1, integral=True), "edge dimensions", InconsistentBlocks)
        n = len(self.weights)
        if n == 0 or len(self.ab_factors) != n or len(self.bc_factors) != n:
            raise InconsistentBlocks("need one weight and one factor pair per block")
        _weights_total(self.weights)
        for ab, bc in zip(self.ab_factors, self.bc_factors):
            for side, dim, edge in (("a", ab.dim, self.d_a), ("c", bc.dim, self.d_c)):
                if dim % edge != 0:
                    raise InconsistentBlocks(
                        f"{side.upper()}-side factor dim {dim} not divisible by d_{side}={edge}")

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


def _weights_total(weights: Sequence[float]) -> float:
    """The sum of block weights that are each >= 0 and sum to 1 within TOL_TRACE, a rule that a
    NaN weight fails; else InconsistentBlocks naming the weights."""
    total = float(sum(weights))
    if not (all(p >= 0 for p in weights) and abs(total - 1.0) <= TOL_TRACE):
        raise InconsistentBlocks(f"block weights {tuple(weights)} must be nonnegative and sum to "
                                 f"1 within {TOL_TRACE:.1e}")
    return total


def normalized_weights(raw: Sequence[float]) -> tuple[float, ...]:
    """Renormalize weights whose sum is within TOL_TRACE of 1; reject others."""
    total = _weights_total(raw)
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
    tensor = out.reshape((d_a, d_b, d_c) * 2)  # a view of out, one axis per subsystem
    offset = 0
    for p, ab, bc, (dl, dr) in zip(
        spec.weights, spec.ab_factors, spec.bc_factors, spec.block_dims
    ):
        block = kron(ab.mat, bc.mat)  # index order (A, bL, bR, C), A slowest
        on_b = slice(offset, offset + dl * dr)  # the block's run of the B index
        tensor[:, on_b, :, :, on_b, :] += p * block.reshape((d_a, dl * dr, d_c) * 2)
        offset += dl * dr
    return _derived_state(out, (d_a, d_b, d_c))


def _haar_q(g: np.ndarray) -> np.ndarray:
    """Q factors of a stack of complex Gaussian matrices, Haar-distributed.

    The R-diagonal phases are divided out so the distribution is exactly
    Haar rather than QR-convention dependent.
    """
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def random_unitaries(
    n: int, d: int, rng: np.random.Generator | Sequence[np.random.Generator]
) -> np.ndarray:
    """``n`` Haar-distributed d x d unitaries as an (n, d, d) stack, or ``n`` per stream of a
    chunk as an (n, streams, d, d) stack, the layout of a stacked channel's Kraus operators.

    Each stream draws the real then the imaginary Gaussian plane of each unitary in turn,
    the stream of ``n`` ``random_unitary`` calls.  Draws and QR run in blocks of at most
    _CHUNK_ENTRIES entries; a stacked QR gives the bits of one QR per matrix.
    """
    d, n = int(need(d, SIZE, "dimension", DimMismatch)), int(need(n, SIZE, "unitary count"))
    rngs = streams(rng)
    out = np.empty((n, len(rngs), d, d), dtype=complex)
    for row, stream in enumerate(rngs):
        for part in capped(out[:, row], d * d):  # each unitary: real plane, then imaginary
            part.real, part.imag = stream.standard_normal((len(part), 2, d, d)).swapaxes(0, 1)
    for part in capped(out.reshape(-1, d, d), d * d):
        part[...] = _haar_q(part)
    return out[:, 0] if isinstance(rng, np.random.Generator) else out


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    return random_unitaries(1, d, rng)[0]


def random_density(
    d: int, rng: np.random.Generator | Sequence[np.random.Generator], rank: int | None = None
) -> DensityMatrix:
    """Random density matrix G G^dag / Tr from a d x rank complex Gaussian G, or one per
    stream of a chunk as a stack."""
    d = int(need(d, SIZE, "dimension", DimMismatch))
    rank = d if rank is None else int(need(rank, number(1, d, integral=True), "rank", BadRank))
    return as_drawn(rng, wishart(gaussians(streams(rng), (d, rank))))


def wishart(g: np.ndarray) -> DensityMatrix:
    """The stack of states G G^dag / Tr, one per Gaussian matrix G of the stack g."""
    mat = g @ dagger(g)
    return DensityMatrix(mat / real_trace(mat)[:, None, None])


def regularize(
    state: DensityMatrix | np.ndarray, eps: float, dims: Sequence[int] | None = None
) -> DensityMatrix:
    """Full-rank mixture (1 - eps) rho + eps * I/d, on ``dims`` or else the dims of ``state``;
    each row's mixture for a stack.

    Mixing keeps a DensityMatrix, which was validated when it was built, Hermitian and within
    the PSD slack of psd_support, so only the trace of its mixture is checked again; a raw
    matrix is validated in full."""
    need(eps, MIXING, "regularization weight")
    mat = as_matrix(state)
    d = mat.shape[-1]
    mixed = (1.0 - eps) * mat + (eps / d) * np.eye(d)
    if not isinstance(state, DensityMatrix):
        return DensityMatrix(mixed, dims)
    return DensityMatrix(_derived_state(mixed, state.dims), dims)
