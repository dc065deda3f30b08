"""Hermitian linear algebra primitives used everywhere else in the package.

Conventions
-----------
* Composite indices are ordered with the first subsystem slowest: for
  dims (dA, dB, dC) the flat index of basis vector |a, b, c> is
  ((a * dB) + b) * dC + c.  ``numpy.kron`` follows the same convention,
  so ``kron(A, B)`` acts on the first factor slowest.
* Matrix functions are evaluated through the eigendecomposition and the
  result is re-Hermitized, so f(H) of a Hermitian H is exactly Hermitian.
* Eigenvalues below RANK_CUTOFF * max_eigenvalue count as zero when a
  function is evaluated on the support only.
* Matrix functions take a matrix, which herm_eig validates and decomposes,
  or a HermitianEigen from herm_eig, so a reused operator decomposes once.
* Every function here but kron and unitary_power also takes an (n, d, d)
  stack of matrices, one per trial, and gives each row the bits its own 2-D
  call gives: a 2-D matrix is the n = 1 case of the same code.  A per-matrix
  number (a trace, a norm, a Hermiticity verdict) is a Python scalar for one
  matrix and an (n,) array for a stack.  Where the scalar rule branches on a
  matrix's values (a partial support), each row takes its branch on its own.
  A rule on Python scalars (math.log, min) runs row by row through per_row.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DimMismatch, NoConvergence, NotHermitian, SingularInput
from .tolerances import RANK_CUTOFF, TOL_HERM


class HermitianEigen(NamedTuple):
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


Spectral = np.ndarray | HermitianEigen


def per_matrix(value: np.ndarray):
    """A per-matrix value as a Python scalar for one matrix, as the array for a stack."""
    return value.item() if value.ndim == 0 else value


def per_row(fn: Callable, *values):
    """fn of one matrix's per-matrix numbers, or the list of fn of each row's numbers for the
    (n,) arrays of a stack, where a scalar is shared by every row.  fn sees Python scalars,
    so a scalar rule (math.log, min, a branch) gives each row the bits of its own call."""
    cols = [np.asarray(v).tolist() for v in values]
    n = next((len(c) for c in cols if isinstance(c, list)), None)
    if n is None:
        return fn(*cols)
    return [fn(*row) for row in zip(*(c if isinstance(c, list) else [c] * n for c in cols))]


def each(fn: Callable, *values):
    """per_row with a stack's rows as an (n,) array."""
    out = per_row(fn, *values)
    return np.array(out) if isinstance(out, list) else out


def row_indices(flags: np.ndarray) -> list[tuple]:
    """Index tuples of the rows whose flag is set: () for a flagged 2-D call."""
    if flags.ndim == 0:
        return [()] if flags else []
    return list(zip(*np.nonzero(flags)))


def dagger(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.swapaxes(x.conj(), -1, -2)


def hermitize(x: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (x + x^dag) / 2."""
    x = np.asarray(x)
    return 0.5 * (x + dagger(x))


def max_sv(x: np.ndarray) -> float | np.ndarray:
    """Largest singular value (operator infinity-norm)."""
    x = np.asarray(x)
    if x.size == 0:
        return per_matrix(np.zeros(x.shape[:-2]))
    return per_matrix(np.linalg.svd(x, compute_uv=False)[..., 0])


def _hermitian_rows(x: np.ndarray, tol: float) -> np.ndarray | None:
    """The is_hermitian verdict of each row, or None when every row is exactly Hermitian."""
    diff = x - dagger(x)
    if not diff.any():
        return None
    inexact = np.asarray(diff.any(axis=(-2, -1)))
    ok = np.logical_not(inexact, out=np.empty(inexact.shape, dtype=bool))
    ok[inexact] = max_sv(diff[inexact]) <= tol * np.maximum(max_sv(x[inexact]), 1e-300)
    return ok


def is_hermitian(x: np.ndarray, tol: float = TOL_HERM) -> bool | np.ndarray:
    """The package's one Hermiticity rule: ||x - x^dag||_inf <= tol * ||x||_inf.

    An exactly Hermitian x (x - x^dag all zeros) passes without the two SVDs;
    a NaN or infinite entry leaves a nonzero difference and takes the SVD path.
    Only the rows of a stack that are not exactly Hermitian take it.
    """
    ok = _hermitian_rows(x, tol)
    return per_matrix(np.ones(x.shape[:-2], dtype=bool) if ok is None else ok)


def require_hermitian(x: np.ndarray, tol: float = TOL_HERM) -> np.ndarray:
    """Return x as a complex square matrix (or stack of them); raise NotHermitian when it,
    or any row of the stack, fails is_hermitian."""
    x = np.asarray(x, dtype=complex)
    if x.ndim < 2 or x.shape[-1] != x.shape[-2]:
        raise DimMismatch(f"expected a square matrix, got shape {x.shape}")
    ok = _hermitian_rows(x, tol)
    if ok is not None and not ok.all():
        first = row_indices(~ok)[0]
        dev = max_sv(x[first] - dagger(x[first]))
        raise NotHermitian(f"matrix deviates from Hermitian by {dev:.3e}")
    return x


def herm_eig(h: np.ndarray) -> HermitianEigen:
    """Eigendecomposition of a Hermitian matrix.

    Raises NotHermitian when h fails is_hermitian and
    NoConvergence when the underlying iteration fails.  Eigenvalues come
    back ascending; the eigenvector matrix has the vectors as columns.
    """
    h = require_hermitian(h)
    try:
        vals, vecs = np.linalg.eigh(hermitize(h))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - hardware specific
        # LAPACK reports failure but not the sweep count; pass on its message.
        raise NoConvergence(f"eigenvalue iteration failed: {exc}") from exc
    return HermitianEigen(vals, vecs)


def _eig(h: Spectral) -> HermitianEigen:
    return h if isinstance(h, HermitianEigen) else herm_eig(h)


def _support_mask(vals: np.ndarray) -> np.ndarray:
    mags = np.abs(vals)
    top = mags.max(axis=-1, keepdims=True) if vals.shape[-1] else 0.0
    return mags > RANK_CUTOFF * top


def matrix_fn(
    h: Spectral,
    fn: Callable[[np.ndarray], np.ndarray],
    support_only: bool = False,
) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix through its spectrum.

    With support_only=True eigenvalues below the (relative) rank cutoff are
    mapped to zero instead of being fed to ``fn`` — the pseudo-function on
    the support.  Without it the function must be finite on every eigenvalue;
    a non-finite value (log of ~0, negative power of ~0) raises SingularInput.
    """
    vals, vecs = _eig(h)
    if support_only:
        mask = _support_mask(vals)
        fvals = np.zeros_like(vals)
        if np.any(mask):
            fvals[mask] = fn(vals[mask])
    else:
        with np.errstate(all="ignore"):
            fvals = np.asarray(fn(vals))
    if not np.all(np.isfinite(fvals)):
        raise SingularInput(
            "matrix function is singular on the spectrum "
            f"(min eigenvalue {vals.min():.3e}); use support_only for a "
            "pseudo-function on the support"
        )
    out = (vecs * fvals[..., None, :]) @ dagger(vecs)
    if np.isrealobj(fvals):
        return hermitize(out)
    real_rows = np.isreal(fvals).all(axis=-1)
    return np.where(real_rows[..., None, None], hermitize(out), out)


def matrix_exp(h: Spectral) -> np.ndarray:
    return matrix_fn(h, np.exp)


def matrix_log(h: Spectral, support_only: bool = False) -> np.ndarray:
    return matrix_fn(h, np.log, support_only=support_only)


def matrix_sqrt(h: Spectral) -> np.ndarray:
    """Square root of a PSD matrix; tiny negative eigenvalues are clipped."""
    return matrix_fn(h, np.sqrt, support_only=True)


def matrix_power(h: Spectral, p: float) -> np.ndarray:
    """Real matrix power of a PSD matrix, on its support.

    A negative power is the pseudo-inverse power on the support, which is
    what the recovery-map formulas need.
    """
    return matrix_fn(h, lambda x: np.power(x, p), support_only=True)


def unitary_power(h: Spectral, t: float) -> np.ndarray:
    """Complex power h^{it} of a PSD matrix.

    Computed as exp(i t log lam) on the support and extended by the identity
    on the kernel, so the result is unitary for any PSD input.
    """
    vals, vecs = _eig(h)
    mask = _support_mask(vals)
    phases = np.ones(vals.shape, dtype=complex)
    phases[mask] = np.exp(1j * t * np.log(vals[mask]))
    return (vecs * phases) @ vecs.conj().T


def support_projector(h: Spectral) -> np.ndarray:
    """Orthogonal projector onto the support (range) of a Hermitian matrix."""
    vals, vecs = _eig(h)
    mask = _support_mask(vals)
    out = vecs @ dagger(vecs)
    for row in row_indices(~mask.all(axis=-1)):  # a partial support keeps its own columns
        cols = vecs[row][:, mask[row]]
        out[row] = cols @ dagger(cols)
    return out


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product with the first factor on the slow index."""
    return np.kron(np.asarray(a), np.asarray(b))


def _check_dims(x: np.ndarray, dims: Sequence[int]) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise DimMismatch(f"subsystem dimensions must be >= 1, got {dims}")
    total = int(np.prod(dims))
    if x.ndim < 2 or x.shape[-2:] != (total, total):
        raise DimMismatch(f"operator shape {x.shape} does not match dims {dims}")
    return dims


def ptrace(x: np.ndarray, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Partial trace keeping the subsystems in ``keep`` (ascending order).

    The kept subsystems retain their relative order, so the result acts on
    the tensor product of dims[k] for k in sorted(keep).
    """
    x = np.asarray(x)
    dims = _check_dims(x, dims)
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= n for k in keep):
        raise DimMismatch(f"keep={keep} out of range for {n} subsystems")
    if len(keep) == n:
        return x.copy()
    lead = x.shape[:-2]
    tensor = x.reshape(lead + dims + dims)
    row = list(range(n))
    col = [n + i if i in keep else i for i in range(n)]
    out = [i for i in keep] + [n + i for i in keep]
    reduced = np.einsum(tensor, [Ellipsis] + row + col, [Ellipsis] + out)
    d_keep = int(np.prod([dims[i] for i in keep])) if keep else 1
    return reduced.reshape(lead + (d_keep, d_keep))


def embed(op: np.ndarray, dims: Sequence[int], acting_on: Iterable[int]) -> np.ndarray:
    """Extend an operator by identities onto the full tensor-product space.

    ``op`` acts on the subsystems listed in ``acting_on`` (given ascending);
    the result acts on all of ``dims`` with identity elsewhere.
    """
    op = np.asarray(op)
    dims = tuple(int(d) for d in dims)
    acting_on = sorted(set(int(k) for k in acting_on))
    n = len(dims)
    if any(k < 0 or k >= n for k in acting_on):
        raise DimMismatch(f"acting_on={acting_on} out of range for {n} subsystems")
    d_act = int(np.prod([dims[i] for i in acting_on]))
    if op.shape[-2:] != (d_act, d_act):
        raise DimMismatch(f"operator shape {op.shape} does not match dims {d_act}")
    rest = [i for i in range(n) if i not in acting_on]
    if not rest:
        return op.copy()
    # kron(op, 1_rest) as the broadcast product np.kron forms, without its wrapper
    eye = np.eye(int(np.prod([dims[i] for i in rest])))
    big = op[..., :, None, :, None] * eye[:, None, :]
    order = acting_on + rest  # subsystem owning each tensor axis of `big`
    perm = list(np.argsort(order))
    lead = op.shape[:-2]
    tensor = big.reshape(lead + tuple(dims[i] for i in order) * 2)
    k = len(lead)
    axes = list(range(k)) + [k + p for p in perm] + [k + n + p for p in perm]
    total = int(np.prod(dims))
    return tensor.transpose(axes).reshape(lead + (total, total))


def hs_norm(x: np.ndarray) -> float | np.ndarray:
    """Hilbert-Schmidt norm, np.linalg.norm of each matrix."""
    x = np.asarray(x)
    norms = [np.linalg.norm(m) for m in x.reshape((-1,) + x.shape[-2:])]
    return per_matrix(np.reshape(norms, x.shape[:-2]))


def trace_norm(x: np.ndarray) -> float | np.ndarray:
    """Trace norm (Schatten 1-norm): the sum of the singular values."""
    return per_matrix(np.linalg.svd(np.asarray(x), compute_uv=False).sum(axis=-1))


def real_trace(x: np.ndarray) -> float | np.ndarray:
    """Real part of the trace (used where the trace is real by construction)."""
    return per_matrix(np.asarray(x).trace(axis1=-2, axis2=-1).real)
