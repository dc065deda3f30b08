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


def hermitize(x: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (x + x^dag) / 2."""
    x = np.asarray(x)
    return 0.5 * (x + x.conj().T)


def max_sv(x: np.ndarray) -> float:
    """Largest singular value (operator infinity-norm)."""
    x = np.asarray(x)
    if x.size == 0:
        return 0.0
    return float(np.linalg.svd(x, compute_uv=False)[0])


def is_hermitian(x: np.ndarray, tol: float = TOL_HERM) -> bool:
    """The package's one Hermiticity rule: ||x - x^dag||_inf <= tol * ||x||_inf.

    An exactly Hermitian x (x - x^dag all zeros) passes without the two SVDs;
    a NaN or infinite entry leaves a nonzero difference and takes the SVD path.
    """
    diff = x - x.conj().T
    return not diff.any() or max_sv(diff) <= tol * max(max_sv(x), 1e-300)


def require_hermitian(x: np.ndarray, tol: float = TOL_HERM) -> np.ndarray:
    """Return x as a complex square matrix; raise NotHermitian when it fails is_hermitian."""
    x = np.asarray(x, dtype=complex)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise DimMismatch(f"expected a square matrix, got shape {x.shape}")
    if not is_hermitian(x, tol):
        raise NotHermitian(f"matrix deviates from Hermitian by {max_sv(x - x.conj().T):.3e}")
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
    top = float(np.max(np.abs(vals))) if vals.size else 0.0
    return np.abs(vals) > RANK_CUTOFF * top


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
    out = (vecs * fvals) @ vecs.conj().T
    if np.isrealobj(fvals) or np.all(np.isreal(fvals)):
        out = hermitize(out)
    return out


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
    cols = vecs[:, mask]
    return cols @ cols.conj().T


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product with the first factor on the slow index."""
    return np.kron(np.asarray(a), np.asarray(b))


def _check_dims(x: np.ndarray, dims: Sequence[int]) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise DimMismatch(f"subsystem dimensions must be >= 1, got {dims}")
    total = int(np.prod(dims))
    if x.shape != (total, total):
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
    tensor = x.reshape(dims + dims)
    row = list(range(n))
    col = [n + i if i in keep else i for i in range(n)]
    out = [i for i in keep] + [n + i for i in keep]
    reduced = np.einsum(tensor, row + col, out)
    d_keep = int(np.prod([dims[i] for i in keep])) if keep else 1
    return reduced.reshape(d_keep, d_keep)


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
    if op.shape != (d_act, d_act):
        raise DimMismatch(f"operator shape {op.shape} does not match dims {d_act}")
    rest = [i for i in range(n) if i not in acting_on]
    if not rest:
        return op.copy()
    big = np.kron(op, np.eye(int(np.prod([dims[i] for i in rest]))))
    order = acting_on + rest  # subsystem owning each tensor axis of `big`
    perm = list(np.argsort(order))
    tensor = big.reshape([dims[i] for i in order] * 2)
    axes = perm + [n + p for p in perm]
    total = int(np.prod(dims))
    return tensor.transpose(axes).reshape(total, total)


def trace_norm(x: np.ndarray) -> float:
    """Trace norm (Schatten 1-norm): the sum of the singular values."""
    return float(np.sum(np.linalg.svd(np.asarray(x), compute_uv=False)))


def real_trace(x: np.ndarray) -> float:
    """Real part of the trace (used where the trace is real by construction)."""
    return float(np.trace(x).real)
