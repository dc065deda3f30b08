"""Hermitian linear algebra primitives used everywhere else in the package.

Conventions
-----------
* Composite indices are ordered with the first subsystem slowest: for
  dims (dA, dB, dC) the flat index of basis vector |a, b, c> is
  ((a * dB) + b) * dC + c.  ``numpy.kron`` follows the same convention,
  so ``kron(A, B)`` acts on the first factor slowest.
* One operand-size rule (as_matrix, require_hermitian, ptrace, embed): a square matrix or stack,
  of side d when d is given, else the DimMismatch "shape mismatch" that names the operand.
  Operands paired row for row (as_pair) hold stacks of one shape.
* One operand-form rule (require_form, finite): an operand of a typed entry (Hermitian,
  KrausChannel, as_pair, as_hermitian, a checker's raw operand) is a matrix or an (n, rows, cols)
  stack, else that DimMismatch, with finite entries, else NonFinite; primitives and channel maps
  also take the (k, n, d, d) grid stacks of states.grids.
* One split rule (split, same_split, subsystems): dims are ints >= 1, as many as asked, of the
  operator's side as product; states share one split; an index names a part; else "split mismatch".
* Matrix functions are evaluated through the eigendecomposition and the
  result is re-Hermitized, so f(H) of a Hermitian H is exactly Hermitian.
* One support rule, psd_support: eigenvalues at or below RANK_CUTOFF * max_eigenvalue
  are off the support, and one below -TOL_PSD * max(1, max_eigenvalue) raises NotPSD.
  A HermitianEigen takes its mask once, on first use, and every matrix function reads it.
* Matrix functions take a matrix, which herm_eig validates and decomposes, a HermitianEigen
  from herm_eig, or a Hermitian, checked when built, whose spectrum is taken once: spectrum_of
  decides which, so a reused operator decomposes and checks once.
* Every function here also takes an (n, d, d) stack of matrices, one per trial,
  and gives each row the bits its own 2-D call gives.  A per-matrix number (a
  trace, a norm, a Hermiticity verdict) is a Python scalar for one matrix and an
  (n,) array for a stack.  Where the scalar rule branches on a matrix's values (a
  partial support), each row takes its branch on its own; a rule on Python
  scalars (math.log, min) runs row by row through per_row.
* A grid of p (matrix_power) or t (unitary_power), a leading axis as states.grids shapes
  it, broadcasts against the batch: the outer form on one spectrum, the paired form (row j
  to the power p_j) on a grid-stacked one.  Row j has its own call's bits: np.power runs
  per point on a float, as its fast paths (0.5, 2.0) take scalars only, and the elementwise
  exp(i t log lam) runs on the whole grid.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DimMismatch, NoConvergence, NonFinite, NotHermitian, NotPSD, SingularInput
from .tolerances import RANK_CUTOFF, TOL_HERM, TOL_PSD


class HermitianEigen(collections.namedtuple("Eigenpairs", "eigenvalues eigenvectors")):
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending, and its support mask."""

    @functools.cached_property
    def support(self) -> np.ndarray:
        """psd_support of the eigenvalues, taken on first use: NotPSD then, and at each use."""
        return psd_support(self.eigenvalues)


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


def first_flagged(values, flags):
    """The entry of ``values`` at the first flagged row: the value, or matrix, of the first
    bad row of a stack, or ``values`` itself for a flagged 2-D call."""
    return np.asarray(values)[row_indices(np.asarray(flags))[0]]


def dagger(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return x.conj().swapaxes(-1, -2)


def _kraus_sum(kraus: Sequence[np.ndarray], y: np.ndarray | None = None,
               dual: bool = False) -> np.ndarray:
    """sum_i K_i Y K_i^dag, or sum_i K_i^dag Y K_i when dual (Y = 1 when None), each term added
    in order from 0 + T_0 as it comes, so few terms live at once."""
    return sum(a @ b if y is None else a @ y @ b for k in kraus
               for kh in [k.conj().swapaxes(-1, -2)] for a, b in [(kh, k) if dual else (k, kh)])


def hermitize(x: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (x + x^dag) / 2."""
    x = np.asarray(x)
    return 0.5 * (x + dagger(x))


def finite(x: np.ndarray) -> np.ndarray:
    """x, unless it has a NaN or infinite entry: the package's one NonFinite for an operand."""
    if not np.isfinite(x).all():
        raise NonFinite("matrix has a NaN or infinite entry")
    return x


def _singular_values(x: np.ndarray) -> np.ndarray:
    """Each matrix's singular values.  Where the SVD fails or gives a non-finite value, raises
    NonFinite for an x with a NaN or infinite entry and NoConvergence for a finite x."""
    with contextlib.suppress(np.linalg.LinAlgError):
        values = np.linalg.svd(x, compute_uv=False)
        if np.isfinite(values).all():
            return values
    finite(x)
    raise NoConvergence("singular value iteration failed or overflowed")


def max_sv(x: np.ndarray) -> float | np.ndarray:
    """Largest singular value (operator infinity-norm)."""
    x = np.asarray(x)
    if x.size == 0:
        return per_matrix(np.zeros(x.shape[:-2]))
    return per_matrix(_singular_values(x)[..., 0])


def _frobenius(x: np.ndarray) -> np.ndarray:
    """Each row's Frobenius norm, NaN where the sum of squares may have left the normal range
    (a norm at or below 1e-140 that an underflow may have shrunk, or an overflow)."""
    flat = x.reshape(x.shape[:-2] + (1, x.shape[-2] * x.shape[-1]))
    with np.errstate(all="ignore"):  # such a row reads NaN below
        fro = np.sqrt((flat @ dagger(flat)).real[..., 0, 0])
    return np.where((fro > 1e-140) & (fro < np.inf) | ~x.any(axis=(-2, -1)), fro, np.nan)


def max_sv_within(
    x: np.ndarray, bound: float, ref: np.ndarray | None = None, strict: bool = False
) -> np.ndarray:
    """Each row's verdict on max_sv(x) <= bound (< bound when strict), as a bool array of
    shape x.shape[:-2]; with ``ref`` the bound is bound * max(max_sv(ref), 1e-300), of the
    row's own ref.

    A row whose Frobenius norm is below half a lower bound of that bound passes with no SVD:
    max_sv(x) <= ||x||_F, max_sv(ref) >= ||ref||_F / sqrt(d), and the factor 2 absorbs the
    rounding of both norms.  Every other row (in doubt, failing, with a non-finite entry or
    a sum of squares out of range) takes the SVD and the exact comparison.
    """
    x = np.asarray(x)
    scale = 1.0 if ref is None else np.maximum(_frobenius(ref) / math.sqrt(ref.shape[-1]), 1e-300)
    ok = np.asarray(_frobenius(x) < 0.5 * bound * scale)
    doubt = ~ok
    if doubt.any():
        limit = bound if ref is None else bound * np.maximum(max_sv(ref[doubt]), 1e-300)
        norm = max_sv(x[doubt])
        ok[doubt] = norm < limit if strict else norm <= limit
    return ok


@np.errstate(invalid="ignore")  # inf - inf reads NaN, and a NaN row takes the SVD: NonFinite
def _hermitian_rows(x: np.ndarray) -> np.ndarray | None:
    """The is_hermitian verdict of each row, or None when every row is exactly Hermitian."""
    diff = x - dagger(x)
    return None if not diff.any() else max_sv_within(diff, TOL_HERM, ref=x)


def is_hermitian(x: np.ndarray) -> bool | np.ndarray:
    """The package's one Hermiticity rule: ||x - x^dag||_inf <= TOL_HERM * ||x||_inf.

    An exactly Hermitian x (x - x^dag all zeros) passes with no SVD, and so does one whose
    Frobenius bound settles it (max_sv_within).  A row in doubt, or with a NaN or infinite
    entry, takes the two SVDs.
    """
    ok = _hermitian_rows(x)
    return per_matrix(np.ones(x.shape[:-2], dtype=bool) if ok is None else ok)


def _sized(x: np.ndarray, d: int | None, what: str, *args) -> np.ndarray:
    """x when it is a square matrix, or a stack of them, of side d when d is given; else the
    package's one operand-size error, a DimMismatch naming the operand, what.format(*args)."""
    if x.ndim < 2 or x.shape[-1] != x.shape[-2] or d is not None and x.shape[-1] != d:
        what, want = what.format(*args), "a square matrix" if d is None else f"{d} x {d}"
        raise DimMismatch(f"shape mismatch: {what} has shape {x.shape}, expected {want}")
    return x


def require_form(x, what: str = "operand") -> np.ndarray:
    """x as an array when it is a matrix or an (n, rows, cols) stack of them, the form of an
    operand of a typed entry; else the size rule's DimMismatch."""
    if (x := np.asarray(x)).ndim in (2, 3):
        return x
    raise DimMismatch(f"shape mismatch: {what} has shape {x.shape}, expected a matrix or a stack")


def require_hermitian(x: np.ndarray, d: int | None = None, what: str = "matrix") -> np.ndarray:
    """Return x as a complex square matrix (or stack), of side d when d is given (_sized); raise
    NotHermitian when it, or any row of the stack, fails is_hermitian."""
    x = _sized(np.asarray(x, dtype=complex), d, what)
    ok = _hermitian_rows(x)
    if ok is not None and not ok.all():
        bad = first_flagged(x, ~ok)
        dev = max_sv(bad - dagger(bad))
        raise NotHermitian(f"matrix deviates from Hermitian by {dev:.3e}")
    return x


def herm_eig(h: np.ndarray) -> HermitianEigen:
    """Eigendecomposition of a Hermitian matrix.

    Raises NotHermitian when h fails is_hermitian, NonFinite when it has a NaN or infinite
    entry and NoConvergence when the underlying iteration fails.  Eigenvalues come
    back ascending; the eigenvector matrix has the vectors as columns.
    """
    return _eigh(hermitize(require_hermitian(h)))


def _eigh(h: np.ndarray) -> HermitianEigen:
    """herm_eig of an exactly Hermitian h, as hermitize leaves it and a validated operator holds
    it, not checked again: hermitize would return h's bits."""
    try:
        vals, vecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - hardware specific
        # LAPACK reports failure but not the sweep count; pass on its message.
        raise NoConvergence(f"eigenvalue iteration failed: {exc}") from exc
    return HermitianEigen(vals, vecs)


class Hermitian:
    """A Hermitian matrix, or (n, d, d) stack, held to require_form and require_hermitian, then
    hermitized and frozen when built, and not checked again: the one trusted operand type.  Its
    spectrum is _eigh's, taken once, on first use, and kept read-only.  SubnormalizedOperator
    adds its own checks; a reused channel image or surrogate is a plain Hermitian."""

    def __init__(self, mat: np.ndarray):
        self._mat = hermitize(require_hermitian(require_form(mat, "operator")))
        self._mat.setflags(write=False)

    @property
    def mat(self) -> np.ndarray:
        return self._mat

    @property
    def dim(self) -> int:
        return self._mat.shape[-1]

    @functools.cached_property
    def spectrum(self) -> HermitianEigen:
        spec = _eigh(self._mat)
        for part in spec:
            part.setflags(write=False)
        return spec


Spectral = np.ndarray | HermitianEigen | Hermitian


def as_matrix(op: Hermitian | np.ndarray, d: int | None = None,
              what: str = "operand") -> np.ndarray:
    """The frozen matrix of a Hermitian operand, or a raw array as a complex matrix (or stack);
    DimMismatch unless it is square, and of side d when d is given."""
    return _sized(op.mat if isinstance(op, Hermitian) else np.asarray(op, dtype=complex), d, what)


def as_pair(rho: Hermitian | np.ndarray, sigma: Hermitian | np.ndarray) -> tuple:
    """as_matrix and require_form of rho and sigma, rho of sigma's side, when their rows pair."""
    s = require_form(as_matrix(sigma, what="sigma"), "sigma")
    r = require_form(as_matrix(rho, s.shape[-1], "rho"), "rho")
    if r.shape != s.shape:
        raise DimMismatch(f"rho and sigma hold different stacks: {r.shape} vs {s.shape}")
    return r, s


def as_hermitian(x: Hermitian | np.ndarray) -> np.ndarray:
    """The frozen matrix of a Hermitian, or a raw x held to require_form and require_hermitian."""
    return x.mat if isinstance(x, Hermitian) else hermitize(require_hermitian(require_form(x)))


def spectrum_of(h: Spectral) -> HermitianEigen:
    """A HermitianEigen itself, the spectrum of a Hermitian, or herm_eig of a raw array."""
    if isinstance(h, HermitianEigen):
        return h
    return h.spectrum if isinstance(h, Hermitian) else herm_eig(h)


def psd_support(vals: np.ndarray) -> np.ndarray:
    """The mask of the eigenvalues above RANK_CUTOFF * max(lambda_max, 1e-300), for an ascending
    spectrum or the (n, d) spectra of a stack.  Raises NotPSD when an eigenvalue lies below
    -TOL_PSD * max(1, lambda_max), the slack that state validation allows."""
    top = vals[..., -1:]
    bad = vals[..., :1] < -TOL_PSD * np.maximum(top, 1.0)
    if bad.any():
        row = first_flagged(vals, bad[..., 0])
        raise NotPSD(f"minimum eigenvalue {row[0]:.3e} below -{TOL_PSD * max(1.0, row[-1]):.1e}")
    return vals > RANK_CUTOFF * np.maximum(top, 1e-300)


def matrix_fn(
    h: Spectral,
    fn: Callable[[np.ndarray], np.ndarray],
    support_only: bool = False,
) -> np.ndarray:
    """Apply a real scalar function to a Hermitian matrix through its spectrum.

    With support_only=True the matrix must be PSD, and the eigenvalues off its support
    (psd_support) map to zero instead of being fed to ``fn`` — the pseudo-function on the
    support.  Without it ``fn`` must be finite on every eigenvalue; a non-finite value (log
    of ~0, negative power of ~0) raises SingularInput.
    """
    vals, vecs = eig = spectrum_of(h)
    if support_only:
        mask = eig.support
        fvals = np.zeros_like(vals)
        fvals[mask] = fn(vals[mask])
    else:
        with np.errstate(all="ignore"):
            fvals = np.asarray(fn(vals))
    if not np.isfinite(fvals).all():
        bad = vals[~np.isfinite(fvals)]
        at = bad[np.argmax(np.abs(bad))]  # the eigenvalue farthest from 0 that fn fails at
        if abs(at) > 1.0:  # no log or negative power fails there: fn overflowed
            raise NonFinite(f"matrix function is not finite at eigenvalue {at:.3e}")
        raise SingularInput(
            "matrix function is singular on the spectrum "
            f"(min eigenvalue {vals.min():.3e}); use support_only for a "
            "pseudo-function on the support"
        )
    return hermitize((vecs * fvals[..., None, :]) @ dagger(vecs))


def matrix_exp(h: Spectral) -> np.ndarray:
    return matrix_fn(h, np.exp)


def matrix_log(h: Spectral, support_only: bool = False) -> np.ndarray:
    """Matrix logarithm of a PSD matrix: NotPSD for an eigenvalue below the slack of
    psd_support, and without support_only SingularInput for a ~0 one."""
    eig = spectrum_of(h)
    eig.support  # NotPSD before any SingularInput; the support_only path reads it again
    return matrix_fn(eig, np.log, support_only=support_only)


def matrix_sqrt(h: Spectral) -> np.ndarray:
    """Square root of a PSD matrix; eigenvalues off the support (psd_support) are clipped."""
    return matrix_fn(h, np.sqrt, support_only=True)


def _grid_points(h: Spectral, p) -> tuple:
    """The spectrum of h and its support mask, broadcast against the exponents p, and each
    point of p, which varies along its leading axis only, as (row index, Python float)."""
    vals, vecs = eig = spectrum_of(h)
    mask = eig.support
    if np.ndim(p) == 0:  # one point for every row
        return vals, vecs, mask, [((), float(p))]
    p = np.asarray(p, dtype=float)
    if p.size != len(p):
        raise IndexError(f"a grid varies along its leading axis only, got shape {p.shape}")
    shape = np.broadcast_shapes(p.shape + (1,), vals.shape)
    points = list(enumerate(p.ravel().tolist()))
    return np.broadcast_to(vals, shape), vecs, np.broadcast_to(mask, shape), points


def matrix_power(h: Spectral, p) -> np.ndarray:
    """Real matrix power of a PSD matrix, on its support, for an exponent or a grid of them.

    A negative power is the pseudo-inverse power on the support, which is
    what the recovery-map formulas need.
    """
    vals, vecs, mask, points = _grid_points(h, p)
    fvals = np.zeros(vals.shape)
    for at, e in points:
        fvals[at][mask[at]] = np.power(vals[at][mask[at]], e)
    return matrix_fn(HermitianEigen(vals, vecs), lambda _: fvals)  # checked and rebuilt


def unitary_power(h: Spectral, t) -> np.ndarray:
    """Complex power h^{it} of a PSD matrix, for a t or a grid of them.

    Computed as exp(i t log lam) on the support and extended by the identity
    on the kernel, so the result is unitary for any PSD input.
    """
    vals, vecs, mask, _ = _grid_points(h, t)
    logs = np.log(np.where(mask, vals, 1.0))  # 0 off the support, where the phase is 1
    phases = np.where(mask, np.exp(1j * np.asarray(t, dtype=float)[..., None] * logs), 1.0)
    return (vecs * phases[..., None, :]) @ dagger(vecs)


def support_projector(h: Spectral) -> np.ndarray:
    """Orthogonal projector onto the support (psd_support) of a PSD matrix."""
    eig = spectrum_of(h)
    mask, vecs = eig.support, eig.eigenvectors
    out = vecs @ dagger(vecs)
    for row in row_indices(~mask.all(axis=-1)):  # a partial support keeps its own columns
        cols = vecs[row][:, mask[row]]
        out[row] = cols @ dagger(cols)
    return out


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product with the first factor on the slow index; row by row when a or b is a
    stack.  It is the broadcast product np.kron forms, with the same bits."""
    a, b = np.asarray(a), np.asarray(b)
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


def split(dims: Sequence[int], d: int | None = None, parts: int | None = None,
          what: str = "state") -> tuple[int, ...]:
    """dims as a tuple of ints >= 1, ``parts`` of them and of product d when given; else the
    package's one split error, a DimMismatch that names the operand."""
    dims = tuple(map(int, dims))
    if (dims and min(dims) < 1 or parts is not None and len(dims) != parts
            or d is not None and math.prod(dims) != d):
        want = f"{parts or 'any'} dims >= 1" + ("" if d is None else f" with product {d}")
        raise DimMismatch(f"split mismatch: {what} has dims {dims}, expected {want}")
    return dims


def same_split(*splits: Sequence[int], parts: int | None = None) -> tuple[int, ...]:
    """The one split (split, of ``parts`` parts when given) that states on these dims share."""
    first = split(splits[0], parts=parts, what="state 0")
    for i, dims in enumerate(splits[1:], 1):
        if tuple(dims) != first:
            raise DimMismatch(f"split mismatch: state {i} has dims {tuple(dims)}, expected {first}")
    return first


def subsystems(dims: tuple[int, ...], index: Iterable[int], what: str) -> list[int]:
    """The distinct indices ``what``, ascending, each a part of dims; else the split DimMismatch."""
    index = sorted(set(map(int, index)))
    if index and (index[0] < 0 or index[-1] >= len(dims)):
        raise DimMismatch(f"split mismatch: {what} {index} names a part outside dims {dims}")
    return index


def ptrace(x: np.ndarray, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Partial trace keeping the subsystems in ``keep`` (ascending order).

    The kept subsystems retain their relative order, so the result acts on
    the tensor product of dims[k] for k in sorted(keep).
    """
    dims = split(dims, what="operator")
    x = _sized(np.asarray(x), math.prod(dims), "operator on dims {}", dims)
    n = len(dims)
    keep = subsystems(dims, keep, "keep")
    if len(keep) == n:
        return x.copy()
    lead = x.shape[:-2]
    tensor = x.reshape(lead + dims + dims)
    row = list(range(n))
    col = [n + i if i in keep else i for i in range(n)]
    out = [i for i in keep] + [n + i for i in keep]
    reduced = np.einsum(tensor, [Ellipsis] + row + col, [Ellipsis] + out)
    d_keep = math.prod(dims[i] for i in keep)
    return reduced.reshape(lead + (d_keep, d_keep))


@functools.lru_cache(maxsize=256)
def _embed_plan(dims: tuple, acting_on: tuple, batch: int) -> tuple:
    """What embed needs for an operator with ``batch`` leading axes, once per argument: the
    dimension the operator acts on, the read-only identity on the other subsystems, the
    tensor shape of kron(op, identity), the transpose of its axes onto ``dims``, the total."""
    dims = split(dims, what="embedding")
    acting_on = subsystems(dims, acting_on, "acting_on")
    n = len(dims)
    rest = [i for i in range(n) if i not in acting_on]
    eye = np.eye(math.prod(dims[i] for i in rest))  # [[1.0]] when op acts on every subsystem
    eye.setflags(write=False)
    order = acting_on + rest  # subsystem owning each tensor axis of kron(op, eye)
    perm = sorted(range(n), key=order.__getitem__)
    axes = tuple(range(batch)) + tuple(batch + p for p in perm) + tuple(batch + n + p for p in perm)
    d_act = math.prod(dims[i] for i in acting_on)
    return d_act, eye, tuple(dims[i] for i in order) * 2, axes, math.prod(dims)


def embed(op: np.ndarray, dims: Sequence[int], acting_on: Iterable[int]) -> np.ndarray:
    """Extend an operator by identities onto the full tensor-product space.

    ``op`` acts on the subsystems listed in ``acting_on`` (given ascending);
    the result acts on all of ``dims`` with identity elsewhere.
    """
    op = np.asarray(op)
    d_act, eye, shape, axes, total = _embed_plan(tuple(dims), tuple(acting_on), op.ndim - 2)
    _sized(op, d_act, "embedded operator")
    lead = op.shape[:-2]
    return kron(op, eye).reshape(lead + shape).transpose(axes).reshape(lead + (total, total))


def hs_norm(x: np.ndarray) -> float | np.ndarray:
    """Hilbert-Schmidt norm, np.linalg.norm of each matrix."""
    x = np.asarray(x)
    norms = [np.linalg.norm(m) for m in x.reshape((-1,) + x.shape[-2:])]
    return per_matrix(np.reshape(norms, x.shape[:-2]))


def trace_norm(x: np.ndarray) -> float | np.ndarray:
    """Trace norm (Schatten 1-norm): the sum of the singular values."""
    return per_matrix(_singular_values(np.asarray(x)).sum(axis=-1))


def real_trace(x: np.ndarray) -> float | np.ndarray:
    """Real part of the trace (used where the trace is real by construction)."""
    return per_matrix(np.asarray(x).trace(axis1=-2, axis2=-1).real)
