"""Exception types raised by the laboratory.

Every failure mode that callers are expected to handle gets its own class so
that harness code can distinguish "bad input" from "numerical breakdown"
without string matching.  The one parameter rule lives here too: need holds an order, a weight,
a count or a grid to a test that number or grid builds, and raises the caller's class.
"""

from __future__ import annotations

import math
import numbers
import reprlib


class QelabError(Exception):
    """Base class for all errors raised by this package."""


class DimMismatch(QelabError):
    """Operator shapes, subsystem splits or indices are inconsistent (linalg states each rule)."""


class NonFinite(QelabError):
    """A matrix holds a NaN or infinite entry, or a result a NaN."""


class NotHermitian(QelabError):
    """A matrix that must be Hermitian is not (beyond tolerance)."""


class NotPSD(QelabError):
    """A matrix that must be positive semidefinite has a negative eigenvalue."""


class BadTrace(QelabError):
    """An operator's trace falls outside the range its type requires."""


class NoConvergence(QelabError):
    """An eigenvalue iteration failed to converge."""


class SingularInput(QelabError):
    """A singular matrix was passed where full rank is required (log, negative power)."""


class BadRank(QelabError):
    """Requested rank is outside 1..d."""


class InconsistentBlocks(QelabError):
    """Markov block data do not assemble into a valid state."""


class BadAlpha(QelabError):
    """Renyi / power parameter alpha outside its legal range."""


class ZeroOverlap(QelabError):
    """Tr sqrt(rho) sqrt(sigma) vanished; the overlap bound is undefined."""


class SingularSigma(QelabError):
    """Reference operator is singular where its inverse square root is needed."""


class NotUnital(QelabError):
    """A channel that must be unital is not."""


class MarginalMismatch(QelabError):
    """A required marginal-matching precondition between states fails."""


class SingularTerm(QelabError):
    """A term of an exp-log combination is singular."""


class BadConfig(QelabError):
    """Command-line / harness configuration is invalid."""


def _real(value, low, high, strict: bool, integral: bool) -> bool:
    """Whether value is a real number (numpy's too) that fits a float, lies between low and high,
    strictly when asked, and is whole when integral; a bool, a string and NaN are not."""
    value = value.item() if getattr(value, "ndim", None) == 0 else value  # numpy's as Python's
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        x = float(value) if real else math.nan
    except OverflowError:  # an int too large for a float
        return False
    inside = math.isfinite(x) and (low < value < high if strict else low <= value <= high)
    return inside and (not integral or x.is_integer())


def _window(kind: str, low, high, strict: bool) -> str:
    if high == math.inf:
        return kind if low == -math.inf else f"{kind} {'>' if strict else '>='} {low}"
    return f"{kind} strictly between {low} and {high}" if strict else f"{kind} in [{low}, {high}]"


def number(low=-math.inf, high=math.inf, *, strict: bool = False, integral: bool = False) -> tuple:
    """need's (predicate, words) test of one finite number from low to high, an open window when
    strict, and a whole one when integral."""
    return (lambda value: _real(value, low, high, strict, integral),
            _window("an integer" if integral else "a finite number", low, high, strict))


def grid(low=-math.inf, high=math.inf, *, strict: bool = False, integral: bool = False) -> tuple:
    """need's test of a non-empty list, tuple or 1-D array whose every entry passes the test
    number(low, high, strict=strict, integral=integral) states."""
    one = number(low, high, strict=strict, integral=integral)[0]

    def test(value) -> bool:
        listed = isinstance(value, (list, tuple)) or getattr(value, "ndim", 0) == 1
        return listed and len(value) > 0 and all(map(one, value))

    kind = "integers" if integral else "finite numbers"
    return test, "a non-empty list of " + _window(kind, low, high, strict)


def need(value, test: tuple, what: str, error: type[QelabError] = BadConfig):
    """value when it passes ``test``, a (predicate, words) pair, else ``error`` "<what> must be
    <words>, got <value>"."""
    if not test[0](value):
        raise error(f"{what} must be {test[1]}, got {reprlib.repr(value)}")
    return value
