"""Exception types raised by the laboratory.

Every failure mode that callers are expected to handle gets its own class so
that harness code can distinguish "bad input" from "numerical breakdown"
without string matching.
"""

from __future__ import annotations


class QelabError(Exception):
    """Base class for all errors raised by this package."""


class DimMismatch(QelabError):
    """Operator shapes or subsystem dimensions are inconsistent."""


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


class NotTripartite(QelabError):
    """An operation that needs exactly three subsystems got something else."""


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
