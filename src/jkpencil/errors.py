"""Exception hierarchy shared across the package."""


class JKPencilError(Exception):
    """Base class for all library errors."""


class ValidationError(JKPencilError):
    """Malformed or inconsistent input (bad matrix, bad document, bad table)."""


class SingularMatrixError(ValidationError):
    """A matrix required to be invertible is singular."""


class InfiniteEigenvalueError(JKPencilError):
    """rank(B) < pencil rank: the pencil has infinite eigenvalues.

    Raised for the characteristic polynomial only; jk_invariants reads the
    infinite Jordan blocks from the reversed pencil B - mu*A.
    """


class PairingViolationError(JKPencilError):
    """Elementary divisors of a skew pencil failed to pair up.

    Indicates non-skew input or an arithmetic bug; never expected for
    honest inputs.
    """


class InternalConsistencyError(JKPencilError):
    """Two independent computations of the same quantity disagreed."""


class NonGenericPointError(JKPencilError):
    """A point-based analysis was requested at a non-generic point."""

    def __init__(self, message: str, details: dict | None = None):
        super().__init__(message)
        self.details = details or {}


class DenominatorVanishesError(NonGenericPointError):
    """The common denominator of the characteristic coefficients vanishes."""


class DegreeJumpError(JKPencilError):
    """A sample point produced a higher pointwise degree than the generic gcd."""
