"""Exception types shared across the package."""


class FockminError(Exception):
    """Base class for all package errors."""


class InvalidParameter(FockminError):
    """A parameter is outside its mathematical domain."""


class TruncationTooSmall(FockminError):
    """The requested truncation cannot hold the result to tolerance."""


class NotCentrosymmetric(FockminError):
    """A block's band is not palindromic or has the wrong shape."""


class OutOfRange(FockminError):
    """Block index outside the range where the statement applies."""


class CertificateFailed(FockminError):
    """A positivity certificate did not close (should never happen)."""


class NonFiniteParameter(InvalidParameter):
    """A real parameter is NaN or infinite."""


class MuNonPositive(InvalidParameter):
    """The coupling must be strictly positive for a minimizer to exist."""


class NoConvergence(FockminError):
    """An iterative numerical routine exhausted its budget."""


class DegenerateInput(FockminError):
    """Input is numerically zero where a nonzero value is required."""


class InconsistentBracket(FockminError):
    """Bisection endpoints do not classify monotonically."""
