"""Exception hierarchy shared by the library and the CLI.

The split mirrors the failure modes a batch caller can react to, and the
CLI maps them onto process exit codes: malformed input documents (1),
violated call contracts (2), numerical guard aborts (3).
"""

__all__ = [
    "SpectralError",
    "InputFormatError",
    "PreconditionError",
    "ConditioningError",
    "SingularMatrixError",
    "ConvergenceError",
    "ClusteringError",
]


class SpectralError(Exception):
    """Base class for every error raised by this package."""


class InputFormatError(SpectralError, ValueError):
    """A matrix document could not be parsed or fails its schema."""


class PreconditionError(SpectralError, ValueError):
    """An operation was called outside its contract."""


class ConditioningError(SpectralError, ArithmeticError):
    """A numerical guard tripped; continuing would return garbage."""


class SingularMatrixError(ConditioningError):
    """A linear solve hit a numerically singular matrix.

    ``pivot`` carries the matrix's smallest singular value.
    """

    def __init__(self, message, pivot=None):
        super().__init__(message)
        self.pivot = pivot


class ConvergenceError(ConditioningError):
    """The eigenvalue iteration did not converge."""


class ClusteringError(ConditioningError):
    """Eigenvalue clusters could not be separated unambiguously."""
