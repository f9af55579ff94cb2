"""Exception types raised across the package, and the exit code of each.

Everything derives from DmdcError so callers can catch the whole family.
Each class carries the code the command line exits with when it is raised,
so this module is the one table: 1 for bad arguments or configuration
(UsageError, InvalidConfigError, TruncationOrderError), 2 for bad files or
data (FormatError, ParseError, SchemaError, LengthError, ShapeError,
InsufficientDataError, InvalidInputError), 3 for numerical failure
(DmdcError and every other subclass).
"""


class DmdcError(Exception):
    """Base class for all errors raised by this package."""
    exit_code = 3


class InvalidInputError(DmdcError, ValueError):
    """Input data violates a precondition (non-finite entries, bad policy)."""
    exit_code = 2


class ShapeError(DmdcError, ValueError):
    """Matrix dimensions are inconsistent with the requested operation."""
    exit_code = 2


class DegenerateMatrixError(DmdcError, ValueError):
    """A matrix has no usable positive spectrum (e.g. all-zero input)."""


class InsufficientDataError(DmdcError, ValueError):
    """Too few snapshots to form the requested data matrices."""
    exit_code = 2


class TruncationOrderError(DmdcError, ValueError):
    """Input-space truncation p is smaller than output-space truncation r."""
    exit_code = 1


class NumericalFailureError(DmdcError, RuntimeError):
    """An iterative kernel (e.g. the eigensolver) failed to converge."""


class DivergenceError(DmdcError, RuntimeError):
    """Simulation produced a non-finite state."""

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"non-finite state at step {step}")


class SingularFrequencyError(DmdcError, ValueError):
    """A frequency grid point coincides with an eigenvalue of A."""

    def __init__(self, omega: float):
        self.omega = omega
        super().__init__(f"e^(i*{omega!r}) is an eigenvalue of A within 1e-12")


class FormatError(DmdcError, ValueError):
    """A file violates its declared layout (bad magic, ragged rows, ...)."""
    exit_code = 2


class ParseError(DmdcError, ValueError):
    """A cell of a text file does not parse as a finite number."""
    exit_code = 2


class LengthError(DmdcError, ValueError):
    """A binary payload is shorter or longer than its header declares."""
    exit_code = 2


class SchemaError(DmdcError, ValueError):
    """A structured document is missing fields or carries unknown tags."""
    exit_code = 2


class InvalidConfigError(DmdcError, ValueError):
    """A generator or run configuration is out of its valid range."""
    exit_code = 1


class UsageError(DmdcError, ValueError):
    """Command-line arguments are inconsistent or incomplete."""
    exit_code = 1
