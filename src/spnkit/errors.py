"""Exception and warning types shared across spnkit.

The CLI maps these onto process exit codes: ValidationError (and its
subclasses) -> 2, I/O failures -> 3, and DegenerateStatisticsWarning -> 4
when it is raised as an error (under --strict, or by the caller's
warnings filters).
"""


class SpnkitError(Exception):
    """Base class for all spnkit errors."""


class ValidationError(SpnkitError, ValueError):
    """Invalid input: bad shapes, broken invariants, out-of-range values."""


class IncompleteDesignError(ValidationError):
    """A balanced subject x condition design has missing or duplicate cells."""


class SchemaError(ValidationError):
    """A manifest or serialized file does not match the expected schema."""


class DataError(ValidationError):
    """A data file holds values that violate the declared constraints."""


class DegenerateStatisticsWarning(UserWarning):
    """Statistics collapsed (zero variance, zero residual); results are trivial."""
