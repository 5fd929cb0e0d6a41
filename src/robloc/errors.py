"""Exception types shared across the package, and the one integer check."""

from numbers import Integral


class RoblocError(Exception):
    """Base class for all robloc-specific errors."""


class DatasetFormatError(RoblocError):
    """Raised when a dataset file or array cannot be parsed into points."""


class ParameterError(RoblocError, ValueError):
    """Raised when an argument is outside its documented range."""

    @classmethod
    def too_large(cls, kind: str, value: float, reason) -> "ParameterError":
        """The error for a slope or radius at which ``reason`` stops evaluation."""
        return cls(f"{kind} {value!r} is too large: {reason}")


class OverflowParameterError(ParameterError):
    """Raised when finite inputs are too large for a result to be finite;
    ``run`` is the failing dataset of a stacked evaluation, if there is one."""

    def __init__(self, message, run=None):
        super().__init__(message)
        self.run = run


class GeneralPositionError(RoblocError):
    """Raised when an operation requires general position and the data violate it."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class DegenerateSampleError(RoblocError):
    """Raised when every probed direction of a sample has zero scale and zero spread."""


class NoAdmissibleDirectionError(RoblocError):
    """Raised when no direction reproducing the required tie pattern could be verified."""


class CombinatorialBudgetError(RoblocError):
    """Raised when an exhaustive enumeration would exceed the desk-scale budget."""


class EstimatorError(RoblocError):
    """Raised when an estimator cannot be resolved or fails to evaluate."""


_KINDS = {None: "an", 0: "a nonnegative", 1: "a positive"}


def require_integer(value, what: str, minimum: int | None = 0) -> int:
    """``value`` as a Python int if it is an integer (numpy's too) and at
    least ``minimum`` (0, 1, or None for any integer). A float is refused
    even when it is whole, so a fraction is never truncated into another
    value. Seeds must be nonnegative: those are the only seeds numpy's
    generators take and that make a result reproducible."""
    if not isinstance(value, Integral) or (minimum is not None and value < minimum):
        raise ParameterError(f"{what} must be {_KINDS[minimum]} integer, got {value!r}")
    return int(value)
