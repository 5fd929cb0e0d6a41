"""Exception types shared across the package, and the one seed check."""

from numbers import Integral


class RoblocError(Exception):
    """Base class for all robloc-specific errors."""


class DatasetFormatError(RoblocError):
    """Raised when a dataset file or array cannot be parsed into points."""


class ParameterError(RoblocError, ValueError):
    """Raised when an argument is outside its documented range."""


class OverflowParameterError(ParameterError):
    """Raised when finite inputs are too large for a result to be finite."""


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


def require_seed(seed):
    """``seed`` as a Python int if it is a nonnegative integer, the only
    seeds that numpy's generators take and that make a result reproducible."""
    if not isinstance(seed, Integral) or seed < 0:
        raise ParameterError(f"seed must be a nonnegative integer, got {seed!r}")
    return int(seed)
