"""Univariate medians and order-statistic MAD variants."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, require_integer

__all__ = ["MedianInterval", "univariate_median", "mad", "median_interval", "shifted_mad"]


@dataclass(frozen=True)
class MedianInterval:
    """Set-valued sample median: the full interval of minimizers.

    For odd n both endpoints equal the middle order statistic; for even n
    the interval spans the two central order statistics. ``midpoint`` is the
    conventional point representative.
    """

    low: float
    high: float

    def __post_init__(self):
        if self.low > self.high:
            raise ParameterError(f"median interval endpoints out of order: {self.low} > {self.high}")

    @property
    def midpoint(self) -> float:
        """As :func:`median_interval` takes it: a point interval is its own midpoint."""
        return self.low if self.is_point else 0.5 * (self.low + self.high)

    @property
    def is_point(self) -> bool:
        return self.low == self.high


def median_interval(values, axis: int = 0) -> tuple:
    """(low, high, midpoint) of the sample median along ``axis``, from one
    sort: the order statistics at (n-1)//2 and n//2, which are equal for
    odd n, and the midpoint between them, which for odd n is the middle
    value itself. Each has the shape of ``values`` without ``axis``."""
    s = np.sort(values, axis=axis)
    n = s.shape[axis]
    low, high = np.take(s, (n - 1) // 2, axis=axis), np.take(s, n // 2, axis=axis)
    return low, high, high if n % 2 else 0.5 * (low + high)


def shifted_mad(values, center, order_shift: int, axis: int = 0):
    """The ceil((n + j + 1) / 2)-th smallest absolute deviation of
    ``values`` from ``center`` along ``axis`` for order shift j, clamped
    to the n-th; ``center`` broadcasts against ``values``."""
    devs = np.sort(np.abs(values - center), axis=axis)
    n = devs.shape[axis]
    return np.take(devs, min(-(-(n + order_shift + 1) // 2), n) - 1, axis=axis)


def univariate_median(values) -> MedianInterval:
    """Sample median as an order-statistic interval.

    Odd n: both endpoints are the middle order statistic. Even n: the
    interval [x_(n/2), x_(n/2+1)].
    """
    v = np.asarray(values, dtype=float).reshape(-1)
    n = v.size
    if n == 0:
        raise ParameterError("median of an empty sample")
    if not np.all(np.isfinite(v)):
        raise ParameterError("median requires finite values")
    low, high, _ = median_interval(v)
    return MedianInterval(float(low), float(high))


def mad(values, order_shift: int = 0) -> float:
    """Median absolute deviation with an order-statistic shift.

    Deviations are taken about the median midpoint, and the scale is the
    ceil((n + j + 1) / 2)-th smallest deviation for shift j (clamped to the
    n-th). ``order_shift=0`` is the ordinary high-median MAD for odd n;
    positive shifts move the scale up the order statistics, which is what
    projection-type estimators use to trade bias for breakdown.
    """
    v = np.asarray(values, dtype=float).reshape(-1)
    n = v.size
    if n == 0:
        raise ParameterError("MAD of an empty sample")
    j = require_integer(order_shift, "order_shift", None)
    if j < 0 or j > n - 1:
        raise ParameterError(f"order_shift must be in [0, n-1], got {j} with n={n}")
    if not np.all(np.isfinite(v)):
        raise ParameterError("median requires finite values")
    return float(shifted_mad(v, median_interval(v)[2], j))
