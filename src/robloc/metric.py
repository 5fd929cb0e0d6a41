"""Distances between samples and between set-valued estimates.

Two different notions live here and they are not interchangeable:

* ``estimate_set_distance`` is the supremum over all member pairs. It is the
  right gauge for breakdown ("does any member fly away?") but is positive
  even between identical multi-member sets.
* ``hausdorff_set_distance`` is the symmetric Hausdorff distance, which is
  zero exactly when two estimate sets coincide; equivariance checks use it.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError, require_integer

__all__ = [
    "sample_distance",
    "estimate_set_distance",
    "hausdorff_set_distance",
    "lipschitz_probe",
]


def sample_distance(x, y) -> float:
    """Permutation-minimal sup distance between two equal-length samples.

    Defined as the minimum over all pairings of the largest pointwise gap;
    computed by its closed form, the largest gap between sorted order
    statistics.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    if x.size != y.size:
        raise ParameterError(f"samples have different sizes: {x.size} vs {y.size}")
    if x.size == 0:
        raise ParameterError("samples must be nonempty")
    return float(np.max(np.abs(np.sort(x) - np.sort(y))))


def _members(S) -> np.ndarray:
    m = getattr(S, "members", S)
    m = np.asarray(m, dtype=float)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    if m.shape[0] == 0:
        raise ParameterError("estimate set must be nonempty")
    return m


def estimate_set_distance(S1, S2) -> float:
    """Supremum of Euclidean distances over all member pairs."""
    return float(_row_sup_distances(_members(S1), _members(S2)).max())


def _row_sup_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Largest distance from each row of a (m, k) to the rows of b (p, k),
    p >= 1, taken one row of b at a time."""
    out = np.zeros(a.shape[0])
    for row in b:
        d = a - row
        d *= d
        np.maximum(out, np.sqrt(d.sum(axis=1)), out=out)
    return out


def hausdorff_set_distance(S1, S2) -> float:
    """Symmetric Hausdorff distance; zero iff the sets coincide."""
    a = _members(S1)
    b = _members(S2)
    d = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def lipschitz_probe(estimator_1d, x, delta: float, trials: int, seed: int) -> float:
    """Largest observed endpoint shift under bounded perturbations.

    Each trial moves every value by an independent uniform draw from
    [-delta, delta] and records how far the interval endpoints of
    ``estimator_1d`` move. The sample median satisfies the contract
    ``result <= delta + 1e-12``. ``delta`` must be finite and nonnegative
    and ``trials`` a positive integer.

    Parameters
    ----------
    estimator_1d : callable
        Maps a 1-D sample to a :class:`MedianInterval` (or any object with
        ``low``/``high``).
    """
    if not (0.0 <= delta < np.inf):
        raise ParameterError(f"delta must be finite and nonnegative, got {delta!r}")
    trials = require_integer(trials, "trials", 1)
    x = np.asarray(x, dtype=float).reshape(-1)
    rng = np.random.default_rng(require_integer(seed, "seed"))
    base = estimator_1d(x)
    worst = 0.0
    for _ in range(trials):
        shifted = x + rng.uniform(-delta, delta, size=x.size)
        moved = estimator_1d(shifted)
        worst = max(worst, abs(moved.low - base.low), abs(moved.high - base.high))
    return worst
