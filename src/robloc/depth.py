"""Projection outlyingness and halfspace depth.

The supremum over directions in projection outlyingness is not computable
exactly, so it is approximated over a reproducible probe set: seeded random
unit vectors plus, optionally, the normals of every hyperplane through k
data points. The data-derived normals matter: they are exactly the
directions along which k points tie in projection, which is where robust
scale estimates collapse first.

Halfspace depth in the plane is computed exactly by an angular sweep; in
higher dimensions only a sampled upper bound is offered.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .dataset import DataSet
from .errors import CombinatorialBudgetError, DegenerateSampleError, ParameterError, require_integer
from .geometry import hyperplane_normal, subset_index
from .univariate import median_interval, shifted_mad

__all__ = [
    "DirectionBudget",
    "direction_set",
    "OutlyingnessEvaluator",
    "outlyingness",
    "tukey_depth",
]

# Hard cap on enumerated k-subsets when collecting data-derived normals.
_DATA_DIRECTION_CAP = 200_000


@dataclass(frozen=True)
class DirectionBudget:
    """Reproducible direction probe set: random count, data normals, seed.

    The seed is mandatory; every stochastic path in the package owes its
    reproducibility to it, and the probe cache is keyed on it. The count
    and the seed must be nonnegative integers and are stored as ints.
    """

    random_count: int
    include_data_directions: bool
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "seed", require_integer(self.seed, "seed"))
        object.__setattr__(self, "random_count", require_integer(self.random_count, "random_count"))
        if self.random_count == 0 and not self.include_data_directions:
            raise ParameterError("budget must provide at least one direction")


def direction_set(X: DataSet, budget: DirectionBudget) -> np.ndarray:
    """Materialize the (D, k) array of unit directions for a dataset.

    For k = 1 the only direction up to sign is +1 and the budget collapses
    to it. Data-derived directions are hyperplane normals through each
    k-subset of points; affinely dependent subsets are skipped. The seeded
    random block depends only on (seed, count, k), so it is drawn and
    normalised once per such triple and cached read-only; every call still
    returns a fresh array the caller may write to.
    """
    n, k = X.n, X.k
    if k == 1:
        return np.array([[1.0]])
    dirs = []
    if budget.random_count > 0:
        dirs.append(_random_directions(budget.seed, budget.random_count, k))
    if budget.include_data_directions and n >= k:
        total = comb(n, k)
        if total > _DATA_DIRECTION_CAP:
            raise CombinatorialBudgetError(
                f"C({n},{k}) = {total} data directions exceeds the desk-scale cap"
            )
        normals, degenerate = hyperplane_normal(X.points[subset_index(n, k)])
        if not degenerate.all():
            dirs.append(normals[~degenerate])
    if not dirs:
        raise ParameterError("direction budget produced no directions")
    return np.vstack(dirs)


@lru_cache(maxsize=32)
def _random_directions(seed: int, count: int, k: int) -> np.ndarray:
    """Seeded standard-normal draws scaled to unit length, read-only."""
    raw = np.random.default_rng(seed).standard_normal((count, k))
    norms = np.linalg.norm(raw, axis=1)
    keep = norms > 1e-12
    block = raw[keep] / norms[keep, None]
    block.flags.writeable = False
    return block


class OutlyingnessEvaluator:
    """Worst-case standardized projection distance over a fixed probe set.

    The per-direction median midpoints and MAD scales depend only on the
    dataset and the budget, so they are precomputed once. Scoring C query
    points is then one (C, k) x (k, D) product followed by in-place
    subtract, absolute value and divide on that one (C, D) array, and a
    NaN-skipping row maximum; no column is ever selected or copied. A
    zero-scale direction needs no separate path: it divides to +inf where
    the numerator is nonzero and to NaN (skipped) where it is 0/0.

    Scores are reproducible to the last bit, because the projection
    median's incumbent and the trimmed mean's ranking compare them exactly.
    Hence the kernel divides by the MAD instead of multiplying by a
    precomputed reciprocal (x * (1/s) and x / s differ in the last bit for
    some x), and keeps the transposed view instead of a contiguous copy
    (BLAS rounds the product differently for the two layouts).
    """

    def __init__(
        self,
        X: DataSet,
        scale_shift: int,
        budget: DirectionBudget | None = None,
        directions=None,
    ):
        scale_shift = require_integer(scale_shift, "scale_shift", None)
        if scale_shift < 0 or scale_shift > X.n - 1:
            raise ParameterError(f"scale_shift must be in [0, n-1], got {scale_shift}")
        if (budget is None) == (directions is None):
            raise ParameterError("provide exactly one of budget or explicit directions")
        self.dataset = X
        self.scale_shift = scale_shift
        self.budget = budget
        if directions is None:
            self.directions = direction_set(X, budget)
        else:
            dirs = np.asarray(directions, dtype=float)
            if dirs.ndim != 2 or dirs.shape[1] != X.k or dirs.shape[0] == 0:
                raise ParameterError("directions must be a nonempty (D, k) array")
            if not np.isfinite(dirs).all():
                raise ParameterError("directions must be finite")
            if not (dirs != 0.0).any(axis=1).all():
                raise ParameterError("directions must be nonzero")
            self.directions = dirs
        proj = X.points @ self.directions.T  # (n, D)
        self._med = median_interval(proj)[2]
        self._mad = shifted_mad(proj, self._med, self.scale_shift)

    def __call__(self, x) -> float:
        return float(self.batch(np.asarray(x, dtype=float).reshape(1, -1))[0])

    def batch(self, xs) -> np.ndarray:
        """Outlyingness of each row of xs; +inf where a zero-scale direction
        has nonzero numerator."""
        xs = np.asarray(xs, dtype=float)
        if xs.ndim == 1:
            xs = xs.reshape(1, -1)
        if xs.ndim != 2 or xs.shape[1] != self.dataset.k:
            raise ParameterError(
                f"query points must be rows of dimension {self.dataset.k}, got shape {xs.shape}"
            )
        if not np.isfinite(xs).all():
            raise ParameterError("query points must be finite")
        num = xs @ self.directions.T  # (C, D)
        num -= self._med
        np.abs(num, out=num)
        # a row left NaN is flat in every probed direction: no finite or
        # infinite score is defined for it
        with np.errstate(divide="ignore", invalid="ignore"):
            num /= self._mad
        out = np.fmax.reduce(num, axis=1)
        if np.isnan(out).any():
            raise DegenerateSampleError("every probed direction has zero scale and zero spread")
        return out


def outlyingness(x, X: DataSet, scale_shift: int, budget: DirectionBudget) -> float:
    """Projection outlyingness of a point relative to a dataset.

    max over probed directions u of |u.x - med(u.X)| / mad(u.X, scale_shift).
    Returns +inf when some probed direction has zero scale but nonzero
    numerator; raises :class:`DegenerateSampleError` when the sample is flat
    in every probed direction and x sits on it.
    """
    return OutlyingnessEvaluator(X, scale_shift, budget)(x)


def tukey_depth(x, X: DataSet, mode: str = "exact2d", budget: DirectionBudget | None = None) -> int:
    """Halfspace depth of a point: fewest data points in a closed halfspace
    containing it. The point must be finite.

    ``exact2d`` (k = 2 only) runs the angular sweep over all directions
    orthogonal to point-to-data segments, which is exact. ``sampled``
    evaluates the budget's directions only and therefore reports an upper
    bound on the true depth.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != X.k:
        raise ParameterError(f"point dimension {x.size} does not match data dimension {X.k}")
    if not np.all(np.isfinite(x)):
        raise ParameterError(f"point coordinates must be finite, got {x.tolist()}")
    if mode == "exact2d":
        if X.k != 2:
            raise ParameterError("exact2d mode requires k = 2")
        return _exact_depth_2d(x, X.points)
    if mode == "sampled":
        if budget is None:
            raise ParameterError("sampled mode requires a direction budget")
        dirs = direction_set(X, budget)
        rel = X.points - x
        tol = 1e-12 * (1.0 + float(np.abs(rel).max(initial=0.0)))
        counts = (rel @ dirs.T >= -tol).sum(axis=0)
        return int(counts.min())
    raise ParameterError(f"unknown depth mode {mode!r}")


def _exact_depth_2d(x: np.ndarray, pts: np.ndarray) -> int:
    rel = pts - x
    norms = np.linalg.norm(rel, axis=1)
    tol = 1e-12 * (1.0 + float(norms.max(initial=0.0)))
    coincident = norms <= tol
    base = int(coincident.sum())
    rel = rel[~coincident]
    if rel.shape[0] == 0:
        return base
    angles = np.arctan2(rel[:, 1], rel[:, 0])
    # Candidate directions: wherever some point enters/leaves the closed
    # halfplane boundary, plus a midpoint inside every sweep interval.
    critical = np.unique(np.concatenate([angles + np.pi / 2, angles - np.pi / 2]) % (2 * np.pi))
    gaps = np.concatenate([critical, [critical[0] + 2 * np.pi]])
    mids = 0.5 * (gaps[:-1] + gaps[1:])
    thetas = np.concatenate([critical, mids])
    u = np.column_stack([np.cos(thetas), np.sin(thetas)])
    side = rel @ u.T  # (n', T)
    counts = (side >= -tol).sum(axis=0)
    return base + int(counts.min())
