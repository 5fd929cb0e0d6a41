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
from math import comb

import numpy as np

from .dataset import DataSet
from .errors import CombinatorialBudgetError, DegenerateSampleError, ParameterError
from .geometry import hyperplane_normal, subset_index

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
    reproducibility to it.
    """

    random_count: int
    include_data_directions: bool
    seed: int

    def __post_init__(self):
        if self.random_count < 0:
            raise ParameterError("random_count must be nonnegative")
        if self.random_count == 0 and not self.include_data_directions:
            raise ParameterError("budget must provide at least one direction")


def direction_set(X: DataSet, budget: DirectionBudget) -> np.ndarray:
    """Materialize the (D, k) array of unit directions for a dataset.

    For k = 1 the only direction up to sign is +1 and the budget collapses
    to it. Data-derived directions are hyperplane normals through each
    k-subset of points; affinely dependent subsets are skipped.
    """
    n, k = X.n, X.k
    if k == 1:
        return np.array([[1.0]])
    dirs = []
    if budget.random_count > 0:
        rng = np.random.default_rng(budget.seed)
        raw = rng.standard_normal((budget.random_count, k))
        norms = np.linalg.norm(raw, axis=1)
        keep = norms > 1e-12
        dirs.append(raw[keep] / norms[keep, None])
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


class OutlyingnessEvaluator:
    """Worst-case standardized projection distance over a fixed probe set.

    The per-direction median midpoints and MAD scales depend only on the
    dataset and the budget, so they are precomputed once; evaluating a query
    point is then a single matrix-vector product. This is what makes the
    candidate-grid search in the projection median cheap.
    """

    def __init__(
        self,
        X: DataSet,
        scale_shift: int,
        budget: DirectionBudget | None = None,
        directions=None,
    ):
        if scale_shift < 0 or scale_shift > X.n - 1:
            raise ParameterError(f"scale_shift must be in [0, n-1], got {scale_shift}")
        if (budget is None) == (directions is None):
            raise ParameterError("provide exactly one of budget or explicit directions")
        self.dataset = X
        self.scale_shift = int(scale_shift)
        self.budget = budget
        if directions is None:
            self.directions = direction_set(X, budget)
        else:
            dirs = np.asarray(directions, dtype=float)
            if dirs.ndim != 2 or dirs.shape[1] != X.k or dirs.shape[0] == 0:
                raise ParameterError("directions must be a nonempty (D, k) array")
            self.directions = dirs
        proj = X.points @ self.directions.T  # (n, D)
        n = X.n
        s = np.sort(proj, axis=0)
        if n % 2 == 1:
            self._med = s[n // 2].copy()
        else:
            self._med = 0.5 * (s[n // 2 - 1] + s[n // 2])
        devs = np.sort(np.abs(proj - self._med), axis=0)
        rank = min(-(-(n + self.scale_shift + 1) // 2), n)
        self._mad = devs[rank - 1].copy()

    def __call__(self, x) -> float:
        return float(self.batch(np.asarray(x, dtype=float).reshape(1, -1))[0])

    def batch(self, xs) -> np.ndarray:
        """Outlyingness of each row of xs; +inf where a zero-scale direction
        has nonzero numerator."""
        xs = np.asarray(xs, dtype=float)
        if xs.ndim == 1:
            xs = xs.reshape(1, -1)
        num = np.abs(xs @ self.directions.T - self._med)  # (C, D)
        zero = self._mad == 0.0
        out = np.zeros(xs.shape[0])
        if np.any(~zero):
            out = (num[:, ~zero] / self._mad[~zero]).max(axis=1)
        elif np.any(~(num > 0.0).any(axis=1)):
            # some query row sits on a sample that is flat in every probed
            # direction: no finite or infinite score is defined for it
            raise DegenerateSampleError(
                "every probed direction has zero scale and zero spread"
            )
        if np.any(zero):
            blown = (num[:, zero] > 0.0).any(axis=1)
            out = np.where(blown, np.inf, out)
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
    containing it.

    ``exact2d`` (k = 2 only) runs the angular sweep over all directions
    orthogonal to point-to-data segments, which is exact. ``sampled``
    evaluates the budget's directions only and therefore reports an upper
    bound on the true depth.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != X.k:
        raise ParameterError(f"point dimension {x.size} does not match data dimension {X.k}")
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
