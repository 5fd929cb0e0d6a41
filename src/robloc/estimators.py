"""Location estimators behind a single set-valued interface.

Estimators return an :class:`EstimateSet`: a finite nonempty set of
candidate locations plus a canonical representative. Set-valuedness is not
decoration; exhaustive subset estimators produce genuine ties on symmetric
data, and the breakdown machinery measures divergence over all members.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from math import comb
from typing import Callable

import numpy as np

from .dataset import DataSet
from .depth import DirectionBudget, OutlyingnessEvaluator
from .geometry import OrthonormalBasis, ShearFamily, subset_index
from .errors import (
    CombinatorialBudgetError,
    DegenerateSampleError,
    EstimatorError,
    ParameterError,
)

__all__ = [
    "EstimateSet",
    "LocationEstimator",
    "coordinatewise_median",
    "coordinatewise_median_sweep",
    "weighted_mean",
    "MCDResult",
    "mcd_exhaustive",
    "MCDShearSweep",
    "default_mcd_coverage",
    "trimmed_mean",
    "projection_median",
    "ESTIMATOR_NAMES",
    "make_estimator",
]

# Members closer than this (Euclidean) are collapsed into one.
_DEDUP_ATOL = 1e-12

# Exhaustive MCD refuses to enumerate more subsets than this.
_MCD_SUBSET_BUDGET = 10_000_000
# MCD subsets within this relative distance of the best determinant tie.
_MCD_TIE_RTOL = 1e-9

_EPS = float(np.finfo(float).eps)

# Fixed fallback budget for estimators whose callers did not supply one:
# 2000 random probes plus the data-derived hyperplane normals. The seed is
# a package constant so the fallback stays deterministic.
_DEFAULT_PROBE_SEED = 1729
_DEFAULT_PROBE_COUNT = 2000


@dataclass(frozen=True)
class EstimateSet:
    """Finite nonempty set of location estimates with a canonical member.

    Members are deduplicated within 1e-12, first occurrences kept.
    ``canonical`` is the conventional point representative, the first kept
    member when omitted (for interval-valued estimators it may be an
    interval midpoint that is not itself a member).
    """

    members: np.ndarray = field(repr=False)
    canonical: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        m = np.asarray(self.members, dtype=float)
        if m.ndim == 1:
            m = m.reshape(1, -1)
        if m.shape[0] == 0:
            raise EstimatorError("estimate set must be nonempty")
        if not np.all(np.isfinite(m)):
            raise EstimatorError("estimate members must be finite")
        # O(m^2) dedup preserving first occurrences; member counts stay tiny
        rows = []
        for row in m:
            if not any(np.linalg.norm(row - r) <= _DEDUP_ATOL for r in rows):
                rows.append(row)
        m = np.array(rows)
        c = m[0] if self.canonical is None else np.asarray(self.canonical, dtype=float).reshape(-1)
        if c.size != m.shape[1]:
            raise EstimatorError("canonical point dimension mismatch")
        m.setflags(write=False)
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "members", m)
        object.__setattr__(self, "canonical", c)

    @property
    def size(self) -> int:
        return self.members.shape[0]

    @property
    def k(self) -> int:
        return self.members.shape[1]


@dataclass(frozen=True)
class LocationEstimator:
    """Named estimator with a declared equivariance class.

    ``evaluate`` must be deterministic given the input dataset and whatever
    seed was frozen into it at construction time.

    ``sweep`` is an optional fast path for the shear attack, which evaluates
    the estimator on many datasets that differ from a base dataset only in
    where a shear moved a few rows. ``sweep(X, basis)`` is called once per
    shear frame of the base data X and returns a function that takes a
    :class:`~robloc.geometry.ShearFamily` of that frame and returns one
    EstimateSet per dataset of the family. A hook reads the family's
    (G, n, k) ``points`` stack directly; building ``family.datasets``
    costs one DataSet per slope. Each estimate must be exactly what
    ``evaluate`` returns on that dataset: the same members, in the same
    order, to the last bit, because certificates built through either path
    are compared byte for byte. Errors must be the ones ``evaluate`` raises.
    Without a hook, :meth:`shear_sweep` evaluates each dataset in turn.
    """

    name: str
    equivariance_class: str  # "translation" | "affine"
    evaluate: Callable[[DataSet], EstimateSet] = field(repr=False)
    sweep: Callable[[DataSet, OrthonormalBasis], Callable[[ShearFamily], list]] | None = field(
        default=None, repr=False
    )

    def __post_init__(self):
        if self.equivariance_class not in ("translation", "affine"):
            raise ParameterError(f"unknown equivariance class {self.equivariance_class!r}")

    def __call__(self, X: DataSet) -> EstimateSet:
        return self.evaluate(X)

    def shear_sweep(self, X: DataSet, basis: OrthonormalBasis) -> Callable[[ShearFamily], list]:
        """Per-frame evaluator: a shear family to one estimate per dataset."""
        if self.sweep is None:
            return lambda family: [self(Xg) for Xg in family.datasets]
        return self.sweep(X, basis)


def coordinatewise_median(X: DataSet) -> EstimateSet:
    """Per-coordinate median interval, as a corner set plus midpoint.

    Members are the corners of the coordinatewise interval box in
    ``itertools.product`` order, one value per point interval (at most 2^k);
    the canonical representative is the box midpoint, which for even n need
    not be a member.
    """
    return _median_boxes(X.points[None])[0]


def _median_boxes(stack: np.ndarray) -> list:
    """:func:`coordinatewise_median` of each dataset of a (G, n, k) stack,
    from one sort of the whole stack."""
    ordered = np.sort(stack, axis=1)
    n, k = ordered.shape[1:]
    low, high = ordered[:, (n - 1) // 2], ordered[:, n // 2]  # (G, k)
    # corner c takes high on coordinate j where bit k-1-j of c is set
    bits = (np.arange(2**k)[:, None] >> np.arange(k - 1, -1, -1)) & 1 == 1  # (2^k, k)
    corners = np.where(bits, high[:, None, :], low[:, None, :])  # (G, 2^k, k)
    # a coordinate with low == high keeps only the corners that take low
    keep = ~(bits & (low == high)[:, None, :]).any(axis=2)  # (G, 2^k)
    midpoint = 0.5 * (low + high)
    return [EstimateSet(c[kept], mid) for c, kept, mid in zip(corners, keep, midpoint)]


def coordinatewise_median_sweep(X: DataSet, basis: OrthonormalBasis) -> Callable[[ShearFamily], list]:
    """The coordinatewise median of every dataset of a shear family, from
    the family's point stack. Needs nothing of the frame."""
    return lambda family: _median_boxes(family.points)


def weighted_mean(X: DataSet, weights) -> np.ndarray:
    """Weighted average of the data points, weights in [0, 1]."""
    w = np.asarray(weights, dtype=float).reshape(-1)
    if w.size != X.n:
        raise ParameterError(f"need {X.n} weights, got {w.size}")
    if np.any(w < 0) or np.any(w > 1):
        raise ParameterError("weights must lie in [0, 1]")
    total = w.sum()
    if total <= 0:
        raise ParameterError("weights must not all be zero")
    return (w @ X.points) / total


def default_mcd_coverage(n: int, k: int) -> int:
    """Coverage floor((n + k + 1) / 2): the choice with maximal breakdown."""
    return (n + k + 1) // 2


@dataclass(frozen=True)
class MCDResult:
    estimates: EstimateSet
    objective: float
    optimal_subsets: tuple


def _mcd_coverage(n: int, k: int, coverage: int | None) -> int:
    """Validated coverage h, within the exhaustive-enumeration budget."""
    h = default_mcd_coverage(n, k) if coverage is None else int(coverage)
    if h < k + 1 or h > n:
        raise ParameterError(f"coverage must be in [k+1, n] = [{k + 1}, {n}], got {h}")
    total = comb(n, h)
    if total > _MCD_SUBSET_BUDGET:
        raise CombinatorialBudgetError(
            f"C({n},{h}) = {total} exceeds the exhaustive-MCD budget {_MCD_SUBSET_BUDGET}"
        )
    return h


def _subset_objectives(groups: np.ndarray) -> tuple:
    """Means and covariance determinants of stacked (S, h, k) subsets."""
    h, k = groups.shape[1:]
    means = groups.mean(axis=1)  # (S, k)
    centered = groups - means[:, None, :]
    svals = np.linalg.svd(centered, compute_uv=False)  # (S, k), h >= k+1 > k
    dets = np.prod(svals, axis=1) ** 2 / float(h - 1) ** k
    return means, dets


def _mcd_picks(subsets: np.ndarray, means: np.ndarray, dets: np.ndarray, starts) -> list:
    """The MCD tie rule on each run of subsets that begins at ``starts``:
    every nonsingular subset within 1e-9 relative of the run's smallest
    determinant, in the order given, the first one canonical. Runs must be
    nonempty."""
    valid = np.isfinite(dets) & (dets > 0.0)
    best = np.minimum.reduceat(np.where(valid, dets, np.inf), starts)
    if not np.all(np.isfinite(best)):
        raise DegenerateSampleError("every coverage subset has singular covariance")
    run_best = np.repeat(best, np.diff(np.append(starts, dets.size)))
    winners = np.flatnonzero(valid & (dets <= run_best + _MCD_TIE_RTOL * run_best))
    return [
        MCDResult(EstimateSet(means[w]), float(b), tuple(map(tuple, subsets[w].tolist())))
        for w, b in zip(np.split(winners, np.searchsorted(winners, starts[1:])), best)
    ]


def mcd_exhaustive(X: DataSet, coverage: int | None = None) -> MCDResult:
    """Minimum covariance determinant location by full subset enumeration.

    Every coverage-subset is scored by the determinant of its sample
    covariance; the estimate set holds the means of all subsets tying for
    the minimum within a relative tolerance of 1e-9. Subsets with singular
    covariance score 0 and are excluded unless every subset is singular.

    The determinant is evaluated through the singular values of the
    centered subset (det = prod(s_i^2) / (h-1)^k) rather than by
    factorizing an explicitly formed covariance matrix. Contamination
    sweeps feed this estimator subsets that are extremely elongated affine
    images of compact ones; forming the covariance squares the condition
    number and loses the tiny determinant to cancellation long before the
    singular values do.

    **Along a shear** the objective is quadratic in the slope, which
    :class:`MCDShearSweep` uses to reproduce this function on whole shear
    families at once. A shear of slope gamma moves replaced row i by
    gamma * c_i * e2, with c_i = e1 . (x_i - origin), so in the shear basis
    only the e2 column of a centered subset Y moves: y2 + gamma * w, w the
    centered c. With O the other columns, g_O = det(O^T O) and r, s the
    parts of y2, w orthogonal to span(O),

        det(Y^T Y) = g_O |r + gamma s|^2 = alpha + beta gamma + zeta gamma^2,

    alpha = g_O |r|^2 = det Gram[O, y2], zeta = g_O |s|^2 = det Gram[O, w]
    and beta = 2 g_O r . s = 2 det([O, w]^T [O, y2]). The sweep evaluates
    vol = sqrt(g_O) |r + gamma s| for every subset and slope in one pass,
    as a norm so that it does not cancel near a degenerate slope.

    **Candidate bound.** What must be reproduced is the SVD determinant of
    the floating-point coordinates, which at large slopes differs from the
    exact one (on demo10_2d at gamma = 1e8, h = 2, m = 4, the near family's
    winner scores 38.32 by SVD and 24.43 in exact rational arithmetic on
    the same float coordinates). The computed singular values are those of
    Y + E, and eta bounds |E|_2 by adding up the rounding of coordinates of
    size |x| + gamma |c| by the shear, the rounding of the subset mean and
    centering, the SVD backward error (a multiple of eps |Y|), the sweep's
    own backward error and the basis's departure from orthonormality. By
    Weyl's inequality the volume then moves by at most
    sum_j eta^j e_{k-j}(sigma); the elementary symmetric functions of the
    singular values are bounded through interlacing with O's singular
    values and Maclaurin's inequality. A subset is a candidate when its
    lower bound comes within the 1e-9 tie tolerance of the smallest upper
    bound, so every subset that can win or tie is one. The candidates of
    all slopes go through one batched SVD of the real contaminated
    coordinates, and one pass of the tie rule picks the winners of every
    slope among them in enumeration order: the same rule, on the same
    determinants, that this function applies to all subsets.

    Enumeration order is deterministic (lexicographic index tuples), which
    makes tie reporting and the canonical member reproducible.
    """
    h = _mcd_coverage(X.n, X.k, coverage)
    subsets = subset_index(X.n, h)
    means, dets = _subset_objectives(X.points[subsets])
    return _mcd_picks(subsets, means, dets, [0])[0]


class MCDShearSweep:
    """Exhaustive MCD over the datasets of shear families of one frame.

    Built once per shear frame (base data X and shear basis); called on a
    :class:`ShearFamily`, it returns for every dataset of the family exactly
    the estimate :func:`mcd_exhaustive` returns on it, by the quadratic
    identity and candidate bound described there. When the bound is not
    finite at some slope of a family, or a candidate is singular, the full
    :func:`mcd_exhaustive` runs on every dataset of that family instead;
    ``fallbacks`` counts the slopes of families that fell back whole and
    ``candidates`` the subsets that went through the SVD.
    """

    def __init__(self, X: DataSet, basis: OrthonormalBasis, coverage: int | None = None):
        n, k = X.n, X.k
        self.X = X
        self.h = h = _mcd_coverage(n, k, coverage)
        self.subsets = subset_index(n, h)
        self.fallbacks = 0
        self.candidates = 0
        pts = X.points
        groups = pts[self.subsets]
        shear = (groups - groups.mean(axis=1, keepdims=True)) @ basis.vectors  # (S, h, k)
        others = np.delete(shear, 1, axis=2)
        self._q, R = np.linalg.qr(others)
        self._vol_o = np.abs(np.prod(np.diagonal(R, axis1=1, axis2=2), axis=1))
        self._r = self._orthogonal_part(shear[:, :, 1])
        self._norm = np.sqrt((shear * shear).sum(axis=(1, 2)))
        # Maclaurin: e_j of O's k-1 singular values <= C(k-1, j) (|O|_F^2 / (k-1))^(j/2).
        mean_sq = (others * others).sum(axis=(1, 2)) / (k - 1)
        self._sym_o = [comb(k - 1, j) * mean_sq ** (j / 2) for j in range(k)]
        origin = basis.origin_shift
        self._offset = (pts - origin) @ basis.e(1)
        self._size = np.abs(pts).sum(axis=1) + np.abs(origin).sum()
        self._mag = np.abs(pts).max(axis=1)[self.subsets].max(axis=1)
        self._rho = k * float(np.abs(basis.vectors.T @ basis.vectors - np.eye(k)).max())

    def _orthogonal_part(self, v: np.ndarray) -> np.ndarray:
        """Component of each subset's column v (S, h) orthogonal to span(O)."""
        q = self._q
        return v - (q @ (q.transpose(0, 2, 1) @ v[:, :, None]))[:, :, 0]

    def bounds(self, family: ShearFamily) -> tuple:
        """(S, G) lower and upper bounds on prod(sigma_i)^2, the SVD
        objective of every subset at every slope of the family before its
        division by (h - 1)^k."""
        h, k, n = self.h, self.X.k, self.X.n
        replaced = list(family.replaced)
        c = np.zeros(n)
        c[replaced] = self._offset[replaced]
        cs = c[self.subsets]
        w = cs - cs.mean(axis=1, keepdims=True)
        s = self._orthogonal_part(w)
        slopes = np.asarray(family.slopes, dtype=float)
        g = np.abs(slopes)[None, :]
        v = self._r[:, None, :] + slopes[None, :, None] * s[:, None, :]  # (S, G, h)
        vol = self._vol_o[:, None] * np.sqrt((v * v).sum(axis=2))

        size = np.zeros(n)
        size[replaced] = self._size[replaced]
        size = size[self.subsets].max(axis=1)[:, None]
        moved = np.abs(cs).max(axis=1)[:, None]
        top = (1.0 + 1e-6) * (self._norm[:, None] + g * np.sqrt((w * w).sum(axis=1))[:, None])
        coords = np.sqrt(h * k) * _EPS * (
            2 * (k + 2) * (1.0 + g) * size + (h + 2) * (self._mag[:, None] + g * moved)
        )
        eta = 2.0 * coords + (4 * h * k * _EPS + np.sqrt(k) * self._rho) * top
        sym = [np.ones_like(top)] + [
            top * self._sym_o[j - 1][:, None] + self._sym_o[j][:, None] for j in range(1, k)
        ]
        delta = (1.0 + 1e-6) * sum(eta**j * sym[k - j] for j in range(1, k + 1))
        tau = (k + 2) * self._rho + 16 * k * _EPS
        low = np.maximum(vol * (1.0 - tau) - delta, 0.0) ** 2 * (1.0 - 8 * _EPS)
        high = (vol * (1.0 + tau) + delta) ** 2 * (1.0 + 8 * _EPS)
        return low, high

    def results(self, family: ShearFamily) -> list:
        """One :class:`MCDResult` per dataset of the family."""
        low, high = self.bounds(family)
        if np.isfinite(high).all():
            cutoff = high.min(axis=0) * (1.0 + _MCD_TIE_RTOL) * (1.0 + 16 * _EPS)
            gi, si = np.nonzero((low <= cutoff).T)
            self.candidates += int(gi.size)
            means, dets = _subset_objectives(family.points[gi[:, None], self.subsets[si]])
            if np.all(np.isfinite(dets) & (dets > 0.0)):
                # every run is nonempty: the smallest upper bound is a candidate
                starts = np.searchsorted(gi, np.arange(len(family.slopes)))
                return _mcd_picks(self.subsets[si], means, dets, starts)
        self.fallbacks += len(family.slopes)
        return [mcd_exhaustive(DataSet(points), self.h) for points in family.points]

    def __call__(self, family: ShearFamily) -> list:
        return [r.estimates for r in self.results(family)]


def _probe_budget(budget: DirectionBudget | None) -> DirectionBudget:
    if budget is not None:
        return budget
    return DirectionBudget(
        random_count=_DEFAULT_PROBE_COUNT,
        include_data_directions=True,
        seed=_DEFAULT_PROBE_SEED,
    )


def trimmed_mean(
    X: DataSet,
    trim_count: int,
    scale_shift: int = 0,
    budget: DirectionBudget | None = None,
) -> np.ndarray:
    """Mean of the n - trim_count points of smallest projection outlyingness.

    Ranking ties break by point index. The default probe budget is fixed so
    the estimator is deterministic without caller-supplied seeds.
    """
    t = int(trim_count)
    if t < 0 or X.n - t < X.k + 1:
        raise ParameterError(f"trim_count must satisfy 0 <= t <= n-k-1 = {X.n - X.k - 1}, got {t}")
    if t == 0:
        return X.points.mean(axis=0)
    evaluator = OutlyingnessEvaluator(X, scale_shift, _probe_budget(budget))
    scores = evaluator.batch(X.points)
    order = np.lexsort((np.arange(X.n), scores))
    keep = np.sort(order[: X.n - t])
    weights = np.zeros(X.n)
    weights[keep] = 1.0
    return weighted_mean(X, weights)


def projection_median(
    X: DataSet,
    scale_shift: int | None = None,
    budget: DirectionBudget | None = None,
    grid_refinements: int = 8,
) -> EstimateSet:
    """Maximizer of projection depth 1 / (1 + outlyingness) over a candidate set.

    Candidates are the data points, the coordinatewise-median midpoint, and
    a refining lattice around the incumbent: a box with initial side equal
    to the data diameter, halved ``grid_refinements`` times, recentered on
    the best point found so far. All candidates within a relative tie
    tolerance of 1e-9 of the best depth are returned.

    ``scale_shift`` defaults to k - 1: the order-statistic shift that keeps
    the per-direction scale positive as long as at most k points tie in
    projection.
    """
    k = X.k
    if grid_refinements < 0:
        raise ParameterError(f"grid_refinements must be nonnegative, got {grid_refinements}")
    shift = (k - 1) if scale_shift is None else int(scale_shift)
    evaluator = OutlyingnessEvaluator(X, shift, _probe_budget(budget))

    def depth_of(pts: np.ndarray) -> np.ndarray:
        out = evaluator.batch(pts)
        return 1.0 / (1.0 + out)

    candidates = [X.points, coordinatewise_median(X).canonical.reshape(1, -1)]
    cand = np.vstack(candidates)
    depths = depth_of(cand)
    best_idx = int(np.argmax(depths))
    best_depth = float(depths[best_idx])
    incumbent = cand[best_idx]

    all_pts = [cand]
    all_depths = [depths]
    width = max(X.diameter, 1e-12)
    offsets = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    # (5^k, k) lattice offsets, rows in itertools.product order
    steps = offsets[np.indices((offsets.size,) * k).reshape(k, -1).T]
    for level in range(int(grid_refinements)):
        half = width / 2.0 ** (level + 1)
        lattice = incumbent + half * steps
        d = depth_of(lattice)
        all_pts.append(lattice)
        all_depths.append(d)
        top = int(np.argmax(d))
        if float(d[top]) > best_depth:
            best_depth = float(d[top])
            incumbent = lattice[top]

    pts = np.vstack(all_pts)
    dep = np.concatenate(all_depths)
    if not np.any(dep > 0.0):
        raise DegenerateSampleError("projection depth vanished at every candidate")
    tie_tol = 1e-9 * best_depth
    winners = pts[dep >= best_depth - tie_tol]
    # Deterministic member order: first occurrence in candidate order.
    return EstimateSet(winners, incumbent)


# The parameters each estimator takes; make_estimator rejects any other.
_ESTIMATOR_PARAMETERS = {
    "cmedian": (),
    "mcd": ("coverage",),
    "tmean": ("trim_count", "scale_shift", "random_count"),
    "pm": ("scale_shift", "random_count", "grid_refinements"),
    "wmean": (),
}
ESTIMATOR_NAMES = tuple(_ESTIMATOR_PARAMETERS)


def make_estimator(name: str, seed: int | None = None, **params) -> LocationEstimator:
    """Resolve an estimator by registry name.

    Recognized names and their parameters:

    * ``cmedian`` -- coordinatewise median (translation equivariant).
    * ``mcd`` -- exhaustive MCD; ``coverage`` (default floor((n+k+1)/2)).
    * ``tmean`` -- outlyingness-trimmed mean; ``trim_count`` (default 1),
      ``scale_shift``, ``random_count``.
    * ``pm`` -- projection median; ``scale_shift`` (default k-1),
      ``random_count`` (default 2000), ``grid_refinements`` (default 8,
      nonnegative).
      Requires ``seed``.
    * ``wmean`` -- unweighted mean (all weights 1, affine equivariant).

    A parameter the named estimator does not take is a ParameterError.
    """
    name = str(name)
    if name not in _ESTIMATOR_PARAMETERS:
        raise EstimatorError(f"unknown estimator {name!r}; known: {', '.join(ESTIMATOR_NAMES)}")
    unknown = set(params) - set(_ESTIMATOR_PARAMETERS[name])
    if unknown:
        raise ParameterError(f"estimator {name!r} does not take parameters {sorted(unknown)}")

    if name == "cmedian":
        return LocationEstimator(
            "cmedian", "translation", coordinatewise_median, sweep=coordinatewise_median_sweep
        )

    if name == "wmean":
        def _wmean(X: DataSet) -> EstimateSet:
            return EstimateSet(weighted_mean(X, np.ones(X.n)))
        return LocationEstimator("wmean", "affine", _wmean)

    if name == "mcd":
        coverage = params.get("coverage")
        def _mcd(X: DataSet) -> EstimateSet:
            return mcd_exhaustive(X, coverage=coverage).estimates
        return LocationEstimator(
            "mcd", "affine", _mcd, sweep=partial(MCDShearSweep, coverage=coverage)
        )

    if name == "tmean":
        trim = int(params.get("trim_count", 1))
        shift = params.get("scale_shift", 0)
        count = int(params.get("random_count", _DEFAULT_PROBE_COUNT))
        probe_seed = _DEFAULT_PROBE_SEED if seed is None else int(seed)
        def _tmean(X: DataSet) -> EstimateSet:
            b = DirectionBudget(count, True, probe_seed)
            return EstimateSet(trimmed_mean(X, trim, int(shift), b))
        return LocationEstimator("tmean", "translation", _tmean)

    if name == "pm":
        if seed is None:
            raise ParameterError("estimator 'pm' requires a seed")
        shift = params.get("scale_shift")
        count = int(params.get("random_count", 2000))
        refinements = int(params.get("grid_refinements", 8))
        if refinements < 0:
            raise ParameterError(f"grid_refinements must be nonnegative, got {refinements}")
        def _pm(X: DataSet) -> EstimateSet:
            b = DirectionBudget(count, True, int(seed))
            s = (X.k - 1) if shift is None else int(shift)
            return projection_median(X, scale_shift=s, budget=b, grid_refinements=refinements)
        return LocationEstimator("pm", "translation", _pm)
