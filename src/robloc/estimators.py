"""Location estimators behind a single set-valued interface.

Estimators return an :class:`EstimateSet`: a finite nonempty set of
candidate locations plus a canonical representative. Set-valuedness is not
decoration; exhaustive subset estimators produce genuine ties on symmetric
data, and the breakdown machinery measures divergence over all members.
The estimates of a whole family of datasets travel as one
:class:`EstimateStack` of arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Callable

import numpy as np

from .dataset import DataSet
from .depth import DirectionBudget, OutlyingnessEvaluator
from .geometry import OrthonormalBasis, ReplacementFamily, subset_index
from .errors import (
    CombinatorialBudgetError,
    DegenerateSampleError,
    EstimatorError,
    OverflowParameterError,
    ParameterError,
    require_integer,
)
from .univariate import median_interval

__all__ = [
    "EstimateSet",
    "EstimateStack",
    "LocationEstimator",
    "coordinatewise_median",
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
# The dedup screens all pairs of all runs at once while that (G, P, P, k)
# difference array has at most this many entries.
_DEDUP_PAIR_BUDGET = 1 << 18

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
        keep = _kept_rows(m, np.zeros(1, dtype=np.intp), np.array([m.shape[0]]))
        m = m.copy() if keep is None else m[keep]
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


def _kept_rows(members: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray | None:
    """Keep mask of the dedup rule on each run of ``counts`` rows beginning
    at ``starts``, or None when every row is kept: a row is dropped exactly
    when it lies within 1e-12 of a row already kept in its run, so first
    occurrences survive.

    A run is walked kept row by kept row, each dropping every later row of
    its run within 1e-12 of it, so a long run of equal rows (tied MCD
    subsets sharing a mean) takes one step. While all pairs of all runs fit
    in one padded (G, P, P) closeness array, that array screens the runs,
    only runs with a close pair are walked, and the walk reads it; beyond
    that, each step computes its distances, in memory linear in the run.
    """
    G, P, k = counts.size, int(counts.max(initial=0)), members.shape[1]
    if P < 2:
        return None
    close, runs = None, range(G)
    with np.errstate(over="ignore"):  # a distance that overflows is not close
        if G * P * P * k <= _DEDUP_PAIR_BUDGET:
            if counts.min() == P:
                padded = members.reshape(G, P, k)
            else:
                run = np.repeat(np.arange(G), counts)
                padded = np.full((G, P, k), np.nan)  # NaN padding is never close
                padded[run, np.arange(members.shape[0]) - starts[run]] = members
            d = padded[:, :, None, :] - padded[:, None, :, :]
            close = np.sqrt((d * d).sum(axis=3)) <= _DEDUP_ATOL  # diagonal set
            runs = np.flatnonzero(close.sum(axis=(1, 2)) > counts).tolist()  # a close pair
            if not runs:
                return None
        keep = np.ones(members.shape[0], dtype=bool)
        for g in runs:
            start, count = int(starts[g]), int(counts[g])
            kept = keep[start:start + count]
            i = 0
            while i < count - 1:
                if close is None:
                    d = members[start + i + 1:start + count] - members[start + i]
                    kept[i + 1:] &= np.sqrt((d * d).sum(axis=1)) > _DEDUP_ATOL
                else:
                    kept[i + 1:] &= ~close[g, i, i + 1:count]
                later = np.flatnonzero(kept[i + 1:])
                i = i + 1 + int(later[0]) if later.size else count
    return None if keep.all() else keep


class EstimateStack:
    """The estimates of a family of datasets, one per dataset, as arrays.

    ``members`` (M, k) holds the members of every estimate in order, each
    estimate deduplicated as :class:`EstimateSet` does; estimate j owns the
    rows from ``starts[j]`` up to the next start, and ``canonical[j]`` is its
    canonical point, the first kept member when omitted. ``stack[j]`` builds
    estimate j as an EstimateSet on demand, so only the estimates that are
    reported pay for objects. Raises what EstimateSet raises: an empty or
    non-finite estimate is an EstimatorError.
    """

    __slots__ = ("members", "starts", "canonical")

    def __init__(self, members, starts, canonical=None):
        m = np.asarray(members, dtype=float)
        starts = np.asarray(starts, dtype=np.intp)
        ends = np.empty_like(starts)
        ends[:-1], ends[-1:] = starts[1:], m.shape[0]
        counts = ends - starts
        if starts.size and (starts[0] != 0 or counts.min() <= 0):
            raise EstimatorError("estimate set must be nonempty")
        if not np.isfinite(m).all():
            raise EstimatorError("estimate members must be finite")
        keep = _kept_rows(m, starts, counts)
        if keep is not None:
            m = m[keep]
            counts = np.add.reduceat(keep, starts)
            starts = np.cumsum(counts) - counts
        c = m[starts] if canonical is None else np.asarray(canonical, dtype=float)
        if c.shape != (starts.size, m.shape[1]):
            raise EstimatorError("canonical point dimension mismatch")
        self.members, self.starts, self.canonical = m, starts, c

    @classmethod
    def pack(cls, estimates) -> "EstimateStack":
        """The stack of a nonempty sequence of EstimateSets, one per
        dataset; they are validated and deduplicated already."""
        stack = cls.__new__(cls)
        sizes = [e.size for e in estimates]
        stack.members = np.concatenate([e.members for e in estimates])
        stack.starts = np.cumsum(sizes) - sizes
        stack.canonical = np.array([e.canonical for e in estimates])
        return stack

    def __len__(self) -> int:
        return self.starts.size

    def __getitem__(self, j: int) -> EstimateSet:
        j = range(len(self))[j]
        end = self.starts[j + 1] if j + 1 < len(self) else self.members.shape[0]
        # the stack's rows are validated and deduplicated already; building
        # the set through its constructor would repeat both
        rows = self.members[self.starts[j]:end]
        est = object.__new__(EstimateSet)
        for name, value in (("members", rows), ("canonical", self.canonical[j])):
            value = value.copy()
            value.setflags(write=False)
            object.__setattr__(est, name, value)
        return est

    def __iter__(self):
        return (self[j] for j in range(len(self)))


@dataclass(frozen=True)
class LocationEstimator:
    """Named estimator with a declared equivariance class.

    ``evaluate`` must be deterministic given the input dataset and whatever
    seed was frozen into it at construction time.

    The attacks evaluate the estimator on families of datasets that differ
    from a base dataset only in a few rows (a
    :class:`~robloc.geometry.ReplacementFamily`), and take each family's
    estimates as one :class:`EstimateStack` from :meth:`evaluator`. The
    optional hook ``families(X, basis)`` is called once per frame of the
    base data X, with the shear basis or, for the cluster attack, None. It
    returns None or a function from a family to its estimate stack, which
    may itself return None for a family it does not settle. What it returns
    must be exactly what ``evaluate`` returns on each dataset, the same
    members in the same order to the last bit, and its errors the ones
    ``evaluate`` raises: certificates built through either path are
    compared byte for byte.
    """

    name: str
    equivariance_class: str  # "translation" | "affine"
    evaluate: Callable[[DataSet], EstimateSet] = field(repr=False)
    families: Callable | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.equivariance_class not in ("translation", "affine"):
            raise ParameterError(f"unknown equivariance class {self.equivariance_class!r}")

    def __call__(self, X: DataSet) -> EstimateSet:
        return self.evaluate(X)

    def evaluator(self, X: DataSet, basis: OrthonormalBasis | None = None) -> Callable:
        """Per-frame evaluator: a family of X to its estimate stack, from the
        hook where it settles the family, else dataset by dataset, where an
        estimate that overflows is a ParameterError naming its parameter."""
        hook = None if self.families is None else self.families(X, basis)

        def evaluate(family: ReplacementFamily) -> EstimateStack:
            stack = None if hook is None else hook(family)
            if stack is not None:
                return stack
            estimates = []
            for value, points in zip(family.parameters, family.points):
                try:
                    estimates.append(self(DataSet(points)))
                except OverflowParameterError as exc:
                    kind = "radius" if family.basis is None else "slope"
                    raise ParameterError(f"{kind} {value!r} is too large: {exc}") from None
            return EstimateStack.pack(estimates)

        return evaluate


def coordinatewise_median(X: DataSet) -> EstimateSet:
    """Per-coordinate median interval, as a corner set plus midpoint.

    Members are the corners of the coordinatewise interval box in
    ``itertools.product`` order, one value per point interval (at most 2^k);
    the canonical representative is the box midpoint, which for even n need
    not be a member.
    """
    return _median_boxes(X.points[None])[0]


def _median_boxes(stack: np.ndarray) -> EstimateStack:
    """:func:`coordinatewise_median` of each dataset of a (G, n, k) stack,
    from one sort of the whole stack: what cmedian's hook returns."""
    k = stack.shape[2]
    low, high, mid = median_interval(stack, axis=1)  # (G, k)
    bits = (np.arange(2**k)[:, None] >> np.arange(k - 1, -1, -1)) & 1 == 1  # (2^k, k)
    corners = np.where(bits, high[:, None, :], low[:, None, :])  # (G, 2^k, k)
    # a coordinate with low == high keeps only the corners that take low
    keep = ~(bits & (low == high)[:, None, :]).any(axis=2)  # (G, 2^k)
    counts = keep.sum(axis=1)
    return EstimateStack(corners[keep], np.cumsum(counts) - counts, mid)


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
    h = default_mcd_coverage(n, k) if coverage is None else require_integer(coverage, "coverage", None)
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
    # a determinant that overflows is not finite, and the tie rule skips it
    with np.errstate(over="ignore"):
        dets = np.prod(svals, axis=1) ** 2 / float(h - 1) ** k
    return means, dets


def _mcd_winners(dets: np.ndarray, starts) -> tuple:
    """The MCD tie rule on each run of subsets that begins at ``starts``:
    every nonsingular subset within 1e-9 relative of the run's smallest
    determinant, in the order given, the first one canonical. Returns the
    winners' indices, each run's smallest determinant and where each run's
    winners begin among the winners. Runs must be nonempty. A run without a
    finite positive determinant is an OverflowParameterError when one of
    its determinants overflowed, else a DegenerateSampleError."""
    valid = np.isfinite(dets) & (dets > 0.0)
    best = np.minimum.reduceat(np.where(valid, dets, np.inf), starts)
    if not np.all(np.isfinite(best)):
        if np.logical_or.reduceat(np.isposinf(dets), starts)[~np.isfinite(best)].any():
            raise OverflowParameterError("every coverage subset's covariance determinant overflows")
        raise DegenerateSampleError("every coverage subset has singular covariance")
    run_best = np.repeat(best, np.diff(np.append(starts, dets.size)))
    winners = np.flatnonzero(valid & (dets <= run_best + _MCD_TIE_RTOL * run_best))
    return winners, best, np.searchsorted(winners, starts)


def _mcd_picks(subsets: np.ndarray, means: np.ndarray, dets: np.ndarray, starts) -> list:
    """One :class:`MCDResult` per run of subsets, by :func:`_mcd_winners`."""
    winners, best, first = _mcd_winners(dets, starts)
    return [
        MCDResult(EstimateSet(means[w]), float(b), tuple(map(tuple, subsets[w].tolist())))
        for w, b in zip(np.split(winners, first[1:]), best)
    ]


def mcd_exhaustive(X: DataSet, coverage: int | None = None) -> MCDResult:
    """Minimum covariance determinant location by full subset enumeration.

    Every coverage-subset is scored by the determinant of its sample
    covariance; the estimate set holds the means of all subsets tying for
    the minimum within a relative tolerance of 1e-9. Subsets with singular
    covariance score 0 and are excluded; if none is left, that is an error
    (see :func:`_mcd_winners`).

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
    """mcd's hook: exhaustive MCD over the shear families of one frame.

    Built once per shear frame (base data X and shear basis); called on a
    shear :class:`ReplacementFamily`, it returns the :class:`EstimateStack`
    of exactly the estimates :func:`mcd_exhaustive` returns on the datasets
    of the family, by the quadratic identity and candidate bound described
    there. When the bound is not finite at some slope, or a candidate is
    singular, it returns None and the family goes whole through the
    per-dataset loop of :meth:`LocationEstimator.evaluator`; ``fallbacks``
    counts the slopes of such families and ``candidates`` the subsets that
    went through the SVD.
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

    def bounds(self, family: ReplacementFamily) -> tuple:
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
        slopes = np.asarray(family.parameters, dtype=float)
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

    def _candidates(self, family: ReplacementFamily) -> tuple | None:
        """(subsets, means, determinants, run starts) of the candidates of
        every slope, one run per slope, or None when the family falls back."""
        # a bound that overflows is not finite, and the family falls back whole
        with np.errstate(over="ignore", invalid="ignore"):
            low, high = self.bounds(family)
        if not np.isfinite(high).all():
            return None
        cutoff = high.min(axis=0) * (1.0 + _MCD_TIE_RTOL) * (1.0 + 16 * _EPS)
        gi, si = np.nonzero((low <= cutoff).T)
        self.candidates += int(gi.size)
        means, dets = _subset_objectives(family.points[gi[:, None], self.subsets[si]])
        if not np.all(np.isfinite(dets) & (dets > 0.0)):
            return None
        # every run is nonempty: the smallest upper bound is a candidate
        return self.subsets[si], means, dets, np.searchsorted(gi, np.arange(len(family.parameters)))

    def __call__(self, family: ReplacementFamily) -> EstimateStack | None:
        found = self._candidates(family)
        if found is None:
            self.fallbacks += len(family.parameters)
            return None
        _, means, dets, starts = found
        winners, _, first = _mcd_winners(dets, starts)
        return EstimateStack(means[winners], first)


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
    t = require_integer(trim_count, "trim_count", None)
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
    refinements = require_integer(grid_refinements, "grid_refinements")
    shift = (k - 1) if scale_shift is None else scale_shift
    evaluator = OutlyingnessEvaluator(X, shift, _probe_budget(budget))

    def depth_of(pts: np.ndarray) -> np.ndarray:
        out = evaluator.batch(pts)
        return 1.0 / (1.0 + out)

    cand = np.vstack([X.points, median_interval(X.points)[2]])
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
    for level in range(refinements):
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

    A parameter the named estimator does not take, or one that is not an
    integer (a float is refused even when whole), is a ParameterError.
    """
    name = str(name)
    if name not in _ESTIMATOR_PARAMETERS:
        raise EstimatorError(f"unknown estimator {name!r}; known: {', '.join(ESTIMATOR_NAMES)}")
    unknown = set(params) - set(_ESTIMATOR_PARAMETERS[name])
    if unknown:
        raise ParameterError(f"estimator {name!r} does not take parameters {sorted(unknown)}")
    if seed is not None:
        require_integer(seed, "seed")
    for key, value in params.items():
        if value is not None:
            require_integer(value, key, None)

    if name == "cmedian":
        return LocationEstimator(
            "cmedian", "translation", coordinatewise_median,
            families=lambda X, basis: lambda family: _median_boxes(family.points),
        )

    if name == "wmean":
        def _wmean(X: DataSet) -> EstimateSet:
            return EstimateSet(weighted_mean(X, np.ones(X.n)))
        return LocationEstimator("wmean", "affine", _wmean)

    if name == "mcd":
        coverage = params.get("coverage")
        def _mcd(X: DataSet) -> EstimateSet:
            return mcd_exhaustive(X, coverage=coverage).estimates
        def _mcd_families(X: DataSet, basis: OrthonormalBasis | None):
            return None if basis is None else MCDShearSweep(X, basis, coverage)
        return LocationEstimator("mcd", "affine", _mcd, families=_mcd_families)

    if name == "tmean":
        trim = params.get("trim_count", 1)
        shift = params.get("scale_shift", 0)
        count = params.get("random_count", _DEFAULT_PROBE_COUNT)
        probe_seed = _DEFAULT_PROBE_SEED if seed is None else seed
        def _tmean(X: DataSet) -> EstimateSet:
            b = DirectionBudget(count, True, probe_seed)
            return EstimateSet(trimmed_mean(X, trim, shift, b))
        return LocationEstimator("tmean", "translation", _tmean)

    if name == "pm":
        if seed is None:
            raise ParameterError("estimator 'pm' requires a seed")
        shift = params.get("scale_shift")
        count = params.get("random_count", 2000)
        refinements = require_integer(params.get("grid_refinements", 8), "grid_refinements")
        def _pm(X: DataSet) -> EstimateSet:
            b = DirectionBudget(count, True, seed)
            s = (X.k - 1) if shift is None else shift
            return projection_median(X, scale_shift=s, budget=b, grid_refinements=refinements)
        return LocationEstimator("pm", "translation", _pm)
