"""Location estimators behind a single set-valued interface.

Estimators return an :class:`EstimateSet`: a finite nonempty set of
candidate locations plus a canonical representative. Set-valuedness is not
decoration; exhaustive subset estimators produce genuine ties on symmetric
data, and the breakdown machinery measures divergence over all members.
The estimates of a whole batch of datasets travel as one
:class:`EstimateStack` of arrays.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cache, lru_cache, partial
from itertools import combinations
from math import comb, factorial
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

# Exhaustive MCD refuses to enumerate more subsets than this.
_MCD_SUBSET_BUDGET = 10_000_000
# The MCD kernel gathers the subsets of several datasets at once while they
# hold at most this many coordinates (8 MiB), one dataset's at least.
_MCD_STACK_FLOATS = 1 << 20
# MCD subsets within this relative distance of the best determinant tie.
_MCD_TIE_RTOL = 1e-9
# Absolute slack of the MCD bracket's Gram determinant: underflow in the
# Gram, its determinant and the SVD product stays far below it.
_MCD_DET_FLOOR = 1e-280

_EPS = float(np.finfo(float).eps)

# Fixed fallback budget for estimators whose callers did not supply one:
# 2000 random probes plus the data-derived hyperplane normals. The seed is
# a package constant so the fallback stays deterministic.
_DEFAULT_PROBE_SEED = 1729
_DEFAULT_PROBE_COUNT = 2000


@dataclass(frozen=True)
class EstimateSet:
    """Finite nonempty set of location estimates with a canonical member.

    Built as an :class:`EstimateStack` of one: members deduplicated within
    1e-12, first occurrences kept. ``canonical`` is the conventional point
    representative, the first kept member when omitted (for interval-valued
    estimators it may be an interval midpoint that is not itself a member).
    """

    members: np.ndarray = field(repr=False)
    canonical: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        m = np.asarray(self.members, dtype=float)
        if m.ndim == 1:
            m = m.reshape(1, -1)
        c = None if self.canonical is None else np.reshape(self.canonical, (1, -1))
        stack = EstimateStack(m, np.zeros(1, dtype=np.intp), c)
        for name, value in (("members", stack.members), ("canonical", stack.canonical[0])):
            value = value.copy()
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def size(self) -> int:
        return self.members.shape[0]

    @property
    def k(self) -> int:
        return self.members.shape[1]


@lru_cache(maxsize=None)
def _dedup_direction(k: int) -> tuple:
    """The dedup screen's direction, sqrt(2 .. k+1) scaled to 1-norm 1/8
    (read-only), and the two terms of its slack, base + scale * max|m|."""
    v = np.sqrt(np.arange(2.0, k + 2.0))
    v /= 8 * v.sum()
    v.setflags(write=False)
    gamma = k * _EPS / 2 / (1 - k * _EPS / 2)
    return v, (1.0 + 1e-6) * float(np.sqrt(v @ v)) * _DEDUP_ATOL, (1.0 + 1e-6) * 2 * gamma * float(v.sum())


def _kept_rows(members: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray | None:
    """Keep mask of the dedup rule on each run of ``counts`` rows beginning
    at ``starts``, or None when every row is kept: a row is dropped exactly
    when it lies within 1e-12 of a row already kept in its run, so first
    occurrences survive.

    A screen flags each run whose sorted projections onto v
    (:func:`_dedup_direction`; the +inf padding never flags) have a
    neighbour gap of at most (1 + 1e-6) (|v|_2 1e-12 + 2 gamma_k |v|_1 M),
    M the stack's largest coordinate, gamma_k = k u / (1 - k u), u = eps / 2.
    Rows the walk calls close lie within 1e-12 (1 + (k + 2) eps), each
    rounded projection within gamma_k |v|_1 M of the exact one in any
    summation order, and a gap between the two rounds by u; for every k
    below 4e9 the factor 1 + 1e-6 holds these terms and the slack's own
    rounding, and underflow stays far below 1e-6 of the first term. So no
    close pair escapes, and a slack too large only costs a walk. As
    |v|_1 = 1/8, no projection or gap overflows. A walk then settles each
    flagged run kept row by kept row, each dropping every later row of its
    run within 1e-12 of it (a distance that overflows is not close), in
    memory linear in the run: a long run of equal rows takes one step.
    """
    G = counts.size
    if members.shape[0] == G:  # every run holds one row
        return None
    P = int(counts.max())
    v, base, scale = _dedup_direction(members.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):
        proj = members @ v
        if counts.min() == P:
            order = np.sort(proj.reshape(G, P), axis=1)
        else:
            run = np.repeat(np.arange(G), counts)
            order = np.full((G, P), np.inf)
            order[run, np.arange(members.shape[0]) - starts[run]] = proj
            order.sort(axis=1)
        slack = base + scale * float(np.abs(members).max(initial=0.0))
        runs = np.flatnonzero((order[:, 1:] - order[:, :-1] <= slack).any(axis=1))
        if not runs.size:
            return None
        keep = np.ones(members.shape[0], dtype=bool)
        for g in runs.tolist():
            start, count = int(starts[g]), int(counts[g])
            kept = keep[start:start + count]
            i = 0
            while i < count - 1:
                d = members[start + i + 1:start + count] - members[start + i]
                kept[i + 1:] &= np.sqrt((d * d).sum(axis=1)) > _DEDUP_ATOL
                later = np.flatnonzero(kept[i + 1:])
                i = i + 1 + int(later[0]) if later.size else count
    return None if keep.all() else keep


class EstimateStack:
    """The estimates of a batch of datasets, one per dataset, as arrays;
    the only code that validates and deduplicates estimates.

    ``members`` (M, k) holds the members of every estimate in order, each
    estimate deduplicated by :func:`_kept_rows`; estimate j owns the rows
    from ``starts[j]`` up to the next start, and ``canonical[j]`` is its
    canonical point, the first kept member when omitted. An empty or
    non-finite estimate, or a canonical point of the wrong dimension, is an
    EstimatorError. ``stack[j]`` builds estimate j as an EstimateSet on
    demand, so only the estimates that are reported pay for objects, and
    ``stack[lo:hi]`` is the stack of estimates lo..hi as views, not checked
    again.
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
        c = m.take(starts, axis=0) if canonical is None else np.asarray(canonical, dtype=float)
        if c.shape != (starts.size, m.shape[1]):
            raise EstimatorError("canonical point dimension mismatch")
        self.members, self.starts, self.canonical = m, starts, c

    def __len__(self) -> int:
        return self.starts.size

    def _end(self, j: int) -> int:
        return self.starts[j] if j < len(self) else self.members.shape[0]

    def __getitem__(self, j):
        if isinstance(j, slice):
            lo, hi, _ = j.indices(len(self))
            sub = object.__new__(EstimateStack)
            first = self._end(lo)
            sub.members = self.members[first:self._end(hi)]
            sub.starts, sub.canonical = self.starts[lo:hi] - first, self.canonical[lo:hi]
            return sub
        j = range(len(self))[j]
        end = self._end(j + 1)
        # read-only copies of rows the constructor checked already
        est = object.__new__(EstimateSet)
        for name, value in (("members", self.members[self.starts[j]:end]), ("canonical", self.canonical[j])):
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
    :class:`~robloc.geometry.ReplacementFamily`, which carries its shear
    basis, or None for a cluster), and take the estimates of a batch of
    families as one :class:`EstimateStack` from :meth:`evaluator`, built
    once per attack context. The optional hook ``families(X)`` returns a
    function ``f(points, families)``: ``families`` is a sequence of
    families of the base data X, of any frames and of both attacks, and
    ``points`` their datasets concatenated in family and grid order, a
    fresh (sum G, n, k) array that ``f`` may sort in place. It returns one
    estimate stack, one estimate per dataset of ``points``. Each estimate
    must be exactly what ``evaluate`` returns on its dataset, the same
    members in the same order to the last bit, and a call's errors the
    ones the per-dataset loop of :meth:`evaluator` raises, for the first
    failing dataset in family and grid order: certificates built through
    either path are compared byte for byte.
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

    def evaluator(self, X: DataSet) -> Callable:
        """Families of X to the one estimate stack of their datasets, in
        family and grid order: the hook's, else dataset by dataset, an
        estimate that overflows naming its slope or radius."""
        hook = None if self.families is None else self.families(X)

        def evaluate(families) -> EstimateStack:
            if hook is not None:
                return hook(np.concatenate([family.points for family in families]), families)
            estimates = []
            for family in families:
                for j, points in enumerate(family.points):
                    try:
                        estimates.append(self(DataSet(points)))
                    except OverflowParameterError as exc:
                        raise family.too_large(j, exc) from None
            sizes = [e.size for e in estimates]
            return EstimateStack(np.concatenate([e.members for e in estimates]), np.cumsum(sizes) - sizes,
                                 np.array([e.canonical for e in estimates]))

        return evaluate


def coordinatewise_median(X: DataSet) -> EstimateSet:
    """Per-coordinate median interval, as a corner set plus midpoint.

    Members are the corners of the coordinatewise interval box in
    ``itertools.product`` order, one value per point interval (at most 2^k);
    the canonical representative is the box midpoint, which for even n need
    not be a member.
    """
    return _median_boxes(X.points[None])[0]


def _median_boxes(stack: np.ndarray, overwrite: bool = False) -> EstimateStack:
    """:func:`coordinatewise_median` of each dataset of a (G, n, k) stack,
    from one sort of the whole stack (in place, with ``overwrite``):
    cmedian's hook, on the points of a batch."""
    k = stack.shape[2]
    low, high, mid = median_interval(stack, axis=1, overwrite=overwrite)  # (G, k)
    bits = (np.arange(2**k)[:, None] >> np.arange(k - 1, -1, -1)) & 1 == 1  # (2^k, k)
    # a coordinate with low == high keeps only the corners that take low
    keep = ~(bits & (low == high)[:, None, :]).any(axis=2)  # (G, 2^k)
    box, corner = np.nonzero(keep)
    counts = keep.sum(axis=1)
    return EstimateStack(np.where(bits[corner], high[box], low[box]), np.cumsum(counts) - counts, mid)


def weighted_mean(X: DataSet, weights) -> np.ndarray:
    """Weighted average of the data points, weights in [0, 1]."""
    w = np.asarray(weights, dtype=float).reshape(-1)
    if w.size != X.n:
        raise ParameterError(f"need {X.n} weights, got {w.size}")
    if not np.all((w >= 0) & (w <= 1)):  # NaN fails both comparisons
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
    """Means and covariance determinants of stacked (S, h, k) subsets. A
    subset whose mean overflows scores +inf, as one whose determinant
    overflows does."""
    h, k = groups.shape[1:]
    with np.errstate(over="ignore"):
        means = groups.mean(axis=1)  # (S, k)
        centered = groups - means[:, None, :]
    far = ~np.isfinite(means).all(axis=1)
    centered[far] = 0.0
    svals = np.linalg.svd(centered, compute_uv=False)  # (S, k), h >= k+1 > k
    # a determinant that overflows is not finite, and the tie rule skips it
    with np.errstate(over="ignore"):
        dets = np.prod(svals, axis=1) ** 2 / float(h - 1) ** k
    dets[far] = np.inf
    return means, dets


def _cofactor_dets(M: np.ndarray) -> np.ndarray:
    """Determinants of a (k, k, S) stack of S matrices by cofactor
    expansion along each row in turn, the minors of the last rows shared
    between the column sets that need them: k 2^(k-1) products."""
    k = M.shape[0]
    minors = {(): 1.0}
    for row in range(k - 1, -1, -1):
        minors = {
            cols: sum((-1) ** p * M[row, c] * minors[cols[:p] + cols[p + 1:]] for p, c in enumerate(cols))
            for cols in combinations(range(k), k - row)
        }
    return minors[tuple(range(k))]


def _mcd_bounds(points: np.ndarray, subsets: np.ndarray) -> tuple:
    """(G, S) lower and upper bounds on the objective prod(sigma_i)^2 /
    (h - 1)^k that :func:`_subset_objectives` computes for each subset
    ``subsets`` (S, h) of each dataset of a (G, n, k) stack. One pass over
    the h columns of the subset index sums z, z z^T, max_a z_a^2 and
    max_a x_a^2 over every subset, with z = x - (coordinatewise median),
    and the determinant of the centered Gram Y^T Y follows by cofactor
    expansion. The bracket adds the Gram's cancellation, of order eps h^2
    max|z|^2 (the median lies within the range of every subset of more
    than n/2 points, so z is of the subset's own size), and the rounding
    of the expansion; then, by Weyl's inequality with e_j(sigma) bounded
    from the trace by Maclaurin's, the SVD path's centering in the
    original coordinates, of order eps h max|x|, and its backward error.
    Every magnitude is the subset's own, so a far point loosens only the
    subsets that hold it. A bound that overflows is +inf or NaN."""
    k, h = points.shape[2], subsets.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        z = (points - median_interval(points, axis=1)[2][:, None]).transpose(2, 0, 1)  # (k, G, n)
        features = np.concatenate([z, (z[:, None] * z[None, :]).reshape(k * k, *z.shape[1:]),
                                   [(z * z).max(axis=0), (points * points).max(axis=2)]])  # (k + k^2 + 2, G, n)
        sums = features[:, :, subsets[:, 0]]
        for col in subsets.T[1:]:
            sums += features[:, :, col]
        gram = sums[k:k + k * k].reshape(k, k, *sums.shape[1:])
        gram -= sums[:k, None] * sums[None, :k] / h
        det = _cofactor_dets(gram)
        size_z, size_x = sums[-2], sums[-1]  # sum_i |z_i|_max^2, sum_i |x_i|_max^2
        # Y is the subset of z centered exactly. Gram cancellation: every
        # entry of gram is within (3h + 3) eps size_z of Y^T Y's, and phi
        # bounds the 2-norm of that error
        phi = 2 * k * (3 * h + 3) * _EPS * size_z
        diag = gram[np.arange(k), np.arange(k)]
        trace = np.maximum(diag.sum(axis=0) + k * phi, 0.0)  # >= |Y|_F^2
        # the eigenvalues move by phi at most, so det(Y^T Y) by
        # sum_j phi^j e_{k-j}(lambda), e_j(lambda) <= C(k, j) (trace / k)^j;
        # the expansion rounds by k(k+1)/2 eps per(|gram|) at most, and
        # |gram_ab| <= sqrt(d_a d_b) with d = diag + 2 phi
        per = factorial(k) * np.prod(np.maximum(diag + 2 * phi, 0.0), axis=0)
        spread = sum(comb(k, j) * phi**j * (trace / k) ** (k - j) for j in range(1, k + 1))
        err = (1.0 + 1e-6) * (spread + k * (k + 1) * _EPS * per) + _MCD_DET_FLOOR
        vol_low = np.sqrt(np.maximum(det - err, 0.0)) * (1.0 - 4 * _EPS)
        vol_high = np.sqrt(det + err) * (1.0 + 4 * _EPS)
        # the SVD factors x centered by its rounded mean, z differs from x -
        # median by its rounding, and the SVD adds its backward error: eta
        # bounds all three in the 2-norm
        coords = np.sqrt(k) * _EPS * ((h + 2) * np.sqrt(size_x) + 2 * np.sqrt(size_z))
        top = (1.0 + 1e-6) * (np.sqrt(trace) + coords)
        eta = 2.0 * coords + 4 * h * k * _EPS * top
        # Weyl, with Maclaurin: e_j(sigma) <= C(k, j) (|Y|_F^2 / k)^(j/2)
        delta = (1.0 + 1e-6) * sum(comb(k, j) * eta**j * (trace / k) ** ((k - j) / 2) for j in range(1, k + 1))
        scale = float(h - 1) ** k
        low = np.maximum(vol_low - delta, 0.0) ** 2 / scale * (1.0 - 8 * (k + 1) * _EPS)
        high = (vol_high + delta) ** 2 / scale * (1.0 + 8 * (k + 1) * _EPS)
    return low, high


def _mcd_winners(dets: np.ndarray, starts) -> tuple:
    """The MCD tie rule on each run of subsets that begins at ``starts``:
    every nonsingular subset within 1e-9 relative of the run's smallest
    determinant, in the order given, the first one canonical. Returns the
    winners' indices, each run's smallest determinant and where each run's
    winners begin among the winners. Runs must be nonempty. The first run
    without a finite positive determinant is a DegenerateSampleError, or an
    OverflowParameterError whose ``run`` it is if a determinant overflowed."""
    valid = np.isfinite(dets) & (dets > 0.0)
    best = np.minimum.reduceat(np.where(valid, dets, np.inf), starts)
    if not np.all(np.isfinite(best)):
        run = int(np.argmin(np.isfinite(best)))
        if not np.logical_or.reduceat(np.isposinf(dets), starts)[run]:
            raise DegenerateSampleError("every coverage subset has singular covariance")
        raise OverflowParameterError("every coverage subset's covariance determinant overflows", run)
    run_best = np.repeat(best, np.diff(np.append(starts, dets.size)))
    winners = np.flatnonzero(valid & (dets <= run_best + _MCD_TIE_RTOL * run_best))
    return winners, best, np.searchsorted(winners, starts)


def _mcd_stack(points: np.ndarray, subsets: np.ndarray, bounds: Callable) -> tuple:
    """:func:`mcd_exhaustive` on every dataset of a (G, n, k) stack with
    coverage subsets ``subsets`` (S, h): the one MCD kernel.

    The stack is settled in chunks of as many datasets as fit
    _MCD_STACK_FLOATS coordinates, one at least. ``bounds(lo, hi)``
    brackets the SVD objective of every subset of datasets lo..hi, as
    (hi - lo, S) ``low`` and ``high``, each dataset's on any one scale
    (:func:`_mcd_bounds`, or a shear frame's bracket). The candidates of a
    dataset are its subsets whose lower bound comes within the 1e-9 tie
    tolerance of its smallest upper bound, so every subset that can win or
    tie is one. The chunk's
    candidates go through one batched SVD of their real coordinates and
    the tie rule picks each dataset's winners among them in enumeration
    order: the bracket only screens, and every determinant the rule sees
    is the SVD's. Where a bound is not finite or a candidate is singular,
    every subset of the chunk is scored, so results and errors are always
    those of scoring every subset. LAPACK factors each subset alone, so
    each dataset's bits are its own.

    Returns the winners' subset rows and means, where each dataset's
    winners begin, each dataset's best objective, the subsets the bracket
    sent to the SVD and the datasets of chunks that scored every subset.
    An OverflowParameterError's ``run`` is its dataset's index in the stack.
    """
    G, S = len(points), len(subsets)
    chunk = max(1, _MCD_STACK_FLOATS // (subsets.size * points.shape[2]))
    rows, means, starts, best = [], [], [], []
    candidates = fallbacks = 0
    for lo in range(0, G, chunk):
        hi = min(lo + chunk, G)
        low, high = bounds(lo, hi)
        settled = False
        if np.isfinite(high).all():
            cutoff = high.min(axis=1) * (1.0 + _MCD_TIE_RTOL) * (1.0 + 16 * _EPS)
            gi, si = np.nonzero(low <= cutoff[:, None])
            found, dets = _subset_objectives(points[lo + gi[:, None], subsets[si]])
            settled = np.all(np.isfinite(dets) & (dets > 0.0))
        if settled:
            candidates += gi.size
        else:
            fallbacks += hi - lo
            gi, si = np.divmod(np.arange((hi - lo) * S), S)
            found, dets = _subset_objectives(points[lo + gi[:, None], subsets[si]])
        try:
            # every run is nonempty: the smallest upper bound is a candidate
            winners, chunk_best, first = _mcd_winners(dets, np.searchsorted(gi, np.arange(hi - lo)))
        except OverflowParameterError as exc:
            raise OverflowParameterError(str(exc), lo + exc.run) from None
        starts.append(first + sum(map(len, means)))
        rows.append(subsets[si[winners]])
        means.append(found[winners])
        best.append(chunk_best)
    return *map(np.concatenate, (rows, means, starts, best)), candidates, fallbacks


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

    This is :func:`_mcd_stack` on a stack of one, bracketed by
    :func:`_mcd_bounds`: on general-position data the SVD usually scores
    one subset. Enumeration order is deterministic (lexicographic index
    tuples), which makes tie reporting and the canonical member
    reproducible.
    """
    h = _mcd_coverage(X.n, X.k, coverage)
    subsets, stack = subset_index(X.n, h), X.points[None]
    rows, means, _, (best,), *_ = _mcd_stack(stack, subsets, lambda lo, hi: _mcd_bounds(stack, subsets))
    return MCDResult(EstimateSet(means), float(best), tuple(map(tuple, rows.tolist())))


class MCDShearSweep:
    """mcd's bracket on the shear families of one frame (base data X and
    shear basis), built once per basis by mcd's hook, which caches it.

    **Along a shear** the objective is quadratic in the slope. A shear of
    slope gamma moves replaced row i by gamma * c_i * e2, with c_i = e1 .
    (x_i - origin), so in the shear basis only the e2 column of a centered
    subset Y moves: y2 + gamma * w, w the centered c. With O the other
    columns, g_O = det(O^T O) and r, s the parts of y2, w orthogonal to
    span(O),

        det(Y^T Y) = g_O |r + gamma s|^2 = g_O (rr + 2 gamma rs + gamma^2 ss),

    rr = |r|^2, rs = r . s, ss = |s|^2. O, r and rr belong to the frame;
    :meth:`terms` computes a family's slope-free terms once, and
    :meth:`bracket` evaluates the quadratic at each slope.

    **Its rounding.** Let R, P, T be the exact |r|^2, r . s, |s|^2 of the
    computed r, s, u = eps / 2 and g_j = j u / (1 - j u). In any summation
    order |rr - R| <= g_h R, |ss - T| <= g_h T and |rs - P| <= g_h |r| |s|,
    and 2 |gamma| |r| |s| <= R + gamma^2 T. Horner's q = (gamma ss + 2 rs)
    gamma + rr rounds each term at most four times. So |q - |r + gamma
    s|^2| <= (g_4 + 2 g_h / (1 - g_h)) Q < (h + 3) eps Q, with Q = rr + 2
    |gamma| |rs| + gamma^2 ss. The bracket widens q by 4 (h + 4) eps Q,
    which also covers the rounding of Q, plus (h + 4) (1 + |gamma|)^2
    subnormals for underflow, and takes |r + gamma s| between the square
    roots of q minus and plus that. It is loose only near the root -rs /
    ss, where the expansion cancels.

    **Bracket.** What must be reproduced is the SVD determinant of the
    floating-point coordinates, which at large slopes differs from the
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
    values and Maclaurin's inequality. eta and the top singular value are
    linear in |gamma|, so a family stores both of their coefficients.
    """

    def __init__(self, X: DataSet, basis: OrthonormalBasis, coverage: int | None = None):
        n, k = X.n, X.k
        self.X = X
        self.h = h = _mcd_coverage(n, k, coverage)
        self.subsets = subset_index(n, h)
        pts = X.points
        groups = pts[self.subsets]
        shear = (groups - groups.mean(axis=1, keepdims=True)) @ basis.vectors  # (S, h, k)
        others = np.delete(shear, 1, axis=2)
        self._q, R = np.linalg.qr(others)
        vol_o = np.abs(np.prod(np.diagonal(R, axis1=1, axis2=2), axis=1))
        self._r = self._orthogonal_part(shear[:, :, 1])
        self._rr = np.einsum("sh,sh->s", self._r, self._r)
        # Maclaurin: e_j of O's k-1 singular values <= C(k-1, j) (|O|_F^2 / (k-1))^(j/2).
        mean_sq = (others * others).sum(axis=(1, 2)) / (k - 1)
        self._sym_o = [comb(k - 1, j) * mean_sq ** (j / 2) for j in range(k)]
        origin = basis.origin_shift
        self._offset = (pts - origin) @ basis.e(1)
        self._size = np.abs(pts).sum(axis=1) + np.abs(origin).sum()
        rho = k * float(np.abs(basis.vectors.T @ basis.vectors - np.eye(k)).max())
        tau = (k + 2) * rho + 16 * k * _EPS
        self._vol_low, self._vol_high = vol_o * (1.0 - tau), vol_o * (1.0 + tau)
        # eta = 2 coords + C top, coords = sqrt(hk) eps (2 (k+2) (1 + |gamma|)
        # size + (h+2) (mag + |gamma| moved)), top = (1 + 1e-6) (|Y_0|_F + |gamma| |w|)
        self._unit = 2 * np.sqrt(h * k) * _EPS
        self._c = 4 * h * k * _EPS + np.sqrt(k) * rho
        self._top = (1.0 + 1e-6) * np.sqrt((shear * shear).sum(axis=(1, 2)))
        mag = np.abs(pts).max(axis=1)[self.subsets].max(axis=1)
        self._eta = self._unit * (h + 2) * mag + self._c * self._top

    def _orthogonal_part(self, v: np.ndarray) -> np.ndarray:
        """Component of each subset's column v (S, h) orthogonal to span(O)."""
        q = self._q
        return v - (q @ (q.transpose(0, 2, 1) @ v[:, :, None]))[:, :, 0]

    def terms(self, family: ReplacementFamily) -> tuple:
        """The slope-free (S,) terms of one family of this frame: 2 rs, ss,
        the three coefficients of the quadratic's widening, eta's two and
        the top singular value's coefficient of |gamma|."""
        h, n = self.h, self.X.n
        replaced = list(family.replaced)
        c = np.zeros(n)
        c[replaced] = self._offset[replaced]
        cs = c[self.subsets]
        w = cs - cs.sum(axis=1, keepdims=True) / h
        s = self._orthogonal_part(w)
        rs2 = 2 * np.einsum("sh,sh->s", self._r, s)
        ss = np.einsum("sh,sh->s", s, s)
        size = np.zeros(n)
        size[replaced] = self._size[replaced]
        spread = self._unit * 2 * (self.X.k + 2) * size[self.subsets].max(axis=1)
        top = (1.0 + 1e-6) * np.sqrt(np.einsum("sh,sh->s", w, w))
        moved = self._unit * (h + 2) * np.abs(cs).max(axis=1) + self._c * top
        widen, floor = 4 * (h + 4) * _EPS, (h + 4) * float(np.finfo(float).smallest_subnormal)
        return (rs2, ss, widen * self._rr + floor, widen * np.abs(rs2) + 2 * floor, widen * ss + floor,
                self._eta + spread, moved + spread, top)

    def bracket(self, terms: tuple, slopes) -> tuple:
        """(G, S) lower and upper bounds on prod(sigma_i)^2, the SVD
        objective of every subset at every slope of ``slopes`` (a stretch
        of the family whose :meth:`terms` these are), before its division
        by (h - 1)^k. A bound that overflows is +inf or NaN."""
        rs2, ss, widen0, widen1, widen2, eta0, eta1, top1 = terms
        k = self.X.k
        gamma = np.asarray(slopes, dtype=float)[:, None]
        g = np.abs(gamma)
        with np.errstate(over="ignore", invalid="ignore"):
            q = gamma * ss
            q += rs2
            q *= gamma
            q += self._rr
            widen = g * widen2
            widen += widen1
            widen *= g
            widen += widen0
            vol_low = self._vol_low * np.sqrt(np.maximum(q - widen, 0.0))
            vol_high = self._vol_high * np.sqrt(q + widen)
            eta = eta0 + g * eta1
            top = self._top + g * top1
            # sum_j eta^j sym_{k-j}, sym_0 = 1 and sym_i = top e_{i-1}(O) + e_i(O), by Horner
            delta = eta
            for j in range(1, k):
                delta = (delta + top * self._sym_o[j - 1] + self._sym_o[j]) * eta
            delta *= 1.0 + 1e-6
            low = np.maximum(vol_low - delta, 0.0) ** 2 * (1.0 - 8 * _EPS)
            high = (vol_high + delta) ** 2 * (1.0 + 8 * _EPS)
        return low, high


def _mcd_families(subsets: np.ndarray, sweep: Callable, points: np.ndarray, families) -> EstimateStack:
    """mcd's hook: the one :class:`EstimateStack` of the families' datasets
    ``points``, exactly what :func:`mcd_exhaustive` returns on each, from
    one :func:`_mcd_stack` call. ``bounds`` maps each chunk back to its
    families: a stretch of a shear family goes through its frame's bracket
    (``sweep(basis)``), from terms computed once per family, and a run of
    consecutive cluster datasets through one :func:`_mcd_bounds` call. An
    overflow is its family's too-large slope or radius."""
    ends = np.cumsum([len(family.parameters) for family in families]).tolist()
    starts = [0, *ends[:-1]]
    last = [None, None]  # the shear family whose terms were computed last, and its terms

    def bounds(lo, hi):
        out = np.empty((2, hi - lo, len(subsets)))
        a, f = lo, bisect_right(ends, lo)
        while a < hi:
            family, b = families[f], min(hi, ends[f])
            if family.basis is None:
                while b < hi and families[f + 1].basis is None:
                    f += 1
                    b = min(hi, ends[f])
                out[:, a - lo:b - lo] = _mcd_bounds(points[a:b], subsets)
            else:
                frame = sweep(family.basis)
                if last[0] is not family:
                    last[:] = family, frame.terms(family)
                out[:, a - lo:b - lo] = frame.bracket(last[1], family.parameters[a - starts[f]:b - starts[f]])
            a, f = b, f + 1
        return out

    try:
        _, means, first, *_ = _mcd_stack(points, subsets, bounds)
    except OverflowParameterError as exc:
        f = bisect_right(ends, exc.run)
        raise families[f].too_large(exc.run - starts[f], exc) from None
    return EstimateStack(means, first)


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
            families=lambda X: lambda points, families: _median_boxes(points, overwrite=True),
        )

    if name == "wmean":
        def _wmean(X: DataSet) -> EstimateSet:
            return EstimateSet(weighted_mean(X, np.ones(X.n)))
        return LocationEstimator("wmean", "affine", _wmean)

    if name == "mcd":
        coverage = params.get("coverage")
        def _mcd(X: DataSet) -> EstimateSet:
            return mcd_exhaustive(X, coverage=coverage).estimates
        def _mcd_hook(X: DataSet):
            subsets = subset_index(X.n, _mcd_coverage(X.n, X.k, coverage))
            @cache
            def sweep(basis):
                return MCDShearSweep(X, basis, coverage)
            return partial(_mcd_families, subsets, sweep)
        return LocationEstimator("mcd", "affine", _mcd, families=_mcd_hook)

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
        count = params.get("random_count", _DEFAULT_PROBE_COUNT)
        refinements = require_integer(params.get("grid_refinements", 8), "grid_refinements")
        def _pm(X: DataSet) -> EstimateSet:
            b = DirectionBudget(count, True, seed)
            s = (X.k - 1) if shift is None else shift
            return projection_median(X, scale_shift=s, budget=b, grid_refinements=refinements)
        return LocationEstimator("pm", "translation", _pm)
