"""Adversarial replacement-contamination engine and breakdown bound tables.

The shear attack turns an existence proof into a search procedure. Fix a
hull facet, keep h of its points (they pin a hyperplane L), and shear the
rest parallel to L with slope gamma. Because the shear fixes L pointwise
and is volume-preserving, two dual contamination families arise for the
same replacement budget: replace the far half of the remaining points with
their sheared images, or replace the near half with their inverse-sheared
preimages. The second family is the exact affine preimage of the first, so
an affine equivariant estimator that stays put on both families as gamma
grows contradicts itself; recording the larger of the two displacements per
gamma is guaranteed to diverge for any estimator that keeps a margin above
the hull boundary.

Breakdown is declared at a finite, scale-free proxy for "unbounded": a
recorded estimate-set distance beyond ``threshold_factor`` times the data
diameter. A certificate that no attack in the suite succeeded is exactly
that, never a proof of a breakdown lower bound.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .dataset import DataSet
from .errors import (
    GeneralPositionError,
    ParameterError,
    RoblocError,
    require_integer,
)
from .estimators import EstimateSet, EstimateStack, LocationEstimator
from .geometry import (
    GP_RTOL,
    Facet,
    OrthonormalBasis,
    ReplacementFamily,
    basis_from_normal,
    check_general_position,
    enumerate_facets,
    normal_cone_ties,
    require_general_position,
    shear_images,
    subset_index,
    tie_levels,
    unit_direction,
)
from .metric import _row_sup_distances

__all__ = [
    "BoundTable",
    "theoretical_bounds",
    "Witness",
    "AttackTrace",
    "shear_attack",
    "translation_cluster_attack",
    "AttackSuite",
    "BreakdownCertificate",
    "FsbvResult",
    "empirical_fsbv",
    "pm_counterexample",
    "config_digest",
    "DEFAULT_GAMMA_GRID",
    "DEFAULT_RADIUS_GRID",
    "DEFAULT_THRESHOLD_FACTOR",
    "SURVIVED_MARKER",
]

DEFAULT_GAMMA_GRID = tuple(10.0**p for p in range(1, 9))
DEFAULT_RADIUS_GRID = tuple(10.0**p for p in range(1, 10))
DEFAULT_THRESHOLD_FACTOR = 1e6
SURVIVED_MARKER = "no attack in suite succeeded (not a proof of robustness)"

# At most this many Dirichlet draws per h-point face for a tie direction when h < k, a power
# of two: one stream, drawn in blocks of 1, 1, 2, 4, ... until a block holds a tie taken.
_CONE_SAMPLES = 64
# Both sides of the hyperplane-distance ordering, in the order suites try them.
_PARTITION_RULES = ("largest_projection", "smallest_projection")
# Relative size of the single gamma nudge allowed to restore general position.
_NUDGE_REL = 1e-6
# Relative size of the cluster's per-copy jitter.
_JITTER_REL = 1e-6
# The fields of an attack's details that fix the frame of its witnesses.
_FRAME_FIELDS = {"shear": ("kept", "normal"), "cluster": ("direction", "anchor")}
# Tolerance for the inline check that family two is the affine preimage of
# family one.
_IDENTITY_RTOL = 1e-9
# A batch of attacks holds at most this many coordinates of contaminated
# data (one attack at least), and its position screen takes its rows at
# most this many floats at a time: 64 KiB.
_BATCH_FLOATS = 1 << 13


def _require_grid(grid, what: str) -> tuple:
    """The attack grid as floats: it must be nonempty and every value
    finite, or no contaminated dataset could be built from it."""
    values = tuple(float(v) for v in grid)
    if not values or not np.all(np.isfinite(values)):
        raise ParameterError(f"{what} grid must be nonempty and finite, got {list(values)}")
    return values


def _require_finite_at(grid, values: np.ndarray, what: str, kind: str = "slope") -> None:
    """``values`` has one row per grid value, computed with overflow
    warnings off; a grid value whose row is not finite is too large to
    evaluate."""
    if not np.isfinite(values).all():
        bad = ~np.isfinite(values).reshape(len(grid), -1).all(axis=1)
        value = float(grid[int(np.argmax(bad))])
        raise ParameterError.too_large(kind, value, f"{what} overflows")


def config_digest(mapping: dict) -> str:
    """Stable short hash over every parameter that affects a result."""
    blob = json.dumps(mapping, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Bound tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundTable:
    """Exact upper bounds on replacement breakdown, as unreduced fractions.

    * ``translation``: bound for all translation equivariant location
      estimators, floor((n+1)/2) / n.
    * ``affine_condition_h``: bound for affine equivariant estimators whose
      projection clears every h-fold tied minimum, floor((n-h+1)/2) / n.
    * ``scatter``: the h = k value floor((n-k+1)/2) / n, the sharp bound for
      affine equivariant scatter and the value attained by MVE/MCD-type
      locations.
    * ``projection_median``: floor((n-k+2)/2) / n, attained by the
      projection median through its shifted scale estimator.
    """

    n: int
    k: int
    h: int
    translation: tuple
    affine_condition_h: tuple
    scatter: tuple
    projection_median: tuple

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "h": self.h,
            "translation": list(self.translation),
            "affine_condition_h": list(self.affine_condition_h),
            "scatter": list(self.scatter),
            "projection_median": list(self.projection_median),
        }


def theoretical_bounds(n: int, k: int, h: int) -> BoundTable:
    """Exact breakdown bound catalogue for sample size n, dimension k, tie
    order h. All four values are (numerator, denominator) integer pairs,
    deliberately left unreduced."""
    n, k, h = (require_integer(v, name, None) for v, name in zip((n, k, h), "nkh"))
    if not (n > k >= 1):
        raise ParameterError(f"need n > k >= 1, got n={n}, k={k}")
    if not (1 <= h <= k):
        raise ParameterError(f"need 1 <= h <= k, got h={h}, k={k}")
    return BoundTable(
        n=n,
        k=k,
        h=h,
        translation=((n + 1) // 2, n),
        affine_condition_h=((n - h + 1) // 2, n),
        scatter=((n - k + 1) // 2, n),
        projection_median=((n - k + 2) // 2, n),
    )


# ---------------------------------------------------------------------------
# Attack traces
# ---------------------------------------------------------------------------


class Witness(NamedTuple):
    """One contaminated dataset of an attack, which ``dataset`` rebuilds
    from the data alone. ``family`` is ``shear_replace_far``,
    ``shear_replace_near`` (the inverse shear, slope -parameter) or
    ``cluster``; ``requested_parameter`` is the grid value before a
    general-position nudge. A shear carries its pinned rows and tie
    direction, a cluster its direction and anchor."""

    family: str
    replaced: tuple
    parameter: float
    requested_parameter: float
    kept: tuple | None = None
    normal: tuple | None = None
    direction: tuple | None = None
    anchor: tuple | None = None

    @property
    def nudged(self) -> bool:
        return self.parameter != self.requested_parameter

    def dataset(self, X: DataSet) -> DataSet:
        """X with rows ``replaced`` moved as the attack moved them; a shear
        is taken in ``basis_from_normal(normal, mean of the kept points)``."""
        if self.family == "cluster":
            family = _cluster_rows(X, self.replaced, self.anchor, self.direction, [self.parameter])
        else:
            basis = basis_from_normal(self.normal, X.points[list(self.kept)].mean(axis=0))
            slope = -self.parameter if self.family == "shear_replace_near" else self.parameter
            (family,) = _shear_families(X, [basis], [self.replaced], np.array([[slope]]))
        return DataSet(family.points[0])

    @classmethod
    def from_dict(cls, trace: dict) -> Witness | None:
        """The first record of a trace's JSON beyond its threshold,
        grid-major, with the frame read off its details; or None."""
        hit = next((r for r in trace["records"] if r["distance"] > trace["divergence_threshold"]), None)
        if hit is None:
            return None
        return cls(hit["family"], tuple(hit["replaced_indices"]), hit["parameter"], hit["requested_parameter"],
                   **{key: tuple(trace["details"][key]) for key in _FRAME_FIELDS[trace["family"]]})


@dataclass(frozen=True)
class AttackTrace:
    """One attack swept over its parameter grid, kept as columns.

    Each contamination family of the attack (the far and near shear
    replacements, or the one cluster) is a column: its label, its replaced
    indices, the :class:`EstimateStack` of its estimates, one per grid
    point, and per grid point the distance of the estimate to the clean
    one. ``distances`` is the (G, F) array of those distances, and every
    verdict is a reduction of it. ``records`` builds one :class:`Witness`
    per (grid point, family), grid-major, on demand.
    """

    family: str
    estimator: str
    n: int
    k: int
    m: int
    h: int | None
    parameters: tuple  # the requested grid
    used_parameters: tuple  # the grid after general-position nudges
    labels: tuple  # per family
    replaced: tuple  # per family
    estimates: tuple  # per family, an EstimateStack of one estimate per grid point
    distances: np.ndarray = field(repr=False)  # (G, F)
    divergence_threshold: float
    details: dict = field(repr=False)

    @property
    def records(self) -> tuple:
        frame = {key: tuple(self.details[key]) for key in _FRAME_FIELDS[self.family]}
        return tuple(Witness(label, replaced, used, requested, **frame)
                     for used, requested in zip(self.used_parameters, self.parameters)
                     for label, replaced in zip(self.labels, self.replaced))

    @property
    def diverged(self) -> bool:
        return bool((self.distances > self.divergence_threshold).any())

    @property
    def max_distance(self) -> float:
        return float(self.distances.max())

    @property
    def witness_record(self) -> Witness | None:
        """The first record beyond the threshold, grid-major."""
        hits = np.flatnonzero(self.distances > self.divergence_threshold)
        return self.records[int(hits[0])] if hits.size else None

    def distances_per_parameter(self) -> list:
        """Max recorded distance at each grid parameter, in grid order.
        Equal requested parameters give equal rows, so the row maximum is
        also the maximum over every record of that parameter."""
        return self.distances.max(axis=1).tolist()

    def curve_rows(self) -> list:
        """(parameter, distance) rows for CSV plotting output."""
        return list(zip(self.parameters, self.distances_per_parameter()))

    def to_dict(self) -> dict:
        witness = self.witness_record
        members = [np.split(stack.members, stack.starts[1:]) for stack in self.estimates]
        records = [{"family": label, "parameter": float(used), "requested_parameter": float(requested),
                    "nudged": used != requested, "replaced_indices": list(replaced),
                    "estimate_members": members[f][j].tolist(), "distance": float(self.distances[j, f])}
                   for j, (used, requested) in enumerate(zip(self.used_parameters, self.parameters))
                   for f, (label, replaced) in enumerate(zip(self.labels, self.replaced))]
        body = {
            "estimator": self.estimator,
            "n": self.n,
            "k": self.k,
            "h": self.h,
            "m": self.m,
            "family": self.family,
            "grid": [float(p) for p in self.parameters],
            "distances": [float(d) for d in self.distances_per_parameter()],
            "diverged": self.diverged,
            "witness_gamma": None if witness is None else float(witness.parameter),
            "divergence_threshold": float(self.divergence_threshold),
            "seed": self.details.get("seed"),
            "details": {k: v for k, v in sorted(self.details.items())},
            "records": records,
        }
        body["config_hash"] = config_digest(
            {
                "estimator": self.estimator,
                "family": self.family,
                "grid": body["grid"],
                "h": self.h,
                "m": self.m,
                "threshold": body["divergence_threshold"],
                "details": body["details"],
            }
        )
        return body


# ---------------------------------------------------------------------------
# Shear attack
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _ShearFrame:
    """The h points pinned on a hyperplane and the verified tie direction
    ``normal`` at ``level`` through them, with what every sweep reads: the
    shear ``basis``, every point's ``offsets`` from the pinned hyperplane,
    and per b_rule the non-kept indices in replacement ``orders`` (largest
    or smallest offset first, ties by index), from which :meth:`partition`
    derives each budget's split when it is read. A sweep of it is fixed by
    the frame, the partition and the budget; the hull facet through which
    the pinned face was found is only a label. Frames compare by identity:
    :class:`_Attacks` builds one per kept subset."""

    kept: tuple  # h indices pinned on the hyperplane
    normal: np.ndarray = field(repr=False)
    level: float
    basis: OrthonormalBasis = field(repr=False)
    offsets: np.ndarray = field(repr=False)
    orders: dict = field(repr=False)  # b_rule -> non-kept indices, first replaced first

    def partition(self, m: int, b_rule: str) -> tuple:
        """(kept-out A, replaced B) with B the m first in ``b_rule``'s
        order, m = 0..n-h, each side in increasing index order."""
        order = self.orders[b_rule]
        return tuple(sorted(order[m:])), tuple(sorted(order[:m]))


def _shear_frames(attacks: _Attacks) -> list:
    """Every (facet, frame) pair of the attacks with a workable frame,
    h = 1..k ascending, then best facet first, then each facet's kept
    subsets in ``combinations`` order (the first keeps its h smallest
    indices). For h < k a kept subset reached through several facets is
    one frame object, listed under each facet's label and swept once per
    budget and partition."""
    X = attacks.X
    pairs = ((facet, attacks.frame(facet, kept)) for h in range(1, X.k + 1) for facet in attacks.admissible
             for kept in combinations(facet.indices, h))
    return [(facet, frame) for facet, frame in pairs if frame is not None]


class _ShearPositionScreen:
    """General-position test for shear-contaminated datasets, stable in gamma.

    Replacing points i in R by their shear images adds gamma * a_i * e2 to
    them (a_i is the point's offset along the pinned normal). In the
    difference matrix of any (k+1)-subset every row then reads
    dq_j + gamma * dc_j * e2, and since terms with two e2 rows vanish, the
    subset determinant is exactly linear: D0 + gamma * D1, with D0 and D1
    computed from the uncontaminated data. Evaluating the raw coordinates
    instead would lose these determinants to cancellation around
    gamma ~ 1e6 (coordinates grow like gamma while the determinant stays
    put). The finitely many degenerate gamma values of the construction are
    exactly the roots -D0/D1.

    Difference rows and displacements are taken in units of the clean
    data diameter (the shear preserves determinants while stretching subset
    diameters without bound), so D0 and D1 are scale-free and a subset
    fails within ``GP_RTOL``, as in ``check_general_position``.

    D1 needs each difference matrix's determinant with row j replaced by
    e2, its cofactor expansion along row j. The (S, k, k) ``cofactors``
    are built once per dataset from the LU determinants of the minors (det
    times inverse would lose them on nearly flat subsets), so the row
    determinants of a whole batch of frames are one product.
    """

    def __init__(self, X: DataSet):
        k = X.k
        self.scale = max(X.diameter, 1e-300)
        self.subsets = subset_index(X.n, k + 1)
        base = X.points[self.subsets]  # (S, k+1, k)
        rows = (base[:, 1:, :] - base[:, :1, :]) / self.scale  # (S, k, k)
        self.d0 = np.linalg.det(rows)
        others = np.array([np.delete(np.arange(k), j) for j in range(k)])  # (k, k-1)
        minors = rows[:, others[:, None, :, None], others[None, :, None, :]]  # (S, k, k, k-1, k-1)
        self.cofactors = np.linalg.det(minors) * (-1.0) ** np.add.outer(np.arange(k), np.arange(k))

    def row_replacements(self, e2: np.ndarray) -> np.ndarray:
        """det of each subset's difference matrix with row j replaced by
        e2, (S, k), for one unit vector e2 (k,); for a stack of them (F, k),
        (F, S, k), one product either way."""
        return np.matmul(self.cofactors, e2[..., None, :, None])[..., 0]

    def linear_coeff(self, M: np.ndarray, c: np.ndarray) -> np.ndarray:
        """D1 per subset for displacement coefficients c (n,) (zero off the
        replaced set), in data units; for a stack of row determinants M
        (F, S, k) and coefficients c (F, n), one row of D1 per family."""
        cs = (c / self.scale)[..., self.subsets]  # (..., S, k+1)
        dc = cs[..., 1:] - cs[..., :1]  # (..., S, k)
        return (dc * M).sum(axis=-1)

    def gamma_ok(self, gammas, d1s) -> tuple:
        """(ok, nearest), each (F, G), for every D1 of ``d1s`` (F, S) and
        slope of ``gammas``, in one (F, G, S) pass: the subset of smallest
        |D0 + gamma * D1|, and whether it clears the threshold. A D1 whose
        values overflow names its first such slope."""
        vals = np.asarray(gammas, dtype=float)[:, None] * np.asarray(d1s)[:, None, :]
        with np.errstate(over="ignore", invalid="ignore"):
            vals += self.d0
            np.abs(vals, out=vals)
        if not np.isfinite(vals).all():
            for row in vals:
                _require_finite_at(gammas, row, "the general-position screen")
        nearest = np.argmin(vals, axis=2)
        return np.take_along_axis(vals, nearest[..., None], axis=2)[..., 0] > GP_RTOL, nearest


def _screened_grid(screen: _ShearPositionScreen, gammas, d1s) -> list:
    """Each slope of the grid, or that slope nudged once where it breaks
    general position under some D1 of ``d1s``. Raises for the first slope
    whose nudge breaks it too, with the witness subset of the first D1
    failing there at the nudged slope."""
    used = np.array(gammas, dtype=float)
    ok, _ = screen.gamma_ok(used, d1s)
    bad = np.flatnonzero(~ok.all(axis=0))
    if bad.size:
        used[bad] *= 1.0 + _NUDGE_REL
        ok, nearest = screen.gamma_ok(used[bad], d1s)
        if not ok.all():
            j = int(np.argmin(ok.all(axis=0)))
            raise GeneralPositionError(
                f"contaminated dataset not in general position even after nudging gamma={gammas[bad[j]]!r}",
                witness=tuple(int(i) for i in screen.subsets[nearest[np.argmin(ok[:, j]), j]]),
            )
    return used.tolist()


def _estimate_distances(stack: EstimateStack, baseline: EstimateSet) -> np.ndarray:
    """``estimate_set_distance`` of each estimate of a stack to the
    baseline, in one pass: the largest distance of every member, then the
    largest per estimate."""
    return np.maximum.reduceat(_row_sup_distances(stack.members, baseline.members), stack.starts)


def _attack_trace(
    attacks: _Attacks, family: str, m: int, h: int | None, requested: list, settled: tuple, details: dict,
) -> AttackTrace:
    """The trace of one attack from what its batch settled: the used grid,
    the (label, replaced, estimates) columns and the (G, F) distances."""
    used, columns, distances = settled
    labels, replaced, estimates = zip(*columns)
    return AttackTrace(
        family=family,
        estimator=attacks.T.name,
        n=attacks.X.n,
        k=attacks.X.k,
        m=m,
        h=h,
        parameters=tuple(requested),
        used_parameters=tuple(used),
        labels=labels,
        replaced=replaced,
        estimates=estimates,
        distances=distances,
        divergence_threshold=attacks.threshold,
        details=details,
    )


class _Attacks:
    """What every attack of T on X shares: the suite, the baseline T(X)
    and the divergence threshold, ``threshold_factor`` times the data
    diameter (the finite proxy for an unbounded estimate); built on first
    use, the hull facets (enumerated once), the admissible facets best
    first, the position screen, per kept subset its frame, and T's one
    evaluator, for the families of every frame and of the cluster attacks.
    It keeps nothing per budget: :func:`_settle` returns what a batch
    settled, and the walk hands it to each attack's function.

    A facet is admissible when its halfspace strictly contains the
    estimate: exactly a k-data-point face of the hull of the data plus the
    estimate that does not contain the estimate. At least one exists
    because the facet normals positively span the space; working with the
    facets of X alone avoids degeneracies when the estimate lands on a data
    hyperplane.
    """

    def __init__(self, T: LocationEstimator, X: DataSet, suite: AttackSuite,
                 threshold_factor: float = DEFAULT_THRESHOLD_FACTOR):
        self.T, self.X, self.suite = T, X, suite
        self.tol = GP_RTOL * max(X.diameter, 1e-300)
        self.threshold = threshold_factor * max(X.diameter, 1e-300)
        self.baseline = T(X)
        self._pinned = {}  # kept subset -> its frame or None

    @cached_property
    def facets(self) -> list:
        return enumerate_facets(self.X)

    @cached_property
    def admissible(self) -> list:
        theta, tol = self.baseline.canonical, self.tol
        admissible = [f for f in self.facets if f.margin_of(theta) > tol]
        admissible.sort(key=lambda f: (-f.margin_of(theta), f.indices))
        return admissible

    @cached_property
    def screen(self) -> _ShearPositionScreen:
        return _ShearPositionScreen(self.X)

    @cached_property
    def evaluator(self):
        return self.T.evaluator(self.X)

    def frame(self, facet: Facet, kept: tuple) -> _ShearFrame | None:
        """The frame pinning ``kept`` on ``facet`` along its first verified
        tie direction with the estimate strictly above, or None. For h < k
        the directions come from a fresh generator seeded by ``cone_seed``
        and depend on ``kept`` alone (for h = k, kept is the facet), so the
        frame is built once per kept subset and every facet containing it
        gets that same object."""
        if kept not in self._pinned:
            self._pinned[kept] = self._frame(facet, kept)
        return self._pinned[kept]

    def _frame(self, facet: Facet, kept: tuple) -> _ShearFrame | None:
        X, theta, tol = self.X, self.baseline.canonical, self.tol
        if len(kept) == X.k:
            u = facet.inward_normal
            level = tie_levels((X.points @ u)[None], kept, tol)[0]
            blocks = [[] if np.isnan(level) else [(u, float(level))]]
        else:  # blocks of 1, 1, 2, 4, ..., 32: see _CONE_SAMPLES
            rng = np.random.default_rng(self.suite.cone_seed)
            blocks = (normal_cone_ties(X, self.facets, kept, rng, size, tol)
                      for size in (1, *(1 << i for i in range(_CONE_SAMPLES.bit_length() - 1))))
        found = next(((u, level) for ties in blocks for u, level in ties if float(u @ theta) - level > tol), None)
        if found is None:
            return None
        u, level = found
        rest = np.delete(np.arange(X.n), kept)
        proj = X.points[rest] @ u - level
        orders = {b_rule: tuple(rest[np.lexsort((rest, key))].tolist())
                  for b_rule, key in zip(_PARTITION_RULES, (-proj, proj))}
        basis = basis_from_normal(u, X.points[list(kept)].mean(axis=0))
        return _ShearFrame(kept, u, level, basis, X.points @ u - level, orders)


def _settle(attacks: _Attacks, m: int, sweeps: list, directions: list = ()) -> list:
    """Settle the shear sweeps ``sweeps``, (frame, b_rule) pairs, and then
    the cluster attacks along the unit ``directions`` at budget m, with one
    evaluator call and one distance pass over its one estimate stack: per
    attack in that order, its used grid, its (label, replaced, estimates)
    columns and its (G, F) distances, each a view of the batch's arrays. A
    batch of one attack takes that attack's steps in order, so it raises
    what the attack raises; a distance that overflows names the grid value
    of the first such attack."""
    built, settled = _shear_batch(attacks, m, sweeps) if sweeps else ([], [])
    X, theta = attacks.X, attacks.baseline.canonical
    for u in directions:
        order = np.lexsort((np.arange(X.n), -(X.points @ u)))
        built.append(_cluster_rows(X, np.sort(order[:m]), theta, u, attacks.suite.radius_grid))
        settled.append((list(built[-1].parameters), [("cluster", len(built) - 1)]))
    stack = attacks.evaluator(built)
    with np.errstate(over="ignore"):
        distances = _estimate_distances(stack, attacks.baseline)
    starts = np.cumsum([0] + [len(family.parameters) for family in built]).tolist()
    # the families of an attack are consecutive, each over the attack's grid
    views = [distances[starts[columns[0][1]]:starts[columns[-1][1] + 1]].reshape(len(columns), -1).T
             for _, columns in settled]
    if not np.isfinite(distances).all():
        for (used, columns), view in zip(settled, views):
            kind = "slope" if built[columns[0][1]].basis is not None else "radius"
            _require_finite_at(used, view, "its distance", kind)
    return [(used, [(label, built[f].replaced, stack[starts[f]:starts[f + 1]]) for label, f in columns], view)
            for (used, columns), view in zip(settled, views)]


def _shear_batch(attacks: _Attacks, m: int, sweeps: list) -> tuple:
    """The families of the shear sweeps ``sweeps`` at budget m from one
    row-determinant product of the position screen per chunk of families
    and one shear-image product per count of replaced rows, and per sweep
    its grid and (label, family index) columns. A sweep with a slope
    that fails the screen takes its grid from :func:`_screened_grid`
    alone. The far family replaces the m rows B of the partition by their
    shear images, and the near family, when 0 < |A| <= m, the rows A by
    their preimages (slope -gamma). One preimage check covers the batch."""
    X, screen, grid = attacks.X, attacks.screen, attacks.suite.gamma_grid
    families, spans = [], []  # (frame, label, replaced rows, sign of their slope); per sweep, its families
    for frame, b_rule in sweeps:
        a_idx, b_idx = frame.partition(m, b_rule)
        moved = [("shear_replace_far", b_idx, 1.0), ("shear_replace_near", a_idx, -1.0)][:1 + (0 < len(a_idx) <= m)]
        spans.append((len(families), len(families) + len(moved)))
        families += [(frame, *family) for family in moved]
    e2 = np.array([frame.basis.e(2) for frame, *_ in families])
    signs = np.array([sign for *_, sign in families])
    coeffs = np.zeros((len(families), X.n))
    for f, (frame, _, idx, sign) in enumerate(families):
        coeffs[f, list(idx)] = sign * frame.offsets[list(idx)]

    def d1s(lo, hi):
        return screen.linear_coeff(screen.row_replacements(e2[lo:hi]), coeffs[lo:hi])

    step = max(1, _BATCH_FLOATS // (len(screen.subsets) * max(len(grid), X.k + 1)))
    ok = np.concatenate([screen.gamma_ok(grid, d1s(lo, lo + step))[0].all(axis=1)
                         for lo in range(0, len(families), step)])
    grids = [list(grid) if ok[lo:hi].all() else _screened_grid(screen, grid, d1s(lo, hi)) for lo, hi in spans]
    slopes = np.array([grids[s] for s, (lo, hi) in enumerate(spans) for _ in range(lo, hi)]) * signs[:, None]

    built = [None] * len(families)
    by_count = {}
    for f, (_, _, idx, _) in enumerate(families):
        by_count.setdefault(len(idx), []).append(f)
    for group in by_count.values():
        shears = _shear_families(X, [families[f][0].basis for f in group], [families[f][2] for f in group],
                                 slopes[group])
        for f, family in zip(group, shears):
            built[f] = family
    pairs = [lo for lo, hi in spans if hi - lo == 2]
    if pairs:
        _check_preimage_identity([built[lo] for lo in pairs], [built[lo + 1] for lo in pairs],
                                 [families[lo][0].offsets for lo in pairs], [families[lo][0].kept for lo in pairs])
    return built, [(used, [(families[f][1], f) for f in range(lo, hi)]) for used, (lo, hi) in zip(grids, spans)]


def _shear_families(X: DataSet, bases: list, replaced: list, slopes: np.ndarray) -> list:
    """Per basis f of ``bases``, the family of X with the r rows of the
    tuple ``replaced[f]`` moved by its shears of the signed slopes
    ``slopes[f]`` (F, G): one (F, G, r, k) product. Sweeps and witnesses
    both build here."""
    idx = np.array(replaced, dtype=np.intp).reshape(len(bases), -1)
    # an image that overflows is not finite, and the family rejects it
    with np.errstate(over="ignore", invalid="ignore"):
        images = shear_images(X.points[idx][:, None], bases, slopes)
    return ReplacementFamily.stack(X, replaced, [tuple(row) for row in slopes.tolist()], images, bases)


def _run_shear_sweep(attacks: _Attacks, facet: Facet, frame: _ShearFrame, m: int, b_rule: str,
                     settled: tuple | None = None) -> AttackTrace:
    """One shear sweep of ``frame`` at budget m under ``b_rule``, from the
    entry its batch ``settled``, else settled alone; the facet only labels
    it in ``details``."""
    settled = settled or _settle(attacks, m, [(frame, b_rule)])[0]
    a_idx, b_idx = frame.partition(m, b_rule)
    details = {
        "facet": list(facet.indices),
        "kept": list(frame.kept),
        "kept_out": list(a_idx),
        "replaced_far": list(b_idx),
        "normal": [float(v) for v in frame.normal],
        "level": float(frame.level),
        "origin": [float(v) for v in frame.basis.origin_shift],
        "b_rule": b_rule,
        "seed": attacks.suite.cone_seed,
        "preimage_family_included": len(settled[1]) == 2,
    }
    return _attack_trace(attacks, "shear", m, len(frame.kept), attacks.suite.gamma_grid, settled, details)


def _check_preimage_identity(fars: list, nears: list, offsets: list, kept: list) -> None:
    """Every far-replacement dataset of sweep p of a batch, ``fars[p]``,
    must be the shear image of its near-replacement dataset of the same
    slope, ``nears[p]``, row for row; ``offsets[p]`` and ``kept[p]`` are
    its frame's. The first sweep in batch order that fails raises what a
    check of it alone would: lost orthogonality, else the first slope at
    which the check overflows, else the first slope in grid order that fails.

    The identity is exact coefficient algebra once points are written as
    q_i + gamma * c_i * e2: applying the shear adds gamma * a_i * e2 (the
    normal offset a_i is shear-invariant because e1 is orthogonal to e2),
    and the coefficients then match term by term. Two things can actually
    break and are verified here at 1e-9: the stored basis orthogonality,
    and the pinned points' residual offsets (scaled by gamma). A direct
    coordinate comparison of the generated arrays is kept as a guard
    against bookkeeping bugs, but at a conditioning-aware tolerance:
    recovering a preimage's offset from coordinates of magnitude
    gamma * scale carries an unavoidable error of order eps * gamma, which
    exceeds 1e-9 relative once gamma is beyond about 1e6. A slope so large
    that the check itself overflows is a ParameterError.
    """
    bases = [far.basis for far in fars]
    vectors = np.array([basis.vectors for basis in bases])
    # stacked 1-row products reproduce each basis's ``e1 @ e2`` bit for bit
    orth = np.abs(np.matmul(vectors[:, None, :, 0], vectors[:, :, 1:2]))[:, 0, 0]
    far, near = np.stack([f.points for f in fars]), np.stack([f.points for f in nears])  # (P, G, n, k)
    slopes = np.array([f.parameters for f in fars])
    gamma = np.abs(slopes)
    blown = np.maximum(1.0, np.maximum(np.abs(far).max(axis=(2, 3)), np.abs(near).max(axis=(2, 3))))
    travel = gamma * np.array([np.abs(o[list(pinned)]).max() for o, pinned in zip(offsets, kept)])[:, None]
    eps = float(np.finfo(float).eps)
    with np.errstate(over="ignore", invalid="ignore"):
        diff = np.abs(shear_images(near, bases, slopes) - far).max(axis=(2, 3))
        bound = np.maximum(_IDENTITY_RTOL, 8.0 * eps * gamma) * blown
    finite = np.isfinite(diff) & np.isfinite(bound)
    travels = travel > _IDENTITY_RTOL * blown
    fails = travels | (diff > bound)
    for p in np.flatnonzero((orth > 1e-12) | ~finite.all(axis=1) | fails.any(axis=1))[:1]:
        if orth[p] > 1e-12:
            raise RoblocError(f"shear basis lost orthogonality: |e1.e2| = {orth[p]:.3e}")
        if not finite[p].all():
            raise fars[p].too_large(int(np.argmin(finite[p])), "the preimage check overflows")
        j = int(np.argmax(fails[p]))
        if travels[p, j]:
            raise RoblocError(
                f"pinned points travel {travel[p, j]:.3e} under the shear, beyond "
                f"{_IDENTITY_RTOL * blown[p, j]:.3e}"
            )
        raise RoblocError(
            f"shear families lost their preimage identity: max deviation {diff[p, j]:.3e} > {bound[p, j]:.3e}"
        )


def shear_attack(
    T: LocationEstimator,
    X: DataSet,
    h: int,
    gamma_grid=DEFAULT_GAMMA_GRID,
    b_rule: str = "largest_projection",
    m: int | None = None,
    cone_seed: int = 0,
) -> AttackTrace:
    """Run the hyperplane-fixing shear contamination against an estimator.

    Construction: pin h points of a hull facet whose halfspace strictly
    contains the original estimate (facets tried in decreasing clearance
    until one admits a verified tie direction), shear everything else
    parallel to the pinned hyperplane, and for each gamma build both dual
    families: replace the m points farthest along the normal by their
    sheared images, and -- when it fits the same budget -- replace the
    remaining points by their inverse-sheared preimages. Gamma values that
    break general position are nudged once by +1e-6 relative.

    ``b_rule`` picks the m sheared points by their offset along the normal:
    "largest_projection" the largest first, "smallest_projection" the
    smallest first, ties by index; any other value is a ParameterError.

    ``m`` defaults to floor((n - h + 1) / 2), the largest budget for which
    both families stay within m replacements; the threshold is
    ``DEFAULT_THRESHOLD_FACTOR``. The grid and ``cone_seed`` are checked as
    an :class:`AttackSuite` checks them. The frame is the best admissible
    facet whose h smallest indices admit a verified tie direction, with the
    direction :func:`empirical_fsbv` finds for that subset at the same
    ``cone_seed``; only the subsets tried draw directions. It is swept by
    the same code as every frame there.
    """
    if b_rule not in _PARTITION_RULES:
        raise ParameterError(f"unknown b_rule {b_rule!r}")
    if X.k < 2:
        raise ParameterError("shear attack requires k >= 2")
    h = require_integer(h, "h", None)
    if not (1 <= h <= X.k):
        raise ParameterError(f"need 1 <= h <= k, got h={h}")
    suite = AttackSuite(gamma_grid=gamma_grid, cone_seed=cone_seed)
    n = X.n
    m_eff = (n - h + 1) // 2 if m is None else require_integer(m, "m", None)
    if not (1 <= m_eff <= n - h):
        raise ParameterError(f"need 1 <= m <= n - h = {n - h}, got m={m_eff}")
    require_general_position(X, "shear_attack")
    attacks = _Attacks(T, X, suite)
    for facet in attacks.admissible:
        frame = attacks.frame(facet, facet.indices[:h])
        if frame is not None:
            return _run_shear_sweep(attacks, facet, frame, m_eff, b_rule)
    raise RoblocError(f"estimator {T.name!r}: no hull facet strictly contains the estimate in its "
                      "halfspace; cannot anchor a shear frame")


# ---------------------------------------------------------------------------
# Translation cluster attack
# ---------------------------------------------------------------------------


def translation_cluster_attack(
    T: LocationEstimator,
    X: DataSet,
    m: int,
    radius_grid=DEFAULT_RADIUS_GRID,
    direction=None,
) -> AttackTrace:
    """Replace the m points farthest along a direction with a distant cluster.

    The cluster sits at the original estimate plus radius times the
    direction, with deterministic per-copy jitter of relative size 1e-6
    cycling through the coordinate axes so the copies do not create exact
    degeneracies on their own. The threshold is ``DEFAULT_THRESHOLD_FACTOR``,
    and the grid is checked as an :class:`AttackSuite` checks it.
    """
    m = require_integer(m, "m", None)
    if m < 0 or m > X.n:
        raise ParameterError(f"need 0 <= m <= n, got m={m}")
    suite = AttackSuite(radius_grid=radius_grid)
    u = unit_direction(np.eye(X.k)[0] if direction is None else direction)
    if u.size != X.k:
        raise ParameterError(f"direction has dimension {u.size}, the data have dimension {X.k}")
    return _cluster_attack(_Attacks(T, X, suite), m, u)


def _cluster_attack(attacks: _Attacks, m: int, u: np.ndarray, settled: tuple | None = None) -> AttackTrace:
    """:func:`translation_cluster_attack` along the unit direction u over
    the suite's radius grid, from the entry its batch ``settled``, else
    settled alone."""
    settled = settled or _settle(attacks, m, [], [u])[0]
    details = {
        "direction": [float(v) for v in u],
        "anchor": [float(v) for v in attacks.baseline.canonical],
        "seed": None,
    }
    return _attack_trace(attacks, "cluster", m, None, settled[0], settled, details)


def _cluster_rows(X: DataSet, replaced, anchor, direction, radii) -> ReplacementFamily:
    """X with rows ``replaced`` moved to the cluster of each radius, as one
    (G, m, k) family; the cluster attack and witnesses both build here."""
    R = np.array(radii, dtype=float)
    copies = np.arange(len(replaced))
    jitter = np.zeros((R.size, copies.size, X.k))
    jitter[:, copies, copies % X.k] = (_JITTER_REL * R)[:, None] * (copies + 1)
    with np.errstate(over="ignore"):  # the family rejects a cluster that overflows
        clusters = np.asarray(anchor, dtype=float) + R[:, None] * np.asarray(direction, dtype=float)
        images = clusters[:, None, :] + jitter
    return ReplacementFamily.of(X, replaced, R, images)


# ---------------------------------------------------------------------------
# Empirical breakdown certification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AttackSuite:
    """Configuration of the certification sweep: the two grids, which must
    be nonempty and finite (``ParameterError`` otherwise: an empty grid would
    let every budget "survive" untested) and are stored as tuples of
    floats, so suites hash and compare by value, and the seed of the h < k
    tie directions, a nonnegative integer (stored as an int). Both attacks
    check their own grid and seed by building one. The rest is fixed
    (see :func:`empirical_fsbv`); ``to_dict`` still records it under the
    keys it always had, from ``"h_values": null`` to
    ``"stop_m_on_divergence": true``.
    """

    gamma_grid: tuple = DEFAULT_GAMMA_GRID
    radius_grid: tuple = DEFAULT_RADIUS_GRID
    cone_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "gamma_grid", _require_grid(self.gamma_grid, "gamma"))
        object.__setattr__(self, "radius_grid", _require_grid(self.radius_grid, "radius"))
        object.__setattr__(self, "cone_seed", require_integer(self.cone_seed, "seed"))

    def to_dict(self) -> dict:
        return {
            "gamma_grid": list(self.gamma_grid),
            "radius_grid": list(self.radius_grid),
            "h_values": None,
            "cluster_directions": None,
            "partition_rules": list(_PARTITION_RULES),
            "all_s_choices": True,
            "cone_seed": self.cone_seed,
            "stop_m_on_divergence": True,
        }


@dataclass(frozen=True)
class BreakdownCertificate:
    """Verdict for one replacement budget m."""

    m: int
    n: int
    status: str  # "broken" | "survived"
    attack_families_tried: tuple
    max_distance: float
    witness: AttackTrace | None

    def to_dict(self) -> dict:
        d = {
            "m": self.m,
            "n": self.n,
            "status": self.status,
            "attack_families_tried": list(self.attack_families_tried),
            "max_distance": float(self.max_distance),
        }
        if self.witness is not None:
            d["witness"] = self.witness.to_dict()
            d["witness_parameter"] = d["witness"]["witness_gamma"]
        else:
            d["witness"] = None
            d["note"] = SURVIVED_MARKER
        return d


@dataclass(frozen=True)
class FsbvResult:
    """Smallest certified breakdown fraction plus the per-m evidence."""

    estimator: str
    n: int
    k: int
    fraction: tuple | None  # (numerator, denominator), unreduced
    certificates: dict
    threshold_factor: float
    suite: AttackSuite

    @property
    def survived_all(self) -> bool:
        return self.fraction is None

    def to_dict(self) -> dict:
        body = {
            "estimator": self.estimator,
            "n": self.n,
            "k": self.k,
            "fraction": None if self.fraction is None else list(self.fraction),
            "marker": SURVIVED_MARKER if self.fraction is None else "broken",
            "threshold_factor": float(self.threshold_factor),
            "suite": self.suite.to_dict(),
            "certificates": {str(m): c.to_dict() for m, c in sorted(self.certificates.items())},
        }
        body["config_hash"] = config_digest(
            {
                "estimator": self.estimator,
                "n": self.n,
                "k": self.k,
                "threshold_factor": body["threshold_factor"],
                "suite": body["suite"],
            }
        )
        return body


def empirical_fsbv(
    T: LocationEstimator,
    X: DataSet,
    suite: AttackSuite | None = None,
    threshold_factor: float = DEFAULT_THRESHOLD_FACTOR,
) -> FsbvResult:
    """Sweep replacement budgets m = 1..ceil(n/2) through the attack suite.

    For each m the suite runs every shear frame (h = 1..k, all admissible
    facets, all kept-subset choices, both partition rules, both dual
    families when they fit the budget) and the translation cluster attack
    along +/- each coordinate axis. Each budget walks the (label, trace) of
    every attack in that order, h ascending and best facet first, and
    stops at the first trace that diverges, which becomes the witness;
    ``attack_families_tried`` lists the attacks up to and including it.
    The attacks settle ahead of the walk in batches of 1, 2, 4, ... in walk
    order, each within ``_BATCH_FLOATS`` coordinates of contaminated data:
    a budget that survives takes a few evaluator calls, one that breaks
    early settles little past its witness. A batch that raises is dropped
    and the rest of the budget settles attack by attack, so the error is
    the one the walk meets first, and none once a trace has diverged.
    A pinned face reached through several facets (h < k) is one frame,
    swept once per budget and partition yet listed under every facet's
    label: a repeat has its twin's distances, and the twin ran earlier at
    the same budget without diverging, so the repeat changes neither the
    witness nor ``max_distance``.
    The certified fraction is the smallest m whose certificate is "broken",
    as the unreduced pair (m, n); when nothing breaks the result carries the
    survived marker instead of a fabricated fraction. ``threshold_factor``
    must be finite and >= 1e3.
    """
    if not (1e3 <= threshold_factor < np.inf):
        raise ParameterError(f"threshold_factor must be finite and at least 1e3, "
                             f"got {threshold_factor!r}")
    suite = suite or AttackSuite()
    n, k = X.n, X.k
    attacks = _Attacks(T, X, suite, threshold_factor)
    shears = []  # (label, facet, frame, b_rule) per listed shear attack, h ascending
    if k >= 2:
        require_general_position(X, "empirical_fsbv")
        shears = [(f"shear(h={len(frame.kept)},facet={facet.indices},rule={b_rule})", facet, frame, b_rule)
                  for facet, frame in _shear_frames(attacks) for b_rule in _PARTITION_RULES]
    # attacks per batch: a sweep has two families, a cluster attack one
    cap = max(1, _BATCH_FLOATS // (max(2 * len(suite.gamma_grid), len(suite.radius_grid)) * n * k))
    # plain floats, so the labels read the same under every numpy version
    directions = [tuple(row) for row in np.vstack([np.eye(k), -np.eye(k)]).tolist()]
    clusters = [(f"cluster(direction={direction})", False) for direction in directions]
    units = [unit_direction(direction) for direction in directions]

    def traces(m):
        """(label, trace) of every attack of the suite at budget m, lazily;
        the trace is None for a sweep that repeats one made at this budget.
        Batches hold at most ``cap`` attacks."""
        listed, sweeps = [], []  # (label, repeats a sweep); (facet, frame, b_rule) per sweep
        swept = set()  # (frame, partition) of every shear sweep at m
        for label, facet, frame, b_rule in shears:
            if m > n - len(frame.kept):
                continue
            key = frame, frame.partition(m, b_rule)
            listed.append((label, key in swept))
            if key not in swept:
                swept.add(key)
                sweeps.append((facet, frame, b_rule))
        listed += clusters
        S = len(sweeps)
        i, end, size = 0, 0, 1  # the next attack; the end of the batches; the next batch size
        ahead = iter(())  # the entries of the last batch not yet handed on
        for label, repeat in listed:
            if repeat:
                yield label, None
                continue
            if i == end and size:
                try:
                    batch = [(frame, b_rule) for _, frame, b_rule in sweeps[end:end + size]]
                    ahead = iter(_settle(attacks, m, batch, units[max(end - S, 0):max(end + size - S, 0)]))
                    end, size = end + size, min(2 * size, cap)
                except RoblocError:
                    size = 0
            if i < S:
                facet, frame, b_rule = sweeps[i]
                yield label, _run_shear_sweep(attacks, facet, frame, m, b_rule, next(ahead, None))
            else:
                yield label, _cluster_attack(attacks, m, units[i - S], next(ahead, None))
            i += 1

    certificates = {}
    for m in range(1, -(-n // 2) + 1):
        tried = []
        max_distance = 0.0
        witness = None
        for label, trace in traces(m):
            tried.append(label)
            if trace is None:
                # its twin ran earlier at m with the same distances and did
                # not diverge, so neither does it, nor does it raise the max
                continue
            max_distance = max(max_distance, trace.max_distance)
            if trace.diverged:
                witness = trace
                break
        certificates[m] = BreakdownCertificate(
            m=m,
            n=n,
            status="survived" if witness is None else "broken",
            attack_families_tried=tuple(tried),
            max_distance=max_distance,
            witness=witness,
        )
    broken = [m for m, c in certificates.items() if c.status == "broken"]
    return FsbvResult(
        estimator=T.name,
        n=n,
        k=k,
        fraction=(broken[0], n) if broken else None,
        certificates=certificates,
        threshold_factor=threshold_factor,
        suite=suite,
    )


# ---------------------------------------------------------------------------
# Projection-median counterexample generator
# ---------------------------------------------------------------------------


def pm_counterexample(m: int, delta: float, noise_scale: float = 0.1, seed: int = 0) -> DataSet:
    """Bivariate dataset on which the projection median collapses to the
    origin as delta shrinks.

    Two anchor points sit at (0, +/-delta). m points lie near the diagonal
    y = x with abscissas equispaced on [10, 20] and ordinates x_i plus
    delta times bounded noise; their m mirror images across the x-axis lie
    near y = -x. The n = 2m + 2 points are redrawn until they pass the
    general-position test.
    """
    m = require_integer(m, "m", None)
    if m < 2:
        raise ParameterError(f"need m >= 2, got {m}")
    if not (0.0 < delta < 1.0):
        raise ParameterError(f"need 0 < delta < 1, got {delta}")
    if not (0.0 < noise_scale < np.inf):
        raise ParameterError(f"need finite noise_scale > 0, got {noise_scale}")
    rng = np.random.default_rng(require_integer(seed, "seed"))
    xs = np.linspace(10.0, 20.0, m)
    for _ in range(200):
        noise = rng.uniform(-noise_scale, noise_scale, size=m)
        ys = xs + delta * noise
        pts = np.vstack(
            [
                [0.0, delta],
                [0.0, -delta],
                np.column_stack([xs, ys]),
                np.column_stack([xs, -ys]),
            ]
        )
        X = DataSet(pts)
        if check_general_position(X).ok:
            return X
    raise GeneralPositionError(
        f"counterexample generator exhausted its redraw budget (m={m}, delta={delta})"
    )
