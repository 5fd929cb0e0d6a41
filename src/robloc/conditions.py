"""Executable boundary-margin and depth conditions for location estimators.

The central check: along any direction in which exactly h data points tie
at the minimal projection, a well-behaved estimator's projection should
exceed that minimum by a positive margin. For h = k the admissible
directions are precisely the inward facet normals of the hull; for h < k
they fill the normal cone of each h-point face, which is sampled.

Empirical verdicts here are evidence, not proofs: a failed probe is a real
counterexample, but "all probes passed" only means no violation was found.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .dataset import DataSet
from .depth import DirectionBudget, tukey_depth
from .errors import NoAdmissibleDirectionError, ParameterError, RoblocError
from .estimators import LocationEstimator
from .geometry import (
    GP_RTOL,
    AffineMap,
    apply_map,
    enumerate_facets,
    hyperplane_normal,
    normal_cone_ties,
    require_general_position,
    subset_index,
)
from .metric import hausdorff_set_distance

__all__ = [
    "ConditionProbe",
    "ConditionReport",
    "condition_margin",
    "DepthConditionReport",
    "depth_condition",
    "EquivarianceReport",
    "check_equivariance",
]

_CONE_SAMPLES_PER_FACE = 32


@dataclass(frozen=True)
class ConditionProbe:
    direction: np.ndarray = field(repr=False)
    sorted_projections: np.ndarray = field(repr=False)
    tied_indices: tuple
    margin: float

    def to_dict(self) -> dict:
        return {
            "direction": [float(v) for v in self.direction],
            "sorted_projections": [float(v) for v in self.sorted_projections],
            "tied_indices": list(self.tied_indices),
            "margin": float(self.margin),
        }


@dataclass(frozen=True)
class ConditionReport:
    """Margins of an estimator above tied minimal projections.

    ``min_margin`` is the minimum over all probes and all estimate members;
    ``holds_empirically`` records whether it clears the relative tolerance.
    The verdict is explicitly non-probative for "holds": sampling can only
    ever find violations.
    """

    h: int
    probes: tuple
    min_margin: float
    tolerance: float
    holds_empirically: bool

    def to_dict(self) -> dict:
        return {
            "h": self.h,
            "probes": [p.to_dict() for p in self.probes],
            "min_margin": float(self.min_margin),
            "tolerance": float(self.tolerance),
            "holds_empirically": self.holds_empirically,
            "verdict_kind": "empirical (sampling finds violations, never proofs)",
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _face_probes_exact(X: DataSet, facets) -> list:
    """Facet normals tie exactly k minimal projections by construction."""
    probes = []
    for f in facets:
        proj = X.points @ f.inward_normal
        probes.append((f.inward_normal, f.indices, float(f.support_value), proj))
    return probes


def _face_probes_sampled(X: DataSet, facets, h: int, seed: int, per_face: int, tol: float) -> list:
    """Verified directions from the normal cone of each h-point hull face.

    Every h-subset of a facet of a simplicial hull is a face. One generator
    serves all faces in lexicographic order, ``per_face`` draws each.
    """
    rng = np.random.default_rng(seed)
    faces = sorted({sub for f in facets for sub in combinations(f.indices, h)})
    return [
        (u, face, level, proj)
        for face in faces
        for u, level, proj in normal_cone_ties(X, facets, face, rng, per_face, tol)
    ]


def _tie_probes_from_data_normals(X: DataSet, h: int, tol: float) -> list:
    """Verified h-fold-tie directions among data-hyperplane normals.

    Serves the h > k extension, which only bites on degenerate data (an
    h-fold tie with h > k requires h points on a hyperplane, so general
    position is deliberately not required here). Ties of that kind can only
    occur along a normal of a hyperplane through k data points.
    """
    pts = X.points
    n = X.n
    normals, degenerate = hyperplane_normal(pts[subset_index(n, X.k)])
    probes = []
    seen = set()
    for normal in normals[~degenerate]:
        for u in (normal, -normal):
            proj = pts @ u
            order = np.argsort(proj, kind="stable")
            y = proj[order]
            if y[h - 1] - y[0] > tol:
                continue
            if h < n and y[h] - y[h - 1] <= tol:
                continue
            tied = tuple(sorted(int(i) for i in order[:h]))
            key = (tied, tuple(round(float(v), 12) for v in u))
            if key in seen:
                continue
            seen.add(key)
            probes.append((u, tied, float(np.mean(proj[list(tied)])), proj))
    return probes


def condition_margin(T: LocationEstimator, X: DataSet, h: int, seed: int = 0) -> ConditionReport:
    """Measure the estimator's margin above every verified h-tie direction.

    For h = k the probes are all inward facet normals (exact k-fold ties by
    construction). For h < k, 32 directions per h-point hull face are drawn
    from its normal cone with ``seed`` and admitted only after reproducing
    the tie pattern within tolerance. The margin of a probe is the minimum over
    estimate members of (u . member - tied minimum).

    h > k is the degenerate-data extension: general position is not
    required there (an h-fold tie with h > k cannot occur under it), and
    candidate directions come from data-hyperplane normals instead of hull
    faces.

    Raises :class:`NoAdmissibleDirectionError` when no direction could be
    verified; a missing direction is reported, never fabricated.
    """
    if h < 1:
        raise ParameterError(f"h must be >= 1, got {h}")
    tol = GP_RTOL * max(X.diameter, 1e-300)
    if h <= X.k:
        require_general_position(X, "condition_margin")
        facets = enumerate_facets(X)
        if h == X.k:
            raw = _face_probes_exact(X, facets)
        else:
            raw = _face_probes_sampled(X, facets, h, seed, _CONE_SAMPLES_PER_FACE, tol)
    else:
        raw = _tie_probes_from_data_normals(X, h, tol)
    if not raw:
        raise NoAdmissibleDirectionError(
            f"no admissible direction with an exact {h}-fold tie was found"
        )
    members = T(X).members
    probes = []
    for u, tied, level, proj in raw:
        margin = float(np.min(members @ u) - level)
        probes.append(
            ConditionProbe(
                direction=u,
                sorted_projections=np.sort(proj),
                tied_indices=tuple(int(i) for i in tied),
                margin=margin,
            )
        )
    min_margin = min(p.margin for p in probes)
    return ConditionReport(
        h=h,
        probes=tuple(probes),
        min_margin=min_margin,
        tolerance=tol,
        holds_empirically=bool(min_margin > tol),
    )


@dataclass(frozen=True)
class DepthConditionReport:
    depth: int
    required: int
    satisfied: bool
    mode: str
    margin_report: ConditionReport | None

    def to_dict(self) -> dict:
        return {
            "depth": self.depth,
            "required": self.required,
            "satisfied": self.satisfied,
            "mode": self.mode,
            "depth_is_upper_bound": self.mode == "sampled",
            "margin_report": None if self.margin_report is None else self.margin_report.to_dict(),
        }


def depth_condition(
    T: LocationEstimator, X: DataSet, budget: DirectionBudget | None = None
) -> DepthConditionReport:
    """Check halfspace depth of the estimate against the k+1 floor.

    Exact in the plane; in higher dimensions the sampled depth is an upper
    bound and the report says so. Whenever the exact check is satisfied,
    the k-tie margin condition must also hold; a violation of that
    implication is a genuine bug and raises.
    """
    k = X.k
    members = T(X).members
    if k == 2:
        mode = "exact2d"
        depths = [tukey_depth(m, X, mode="exact2d") for m in members]
    else:
        if budget is None:
            raise ParameterError("depth_condition needs a direction budget when k != 2")
        mode = "sampled"
        depths = [tukey_depth(m, X, mode="sampled", budget=budget) for m in members]
    depth = int(min(depths))
    satisfied = depth >= k + 1
    margin_report = None
    if satisfied and mode == "exact2d":
        margin_report = condition_margin(T, X, k)
        if not margin_report.holds_empirically:
            raise RoblocError(
                "estimate has halfspace depth >= k+1 but sits on the hull "
                f"boundary (min margin {margin_report.min_margin:.3e}); "
                "this should be impossible"
            )
    return DepthConditionReport(
        depth=depth,
        required=k + 1,
        satisfied=satisfied,
        mode=mode,
        margin_report=margin_report,
    )


@dataclass(frozen=True)
class EquivarianceReport:
    estimator: str
    equivariance_class: str
    trials: int
    max_discrepancy: float  # relative to per-trial data scale
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "estimator": self.estimator,
            "equivariance_class": self.equivariance_class,
            "trials": self.trials,
            "max_discrepancy": float(self.max_discrepancy),
            "tolerance": float(self.tolerance),
            "passed": self.passed,
        }


def _random_affine(rng: np.random.Generator, k: int, scale: float) -> AffineMap:
    """Random nonsingular map with condition number <= 1e3."""
    q1, _ = np.linalg.qr(rng.standard_normal((k, k)))
    q2, _ = np.linalg.qr(rng.standard_normal((k, k)))
    svals = 10.0 ** rng.uniform(-1.5, 1.5, size=k)
    b = rng.normal(scale=scale, size=k)
    return AffineMap(q1 @ np.diag(svals) @ q2.T, b)


def check_equivariance(
    T: LocationEstimator,
    X: DataSet,
    eq_class: str,
    trials: int,
    seed: int,
    tolerance: float = 1e-8,
) -> EquivarianceReport:
    """Compare T(g(X)) with g(T(X)) over random group elements.

    ``eq_class`` selects pure translations or full nonsingular affine maps
    (condition number capped at 1e3). Estimate sets are compared with the
    symmetric Hausdorff distance, normalized by the transformed data scale.
    """
    if eq_class not in ("translation", "affine"):
        raise ParameterError(f"unknown equivariance class {eq_class!r}")
    rng = np.random.default_rng(seed)
    scale = max(X.diameter, 1.0)
    worst = 0.0
    for _ in range(int(trials)):
        if eq_class == "translation":
            g = AffineMap.translation(rng.normal(scale=scale, size=X.k))
        else:
            g = _random_affine(rng, X.k, scale)
        gX = apply_map(g, X)
        lhs = T(gX).members
        rhs = g.apply(T(X).members)
        denom = max(1.0, gX.diameter)
        worst = max(worst, hausdorff_set_distance(lhs, rhs) / denom)
    return EquivarianceReport(
        estimator=T.name,
        equivariance_class=eq_class,
        trials=int(trials),
        max_discrepancy=worst,
        tolerance=tolerance,
        passed=bool(worst <= tolerance),
    )
