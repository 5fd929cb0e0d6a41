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
from .errors import NoAdmissibleDirectionError, ParameterError, RoblocError, require_integer
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
    tie_levels,
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


def _tie_probes(X: DataSet, h: int, seed: int, tol: float) -> list:
    """(direction, face, level) of every probe of :func:`condition_margin`.
    For h < k one generator serves the h-point hull faces (the h-subsets of
    the facets) in lexicographic order. For h > k a data-hyperplane normal,
    either way, takes its h smallest projections (stable order) as its face
    and is kept once per face and direction if :func:`tie_levels` admits it."""
    if h > X.k:
        normals, degenerate = hyperplane_normal(X.points[subset_index(X.n, X.k)])
        U = np.stack([normals[~degenerate], -normals[~degenerate]], axis=1).reshape(-1, X.k)
        proj = np.matmul(X.points[None], U[:, :, None])[:, :, 0]
        faces = np.sort(np.argsort(proj, axis=1, kind="stable")[:, :h], axis=1)
        levels = tie_levels(proj, faces, tol)
        tied = ~np.isnan(levels)
        probes = {}  # (face, direction to 12 decimals) -> its first probe
        for u, face, level in zip(U[tied], faces[tied].tolist(), levels[tied].tolist()):
            probes.setdefault((tuple(face), tuple(round(v, 12) for v in u.tolist())), (u, face, level))
        return list(probes.values())
    require_general_position(X, "condition_margin")
    facets = enumerate_facets(X)
    if h == X.k:
        return [(f.inward_normal, f.indices, f.support_value) for f in facets]
    rng = np.random.default_rng(seed)
    faces = sorted({sub for f in facets for sub in combinations(f.indices, h)})
    return [(u, face, level) for face in faces
            for u, level, _ in normal_cone_ties(X, facets, face, rng, _CONE_SAMPLES_PER_FACE, tol)]


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

    ``h`` must be an integer in [1, n], else a ParameterError. Raises
    :class:`NoAdmissibleDirectionError` when no direction could be
    verified; a missing direction is reported, never fabricated.
    """
    h = require_integer(h, "h", 1)
    if h > X.n:
        raise ParameterError(f"h must be in [1, n] = [1, {X.n}], got {h}")
    require_integer(seed, "seed")
    tol = GP_RTOL * max(X.diameter, 1e-300)
    found = _tie_probes(X, h, seed, tol)
    if not found:
        raise NoAdmissibleDirectionError(
            f"no admissible direction with an exact {h}-fold tie was found"
        )
    directions, faces, levels = zip(*found)
    directions = np.array(directions)
    # stacked 1-row products reproduce ``X.points @ u`` and ``members @ u``
    # of each probe bit for bit; one 2-D product does not
    sorted_projections = np.sort(np.matmul(X.points[None], directions[:, :, None])[:, :, 0], axis=1)
    margins = np.matmul(T(X).members[None], directions[:, :, None])[:, :, 0].min(axis=1) - np.array(levels)
    probes = [ConditionProbe(direction=u, sorted_projections=row, tied_indices=tuple(map(int, face)), margin=margin)
              for u, row, face, margin in zip(directions, sorted_projections, faces, margins.tolist())]
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
    ``trials`` must be a positive integer: no trial is no evidence. T(X)
    is computed once, before the trials.
    """
    if eq_class not in ("translation", "affine"):
        raise ParameterError(f"unknown equivariance class {eq_class!r}")
    trials = require_integer(trials, "trials", 1)
    rng = np.random.default_rng(require_integer(seed, "seed"))
    scale = max(X.diameter, 1.0)
    estimate = T(X).members
    worst = 0.0
    for _ in range(trials):
        if eq_class == "translation":
            g = AffineMap.translation(rng.normal(scale=scale, size=X.k))
        else:
            g = _random_affine(rng, X.k, scale)
        gX = apply_map(g, X)
        lhs = T(gX).members
        rhs = g.apply(estimate)
        denom = max(1.0, gX.diameter)
        worst = max(worst, hausdorff_set_distance(lhs, rhs) / denom)
    return EquivarianceReport(
        estimator=T.name,
        equivariance_class=eq_class,
        trials=trials,
        max_discrepancy=worst,
        tolerance=tolerance,
        passed=bool(worst <= tolerance),
    )
