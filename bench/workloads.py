"""Seeded workloads of the certification benchmark and their correctness checks.

Every workload is a fixed list of operations built from the run seed:
dataset seeds, probe seeds and ``cone_seed`` are all derived from it. Each
operation carries an independent check of its output, so a fast wrong
answer never counts.

Why each workload exists (which layer it loads, and which layer it bypasses)
is recorded in ``BENCHMARK.json`` and in the docstrings of the builders.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Probe budget of the tmean and pm estimators when built with defaults.
PROBE_COUNT = 2000
PM_DELTAS = (1e-1, 1e-2, 1e-3)
PM_SCENARIO_M = 10
EQUIVARIANCE_TRIALS = 2


@dataclass(frozen=True)
class Op:
    """One timed operation and the check of its output."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when the output is right


def subseed(seed: int, *tags: int) -> int:
    """Independent 32-bit seed for one input of the run."""
    return int(np.random.SeedSequence([int(seed), *tags]).generate_state(1)[0])


def emit_fsbv(result, seed) -> str:
    """Serialise a certification as ``robloc fsbv`` writes it to stdout."""
    payload = result.to_dict()
    payload["command"] = "fsbv"
    payload["seed"] = seed
    return json.dumps(payload, sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# certify-* workloads: one operation is one empirical_fsbv call
# ---------------------------------------------------------------------------

# (estimator, (n, k), datasets per pass)
CERTIFY = {
    # Exhaustive MCD dominates; depth is never called. The exact-in-gamma
    # MCD sweep should show here and nowhere else.
    "certify-mcd": (("mcd", (9, 2), 16), ("mcd", (8, 3), 6)),
    # Probe construction and the outlyingness kernel dominate; MCD is never
    # called. The projection-median LP and batched probes should show here.
    "certify-probe": (("pm", (5, 2), 5), ("tmean", (10, 2), 2)),
    # A cheap estimator, so the engine and geometry dominate: frames, the
    # general-position screen, shears, preimage checks and set distances.
    # The MCD and probe mechanisms are bypassed.
    "certify-engine": (("cmedian", (7, 3), 12), ("cmedian", (12, 2), 6)),
}
# Group sizes are unequal on purpose: the latency median falls inside the
# larger group and the tail inside the slower one, never in the gap between
# two groups, where it would jump with every dataset.


def expected_fraction(rb, estimator: str, n: int, k: int) -> tuple:
    """The exact breakdown table each certification must reproduce."""
    table = rb.theoretical_bounds(n, k, k)
    return {
        "mcd": table.scatter,
        "cmedian": table.translation,
        "pm": table.projection_median,
        "tmean": (2, n),  # trim_count 1
    }[estimator]


def _certify_op(rb, estimator, X, seed, label) -> tuple:
    T = rb.make_estimator(estimator, seed=seed)
    suite = rb.AttackSuite(cone_seed=seed)
    expected = expected_fraction(rb, estimator, X.n, X.k)

    def run():
        result = rb.empirical_fsbv(T, rb.DataSet(X.points), suite=suite)
        emit_fsbv(result, seed)
        return result

    def check(result):
        if result.fraction != expected:
            return f"certified {result.fraction}, table says {expected}"
        return None

    return Op(label, run, check), lambda: T(X)


def build_certify(rb, workload: str, seed: int) -> tuple:
    ops, warmups = [], []
    for estimator, shape, count in CERTIFY[workload]:
        n, k = shape
        for i in range(count):
            X = rb.random_gp_dataset(n, k, seed=subseed(seed, n, k, i))
            label = f"fsbv {estimator} GP({n},{k})#{i}"
            op, warmup = _certify_op(rb, estimator, X, subseed(seed, 7, i), label)
            ops.append(op)
            warmups.append(warmup)
    return ops, warmups[0]


# ---------------------------------------------------------------------------
# estimate-direct: estimator, condition and equivariance calls on clean data
# ---------------------------------------------------------------------------

DIRECT_SHAPES = ((14, 2), (16, 2), (12, 3), (9, 4))
DIRECT_DATASETS_PER_SHAPE = 8


def outlyingness(points: np.ndarray, queries: np.ndarray, dirs: np.ndarray, shift: int) -> np.ndarray:
    """Projection outlyingness computed from scratch over the given probes.

    Median midpoint and the ceil((n+shift+1)/2)-th smallest absolute
    deviation per direction; +inf where a zero scale meets a nonzero
    numerator.
    """
    n = points.shape[0]
    proj = points @ dirs.T
    med = np.median(proj, axis=0)
    rank = min(-(-(n + shift + 1) // 2), n)
    scale = np.sort(np.abs(proj - med), axis=0)[rank - 1]
    num = np.abs(queries @ dirs.T - med)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(scale > 0, num / scale, np.where(num > 0, np.inf, 0.0))
    return ratio.max(axis=1)


class _Probes:
    """Probe directions per (dataset, seed), computed once on first check."""

    def __init__(self, rb):
        self.rb = rb
        self.cache = {}

    def __call__(self, X, seed) -> np.ndarray:
        key = (id(X), seed)
        if key not in self.cache:
            budget = self.rb.DirectionBudget(PROBE_COUNT, True, seed)
            self.cache[key] = (X, self.rb.depth.direction_set(X, budget))
        return self.cache[key][1]


def _scale(X) -> float:
    return max(1.0, float(np.abs(X.points).max()))


def _check_cmedian(X):
    def check(est):
        want = np.median(X.points, axis=0)
        if np.abs(est.canonical - want).max() > 1e-12 * _scale(X):
            return f"cmedian {est.canonical} != np.median {want}"
        return None
    return check


def _check_mcd(X, seed):
    rng = np.random.default_rng(seed)

    def check(res):
        sub = list(res.optimal_subsets[0])
        P = X.points[sub]
        if np.abs(res.estimates.canonical - P.mean(axis=0)).max() > 1e-9 * _scale(X):
            return "mcd canonical is not the mean of its optimal subset"
        det = float(np.linalg.det(np.atleast_2d(np.cov(P.T))))
        if abs(det - res.objective) > 1e-6 * abs(res.objective):
            return f"mcd subset determinant {det} != objective {res.objective}"
        h = len(sub)
        for _ in range(32):
            other = X.points[rng.choice(X.n, size=h, replace=False)]
            d = float(np.linalg.det(np.atleast_2d(np.cov(other.T))))
            if 0.0 < d < res.objective * (1.0 - 1e-6):
                return f"mcd objective {res.objective} beaten by a subset with {d}"
        return None
    return check


def _check_tmean(X, probes, seed):
    def check(est):
        pts = X.points
        drop_one = (pts.sum(axis=0) - pts) / (X.n - 1)
        gaps = np.abs(drop_one - est.canonical).max(axis=1)
        i = int(np.argmin(gaps))
        if gaps[i] > 1e-9 * _scale(X):
            return "tmean is not the mean of all points but one"
        scores = outlyingness(pts, pts, probes(X, seed), 0)
        if scores[i] < scores.max() * (1.0 - 1e-9):
            return f"tmean dropped point {i}, which is not the most outlying"
        return None
    return check


def _check_pm(X, probes, seed, collapse=False):
    def check(est):
        pts = X.points
        rivals = np.vstack([pts, np.median(pts, axis=0)])
        dirs = probes(X, seed)
        mine = float(outlyingness(pts, est.canonical.reshape(1, -1), dirs, X.k - 1)[0])
        best = float(outlyingness(pts, rivals, dirs, X.k - 1).min())
        if mine > best * (1.0 + 1e-9) + 1e-12:
            return f"pm outlyingness {mine} exceeds a data point or the cmedian ({best})"
        if collapse and np.linalg.norm(est.canonical) >= 0.1:
            return f"pm did not collapse: |pm| = {np.linalg.norm(est.canonical)}"
        return None
    return check


def _check_condition(h):
    def check(rep):
        if not rep.probes:
            return "condition report has no probes"
        if rep.min_margin != min(p.margin for p in rep.probes):
            return "condition min_margin is not the minimum probe margin"
        for p in rep.probes:
            y = p.sorted_projections
            if len(p.tied_indices) != h or y[h - 1] - y[0] > rep.tolerance:
                return f"probe does not tie {h} points"
            if h < len(y) and y[h] - y[h - 1] <= rep.tolerance:
                return f"probe ties more than {h} points"
            if abs(np.linalg.norm(p.direction) - 1.0) > 1e-9:
                return "probe direction is not unit-norm"
        return None
    return check


def _check_equivariance(rep):
    return None if rep.passed else f"equivariance failed: {rep.max_discrepancy}"


def build_direct(rb, seed: int) -> tuple:
    """Each estimator once per fresh dataset, h = 1..k margins, one
    equivariance sweep, and the projection-median collapse scenario.

    Operations rebuild their DataSet on every call, so nothing the package
    caches on a dataset object carries over from one pass to the next.

    One call per dataset and no gamma reuse: a cache or sweep
    specialisation that helps certify-* but costs per dataset shows here.
    This is the only workload that runs ``conditions``.
    """
    probes = _Probes(rb)
    fresh = rb.DataSet
    probe_seed = subseed(seed, 1)
    cmed = rb.make_estimator("cmedian")
    mcd = rb.make_estimator("mcd")
    tmean = rb.make_estimator("tmean", seed=probe_seed)
    pm = rb.make_estimator("pm", seed=probe_seed)
    ops = []
    for n, k in DIRECT_SHAPES:
        for i in range(DIRECT_DATASETS_PER_SHAPE):
            X = rb.random_gp_dataset(n, k, seed=subseed(seed, n, k, i))
            P = X.points
            tag = f"GP({n},{k})#{i}"
            s = subseed(seed, 2, n, k, i)
            ops += [
                Op(f"cmedian {tag}", lambda P=P: cmed(fresh(P)), _check_cmedian(X)),
                Op(f"mcd {tag}", lambda P=P: rb.estimators.mcd_exhaustive(fresh(P)),
                   _check_mcd(X, s)),
                Op(f"tmean {tag}", lambda P=P: tmean(fresh(P)), _check_tmean(X, probes, probe_seed)),
                Op(f"pm {tag}", lambda P=P: pm(fresh(P)), _check_pm(X, probes, probe_seed)),
            ]
            ops += [
                Op(f"condition h={h} {tag}",
                   lambda P=P, h=h: rb.conditions.condition_margin(cmed, fresh(P), h, seed=s),
                   _check_condition(h))
                for h in range(1, k + 1)
            ]
            ops.append(Op(
                f"equivariance {tag}",
                lambda P=P: rb.conditions.check_equivariance(
                    mcd, fresh(P), "affine", trials=EQUIVARIANCE_TRIALS, seed=s),
                _check_equivariance,
            ))
    scenario_seed = subseed(seed, 3)
    for delta in PM_DELTAS:
        Z = rb.pm_counterexample(PM_SCENARIO_M, delta, seed=scenario_seed)
        ops.append(Op(f"pm collapse delta={delta}", lambda P=Z.points: pm(fresh(P)),
                      _check_pm(Z, probes, probe_seed, collapse=delta == min(PM_DELTAS))))
    return ops, ops[0].run


WORKLOADS = ("certify-mcd", "certify-probe", "certify-engine", "estimate-direct")


def build(rb, workload: str, seed: int) -> tuple:
    """(operations, warm-up call) of a workload at a seed."""
    if workload == "estimate-direct":
        return build_direct(rb, seed)
    return build_certify(rb, workload, seed)
