"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is pinned here, not configured elsewhere.
"""

import functools
import math
from fractions import Fraction
from itertools import permutations

import numpy as np

from robloc import (
    DataSet,
    DirectionBudget,
    bundled_dataset,
    check_equivariance,
    condition_margin,
    depth_condition,
    empirical_fsbv,
    make_estimator,
    pm_counterexample,
    random_gp_dataset,
    sample_distance,
    shear_attack,
    theoretical_bounds,
    univariate_median,
    weighted_mean,
)
from robloc.depth import OutlyingnessEvaluator
from robloc.estimators import EstimateSet, LocationEstimator
from robloc.geometry import AffineMap, apply_map, basis_from_normal, shear_transform
from robloc.metric import estimate_set_distance, hausdorff_set_distance, lipschitz_probe


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({title}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({title}): PASS")
        return run
    return wrap


@criterion(1, "bound table exactness, 1 <= h <= k < n <= 50")
def test_criterion_1_bound_tables():
    for n in range(2, 51):
        for k in range(1, n):
            for h in range(1, k + 1):
                table = theoretical_bounds(n, k, h)
                # independent re-derivation through exact rationals
                expected = {
                    "translation": math.floor(Fraction(n + 1, 2)),
                    "affine_condition_h": math.floor(Fraction(n - h + 1, 2)),
                    "scatter": math.floor(Fraction(n - k + 1, 2)),
                    "projection_median": math.floor(Fraction(n - k + 2, 2)),
                }
                got = {
                    "translation": table.translation,
                    "affine_condition_h": table.affine_condition_h,
                    "scatter": table.scatter,
                    "projection_median": table.projection_median,
                }
                for key, numerator in expected.items():
                    assert got[key] == (numerator, n), (n, k, h, key)


@criterion(2, "median breakdown sharpness in 1-D")
def test_criterion_2_median_sharpness():
    for name in ("demo5_1d", "demo9_1d"):
        X = bundled_dataset(name)
        n = X.n
        result = empirical_fsbv(make_estimator("cmedian"), X)
        assert result.fraction == ((n + 1) // 2, n)
        below = (n - 1) // 2
        cert = result.certificates[below]
        assert cert.status == "survived"
        assert cert.max_distance <= 2.0 * X.diameter
        # the suite's radius grid reaches 1e9
        assert max(result.suite.radius_grid) == 1e9


@criterion(3, "MCD breakdown bracket on the bundled n=10, k=2 dataset")
def test_criterion_3_mcd_bracket():
    X = bundled_dataset("demo10_2d")
    result = empirical_fsbv(make_estimator("mcd"), X)
    assert result.fraction == (4, 10)
    cert3 = result.certificates[3]
    assert cert3.status == "survived"
    assert cert3.max_distance <= 1e2 * X.diameter
    cert4 = result.certificates[4]
    assert cert4.status == "broken"
    assert cert4.witness is not None
    T = make_estimator("mcd")
    witness = cert4.witness.witness_record.dataset(X)
    assert estimate_set_distance(T(witness), T(X)) > 1e6 * X.diameter


@criterion(4, "weighted-mean margins and the depth implication")
def test_criterion_4_condition_machinery():
    checked_margin_probes = 0
    depth_satisfied_cases = 0
    for i in range(50):
        k = 2 if i % 2 == 0 else 3
        n = 6 + (i % 7)
        if n < k + 2:
            n = k + 2
        X = random_gp_dataset(n, k, seed=4000 + i)
        rng = np.random.default_rng(i)
        w = rng.uniform(0, 1, X.n)
        w[rng.choice(X.n, size=k + 1, replace=False)] = 1.0
        T = LocationEstimator("wfixed", "affine",
                              functools.partial(lambda wts, D: EstimateSet(weighted_mean(D, wts)), w))
        report = condition_margin(T, X, h=k)
        for probe in report.probes:
            y = probe.sorted_projections
            assert probe.margin >= (y[k] - y[k - 1]) / X.n - 1e-12
            checked_margin_probes += 1
        if k == 2:
            # depth >= k+1 must imply the margin condition; depth_condition
            # raises on any counterexample, none are allowed
            for T2 in (T, make_estimator("mcd"), make_estimator("cmedian")):
                dreport = depth_condition(T2, X)
                if dreport.satisfied:
                    depth_satisfied_cases += 1
                    assert dreport.margin_report is not None
                    assert dreport.margin_report.holds_empirically
    assert checked_margin_probes > 100
    assert depth_satisfied_cases > 0


@criterion(5, "sample metric equals the factorial oracle on 500 seeded pairs")
def test_criterion_5_metric_oracle():
    perms_by_n = {n: np.array(list(permutations(range(n)))) for n in range(1, 8)}
    rng = np.random.default_rng(55)
    for _ in range(500):
        n = int(rng.integers(1, 8))
        x = rng.uniform(-100, 100, n)
        y = rng.uniform(-100, 100, n)
        brute = np.abs(x[None, :] - y[perms_by_n[n]]).max(axis=1).min()
        assert sample_distance(x, y) == brute


@criterion(6, "median Lipschitz and monotonicity properties")
def test_criterion_6_median_properties():
    rng = np.random.default_rng(66)
    x = rng.uniform(0, 10, 9)
    delta = 0.4177
    worst = lipschitz_probe(univariate_median, x, delta, trials=1000, seed=660)
    assert worst <= delta + 1e-12
    for trial in range(1000):
        n = int(rng.integers(1, 16))
        a = rng.uniform(-5, 5, n)
        b = a + rng.uniform(0, 2, n)
        ma, mb = univariate_median(a), univariate_median(b)
        assert ma.low <= mb.low and ma.high <= mb.high


@criterion(7, "projection-median collapse scenario")
def test_criterion_7_pm_counterexample():
    M_CONST = 100.0
    deltas = (1e-1, 1e-2, 1e-3)
    for noise_scale in (0.05, 0.1, 0.5):
        for seed in (101, 202, 303):
            norms, outs, margins = [], [], []
            for delta in deltas:
                Z = pm_counterexample(10, delta, noise_scale=noise_scale, seed=seed)
                assert Z.n == 22
                T = make_estimator("pm", seed=seed)
                est = T(Z)
                norms.append(float(np.linalg.norm(est.canonical)))
                evaluator = OutlyingnessEvaluator(Z, Z.k - 1, DirectionBudget(2000, True, seed))
                outs.append(float(evaluator(np.zeros(2))))
                margins.append(condition_margin(T, Z, h=2).min_margin)
            # norm non-increasing in delta within 10% slack, small at 1e-3
            for a, b in zip(norms, norms[1:]):
                assert b <= 1.1 * a + 1e-12, (noise_scale, seed, norms)
            assert norms[-1] < 0.1
            # origin outlyingness uniformly below one constant
            assert max(outs) < M_CONST, (noise_scale, seed, outs)
            # the boundary margin collapses with delta
            assert margins[-1] < 0.05
            assert margins[-1] <= margins[0] + 0.01


@criterion(8, "equivariance suite")
def test_criterion_8_equivariance():
    X = bundled_dataset("demo10_2d")
    affine = check_equivariance(make_estimator("mcd"), X, "affine", trials=100, seed=88,
                                tolerance=1e-8)
    assert affine.passed, affine.max_discrepancy
    translation = check_equivariance(make_estimator("cmedian"), X, "translation",
                                     trials=100, seed=89)
    assert translation.passed
    assert translation.max_discrepancy == 0.0
    # documented failure: coordinatewise median under a quarter-turn-of-45deg
    square = DataSet(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
    R = AffineMap(np.array([[c, -s], [s, c]]), np.zeros(2))
    T = make_estimator("cmedian")
    lhs = T(apply_map(R, square)).members
    rhs = R.apply(T(square).members)
    assert hausdorff_set_distance(lhs, rhs) > 0.2


@criterion(9, "shear algebra and the dual-family identity")
def test_criterion_9_shear_algebra():
    rng = np.random.default_rng(99)
    u = rng.standard_normal(2)
    u /= np.linalg.norm(u)
    basis = basis_from_normal(u, rng.standard_normal(2))
    probe_pts = rng.standard_normal((5, 2)) * 3.0
    for _ in range(200):
        g1, g2 = rng.uniform(-1e4, 1e4, size=2)
        comp = shear_transform(g1, basis).compose(shear_transform(g2, basis))
        direct = shear_transform(g1 + g2, basis)
        scale = (1.0 + abs(g1) + abs(g2)) * float(np.abs(probe_pts).max())
        dev = np.abs(comp.apply(probe_pts) - direct.apply(probe_pts)).max()
        assert dev <= 1e-9 * scale
    # the preimage identity is checked inline on every sweep step and raises
    # on violation; these runs cover both tie orders and both partition rules
    X = bundled_dataset("demo10_2d")
    from robloc.breakdown import PartitionRule

    for h in (1, 2):
        for rule in ("largest_projection", "smallest_projection"):
            trace = shear_attack(make_estimator("mcd"), X, h=h,
                                 partition_rule=PartitionRule(b_rule=rule))
            assert any(r.family == "shear_replace_near" for r in trace.records)
            assert len(trace.records) == 2 * len(trace.parameters)
