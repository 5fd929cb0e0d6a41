import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robloc import (
    DataSet,
    DirectionBudget,
    check_equivariance,
    condition_margin,
    depth_condition,
    load_dataset_csv,
    make_estimator,
    random_gp_dataset,
    weighted_mean,
)
from robloc.conditions import _random_affine, _tie_probes
from robloc.errors import NoAdmissibleDirectionError, ParameterError
from robloc.estimators import EstimateSet, LocationEstimator
from robloc.geometry import GP_RTOL, AffineMap, apply_map, hyperplane_normal, subset_index
from robloc.metric import hausdorff_set_distance


def constant_estimator(point):
    p = np.asarray(point, dtype=float)
    return LocationEstimator("const", "translation", lambda X: EstimateSet(p))


def weights_estimator(weights):
    w = np.asarray(weights, dtype=float)
    return LocationEstimator(
        "wfixed", "affine", lambda X: EstimateSet(weighted_mean(X, w))
    )


def test_triangle_centroid_margins_match_plane_geometry(triangle):
    T = make_estimator("wmean")  # centroid
    report = condition_margin(T, triangle, h=2)
    # distances of (1/3, 1/3) above the three edge lines
    expected = {
        (0, 1): 1 / 3,            # y = 0 edge
        (0, 2): 1 / 3,            # x = 0 edge
        (1, 2): (1 / 3) / np.sqrt(2.0),  # x + y = 1 edge
    }
    assert len(report.probes) == 3
    for probe in report.probes:
        assert probe.margin == pytest.approx(expected[probe.tied_indices], rel=1e-12)
    assert report.holds_empirically
    assert report.min_margin == pytest.approx((1 / 3) / np.sqrt(2.0), rel=1e-12)


def test_margin_report_sorted_projections_tie(demo10):
    report = condition_margin(make_estimator("mcd"), demo10, h=2)
    for probe in report.probes:
        y = probe.sorted_projections
        assert y[0] == pytest.approx(y[1], abs=1e-9 * demo10.diameter)
        assert y[2] - y[1] > 0


def test_vertex_estimator_fails_condition(demo10):
    # an estimate pinned at a hull vertex has zero margin along that
    # vertex's cone directions
    from robloc.geometry import enumerate_facets

    vertex = enumerate_facets(demo10)[0].indices[0]
    T = constant_estimator(demo10.points[vertex])
    report = condition_margin(T, demo10, h=1, seed=5)
    assert not report.holds_empirically
    assert report.min_margin <= 1e-9 * demo10.diameter


def test_weighted_mean_margin_lower_bound():
    for seed in range(6):
        k = 2 if seed % 2 == 0 else 3
        X = random_gp_dataset(10, k, seed=200 + seed)
        rng = np.random.default_rng(seed)
        w = rng.uniform(0, 1, X.n)
        ones = rng.choice(X.n, size=k + 1, replace=False)
        w[ones] = 1.0
        report = condition_margin(weights_estimator(w), X, h=k)
        for probe in report.probes:
            y = probe.sorted_projections
            assert probe.margin >= (y[k] - y[k - 1]) / X.n - 1e-12


def test_condition_margin_h_below_k(demo10):
    report = condition_margin(make_estimator("mcd"), demo10, h=1, seed=3)
    assert report.holds_empirically
    assert report.min_margin > 0
    # every admitted probe ties exactly one point at the minimum
    for probe in report.probes:
        y = probe.sorted_projections
        assert y[1] - y[0] > report.tolerance
        assert len(probe.tied_indices) == 1


def test_condition_margin_edge_ties_in_3d():
    X = random_gp_dataset(9, 3, seed=55)
    report = condition_margin(make_estimator("mcd"), X, h=2, seed=9)
    assert report.holds_empirically
    for probe in report.probes:
        assert len(probe.tied_indices) == 2
        y = probe.sorted_projections
        assert y[1] - y[0] <= report.tolerance
        assert y[2] - y[1] > report.tolerance


def test_condition_margin_relabeling_invariance(demo10):
    T = make_estimator("mcd")
    base = condition_margin(T, demo10, h=2)
    perm = np.random.default_rng(9).permutation(demo10.n)
    Xp = DataSet(demo10.points[perm])
    shuffled = condition_margin(T, Xp, h=2)
    assert shuffled.min_margin == pytest.approx(base.min_margin, rel=1e-9)


def test_condition_margin_scales_homogeneously(demo10):
    T = make_estimator("mcd")
    base = condition_margin(T, demo10, h=2)
    c = 3.5
    scaled = condition_margin(T, DataSet(c * demo10.points), h=2)
    assert scaled.min_margin == pytest.approx(c * base.min_margin, rel=1e-9)


@pytest.mark.parametrize("h", [1, 2, 3])
def test_condition_margin_runs_where_subset_determinants_overflow(h):
    # determinants of these data reach about 1e333: the position check is
    # scale-free, so the report is the unscaled one scaled, not a false
    # hyperplane witness
    X = load_dataset_csv(Path(__file__).parent / "golden" / "gp8_3d.csv")
    T = make_estimator("cmedian")
    base = condition_margin(T, X, h, seed=0)
    huge = condition_margin(T, DataSet(1e110 * X.points), h, seed=0)
    assert [p.tied_indices for p in huge.probes] == [p.tied_indices for p in base.probes]
    assert huge.min_margin == pytest.approx(1e110 * base.min_margin, rel=1e-9)
    assert huge.holds_empirically == base.holds_empirically


def test_condition_margin_h_above_k_reports_no_direction(demo10):
    # under general position a 3-fold tie cannot occur in the plane
    with pytest.raises(NoAdmissibleDirectionError):
        condition_margin(make_estimator("mcd"), demo10, h=3)


def test_condition_margin_h_above_k_on_degenerate_data():
    # three collinear extreme points: the h = 3 > k = 2 extension applies
    # and general position is deliberately not required
    X = DataSet(np.array([
        [0.0, 0.0], [0.0, 1.0], [0.0, 2.0],
        [2.0, 0.4], [3.0, 1.9], [2.5, 1.1],
    ]))
    T = constant_estimator([2.0, 1.0])
    report = condition_margin(T, X, h=3)
    assert report.h == 3
    assert all(p.tied_indices == (0, 1, 2) for p in report.probes)
    assert report.min_margin == pytest.approx(2.0)
    assert report.holds_empirically


def test_tie_probes_keep_opposite_normals_with_zero_first_component():
    # three collinear points tie along both (0, 1) and (0, -1); the two
    # normals share their first component and must not be merged
    X = DataSet(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
    probes = _tie_probes(X, 3, 0, 1e-9 * X.diameter)
    assert sorted(tuple(float(v) for v in u) for u, *_ in probes) == [(0.0, -1.0), (0.0, 1.0)]


def sorted_gap_tie_probes(X, h, tol):
    """Oracle for the h > k probes, one direction at a time: along each
    data-hyperplane normal, both ways, the h smallest projections (stable
    order) span at most tol and the next one lies more than tol above
    them. (direction, face, level, projections), each (face, direction
    to 12 decimals) once."""
    pts = X.points
    normals, degenerate = hyperplane_normal(pts[subset_index(X.n, X.k)])
    probes, seen = [], set()
    for normal in normals[~degenerate]:
        for u in (normal, -normal):
            proj = pts @ u
            order = np.argsort(proj, kind="stable")
            y = proj[order]
            if y[h - 1] - y[0] > tol or (h < X.n and y[h] - y[h - 1] <= tol):
                continue
            face = tuple(sorted(int(i) for i in order[:h]))
            key = face, tuple(round(float(v), 12) for v in u)
            if key not in seen:
                seen.add(key)
                probes.append((u, face, float(np.mean(proj[list(face)])), proj))
    return probes


@st.composite
def integer_grid_cases(draw):
    k = draw(st.integers(2, 3))
    h = draw(st.integers(k + 1, k + 3))
    n = draw(st.integers(h, h + 4))
    rows = st.lists(st.integers(0, 3), min_size=k, max_size=k)
    return DataSet(np.array(draw(st.lists(rows, min_size=n, max_size=n)), dtype=float)), h


@settings(max_examples=150, deadline=None)
@given(integer_grid_cases())
def test_tie_probes_beyond_k_match_the_sorted_gap_oracle(case):
    # small integer grids put many points on one hyperplane, so h-fold
    # ties with h > k, and ties of more than h points, are common
    X, h = case
    tol = GP_RTOL * max(X.diameter, 1e-300)
    want = sorted_gap_tie_probes(X, h, tol)
    got = _tie_probes(X, h, 0, tol)
    assert [tuple(face) for _, face, _ in got] == [face for _, face, _, _ in want]
    for (u, _, level), (u0, _, level0, _) in zip(got, want):
        assert np.array_equal(u, u0)
        assert level == level0
    if want:
        report = condition_margin(constant_estimator(X.points[0]), X, h)
        assert len(report.probes) == len(want)
        for probe, (u0, face0, level0, proj0) in zip(report.probes, want):
            assert np.array_equal(probe.direction, u0) and probe.tied_indices == face0
            assert np.array_equal(probe.sorted_projections, np.sort(proj0))
            assert probe.margin == float(X.points[0] @ u0 - level0)


def test_condition_report_is_json_serializable(demo10):
    report = condition_margin(make_estimator("mcd"), demo10, h=2)
    parsed = json.loads(report.to_json())
    assert parsed["h"] == 2
    assert parsed["holds_empirically"] is True
    assert len(parsed["probes"]) == len(report.probes)


def test_depth_condition_regular_7gon_center():
    angles = 2 * np.pi * np.arange(7) / 7
    X = DataSet(np.column_stack([np.cos(angles), np.sin(angles)]))
    T = constant_estimator([0.0, 0.0])
    report = depth_condition(T, X)
    assert report.mode == "exact2d"
    assert report.depth >= 3
    assert report.satisfied
    assert report.margin_report is not None and report.margin_report.holds_empirically


def test_depth_condition_hull_vertex_not_satisfied(demo10):
    from robloc.geometry import enumerate_facets

    vertex = enumerate_facets(demo10)[0].indices[0]
    report = depth_condition(constant_estimator(demo10.points[vertex]), demo10)
    assert report.depth == 1
    assert not report.satisfied
    assert report.margin_report is None


def test_depth_condition_sampled_mode_reports_upper_bound():
    X = random_gp_dataset(8, 3, seed=77)
    T = make_estimator("wmean")
    report = depth_condition(T, X, budget=DirectionBudget(400, True, seed=5))
    assert report.mode == "sampled"
    assert report.to_dict()["depth_is_upper_bound"] is True
    with pytest.raises(ParameterError):
        depth_condition(T, X)  # k != 2 requires a budget


def test_cmedian_translation_equivariance_exact(demo10):
    report = check_equivariance(make_estimator("cmedian"), demo10, "translation", 50, seed=6)
    assert report.passed
    assert report.max_discrepancy == 0.0


def test_every_registry_estimator_is_translation_equivariant(demo10):
    estimators = [
        make_estimator("cmedian"),
        make_estimator("mcd"),
        make_estimator("wmean"),
        make_estimator("tmean", seed=2, random_count=200),
        make_estimator("pm", seed=2, random_count=200, grid_refinements=4),
    ]
    for T in estimators:
        report = check_equivariance(T, demo10, "translation", trials=100, seed=60,
                                    tolerance=1e-9)
        assert report.passed, (T.name, report.max_discrepancy)


def test_mcd_affine_equivariance(demo10):
    report = check_equivariance(make_estimator("mcd"), demo10, "affine", 30, seed=6)
    assert report.passed


def test_equivariance_evaluates_the_untransformed_estimate_once(demo10):
    calls = []
    mcd = make_estimator("mcd")
    counted = LocationEstimator("mcd", "affine", lambda X: calls.append(X) or mcd(X))
    report = check_equivariance(counted, demo10, "affine", 3, seed=6)
    assert report == check_equivariance(mcd, demo10, "affine", 3, seed=6)
    assert [X is demo10 for X in calls] == [True, False, False, False]


def test_fixed_weights_mean_affine_equivariance(demo10):
    w = np.zeros(demo10.n)
    w[[0, 2, 5, 7, 8]] = 1.0
    report = check_equivariance(weights_estimator(w), demo10, "affine", 30, seed=6)
    assert report.passed


def test_cmedian_fails_explicit_rotation(square_corners):
    # the documented negative test: a quarter-corner set rotated 45 degrees
    T = make_estimator("cmedian")
    c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
    R = AffineMap(np.array([[c, -s], [s, c]]), np.zeros(2))
    lhs = T(apply_map(R, square_corners)).members
    rhs = R.apply(T(square_corners).members)
    assert hausdorff_set_distance(lhs, rhs) > 0.2


def test_cmedian_fails_random_affine_suite(square_corners):
    report = check_equivariance(make_estimator("cmedian"), square_corners, "affine", 20, seed=1)
    assert not report.passed


def test_random_affine_condition_capped():
    rng = np.random.default_rng(0)
    for _ in range(50):
        A = _random_affine(rng, 3, 1.0)
        assert np.linalg.cond(A.matrix) <= 1e3 + 1.0
