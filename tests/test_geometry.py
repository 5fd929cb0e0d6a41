from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robloc import (
    AffineMap,
    DataSet,
    apply_map,
    basis_from_normal,
    check_general_position,
    enumerate_facets,
    load_dataset_csv,
    random_gp_dataset,
    shear_transform,
)
from robloc.errors import GeneralPositionError, OverflowParameterError, ParameterError
from robloc.estimators import EstimateSet, LocationEstimator
from robloc.geometry import (
    GP_RTOL,
    ReplacementFamily,
    apply_shears,
    hyperplane_normal,
    normal_cone_ties,
    tie_levels,
    unit_direction,
)
from conftest import shear_images

GP83 = Path(__file__).parent / "golden" / "gp8_3d.csv"


# --- independent oracles -------------------------------------------------

def brute_collinear_triples(pts):
    """All triples whose triangle area vanishes (2-D oracle)."""
    bad = []
    for i, j, l in combinations(range(len(pts)), 3):
        a, b = pts[j] - pts[i], pts[l] - pts[i]
        area = abs(a[0] * b[1] - a[1] * b[0])
        if area <= 1e-9 * max(np.linalg.norm(a), 1e-300) ** 2:
            bad.append((i, j, l))
    return bad


def hull_facet_oracle(X):
    """Exhaustive side-testing with an independently fitted hyperplane.

    Solves for the affine functional a.x = 1 through the subset (valid when
    the hyperplane misses the origin, which a random shift guarantees).
    """
    rng = np.random.default_rng(12345)
    shift = rng.normal(size=X.k) * (X.diameter + 1.0) * 3.0
    pts = X.points + shift  # move everything away from the origin
    facets = set()
    for subset in combinations(range(X.n), X.k):
        sub = pts[list(subset)]
        try:
            a = np.linalg.solve(sub, np.ones(X.k))
        except np.linalg.LinAlgError:
            continue
        vals = pts @ a - 1.0
        others = [i for i in range(X.n) if i not in subset]
        if all(vals[i] > 0 for i in others) or all(vals[i] < 0 for i in others):
            facets.add(tuple(sorted(subset)))
    return facets


# --- general position ----------------------------------------------------

def test_gp_triangle(triangle):
    assert check_general_position(triangle).ok


def test_gp_collinear_witness():
    X = DataSet(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))
    report = check_general_position(X)
    assert not report.ok
    assert report.witness == (0, 1, 2)


def test_gp_square_matches_brute_force(square_corners):
    assert brute_collinear_triples(square_corners.points) == []
    assert check_general_position(square_corners).ok


def test_gp_detects_duplicates():
    X = DataSet(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 2.0]]))
    assert not check_general_position(X).ok


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-110, 1.0, 1e110, 1e150, 1e300])
def test_gp_is_scale_free(scale):
    # the points are taken in units of their largest coordinate difference
    # before any determinant or diameter, so neither overflows nor underflows
    X = load_dataset_csv(GP83)
    assert check_general_position(DataSet(X.points * scale)) == (True, None)
    pts = X.points.copy()
    pts[3] = pts[0] + 0.5 * (pts[1] - pts[0]) + 0.25 * (pts[2] - pts[0])
    assert check_general_position(DataSet(pts * scale)) == (False, (0, 1, 2, 3))


def test_gp_raises_when_a_point_difference_overflows():
    X = DataSet(np.array([[1e308, 0.0], [-1e308, 0.0], [0.0, 1.0]]))
    with pytest.raises(OverflowParameterError):
        check_general_position(X)


# --- facets ----------------------------------------------------------------

def test_triangle_has_three_facets(triangle):
    facets = enumerate_facets(triangle)
    assert sorted(f.indices for f in facets) == [(0, 1), (0, 2), (1, 2)]


def test_square_has_four_facets(square_corners):
    facets = enumerate_facets(square_corners)
    got = sorted(f.indices for f in facets)
    # the two diagonals (0,3) and (1,2) fail the one-side test
    assert got == [(0, 1), (0, 2), (1, 3), (2, 3)]


def test_simplex_3d_has_four_facets():
    X = DataSet(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float))
    assert len(enumerate_facets(X)) == 4


def test_facet_normals_point_inward(demo10):
    for f in enumerate_facets(demo10):
        others = [i for i in range(demo10.n) if i not in f.indices]
        side = demo10.points[others] @ f.inward_normal - f.support_value
        assert side.min() > 0


def test_facet_support_agrees_with_member_projections(demo10):
    tol = 1e-9 * demo10.diameter
    for f in enumerate_facets(demo10):
        proj = demo10.points[list(f.indices)] @ f.inward_normal
        assert np.abs(proj - f.support_value).max() <= tol


def test_facets_match_independent_oracle():
    for seed in range(12):
        n, k = (8, 2) if seed % 2 == 0 else (7, 3)
        X = random_gp_dataset(n, k, seed=900 + seed)
        ours = {f.indices for f in enumerate_facets(X)}
        assert ours == hull_facet_oracle(X)


def test_facets_raise_on_gp_violation():
    X = DataSet(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [1.0, 1.0]]))
    with pytest.raises(GeneralPositionError):
        enumerate_facets(X)


# --- tie directions -----------------------------------------------------------

def reference_cone_ties(X, facets, face, rng, samples, tol):
    """Oracle: one Dirichlet draw, one product and one tie check per sample."""
    normals = [f.inward_normal for f in facets if set(face) <= set(f.indices)]
    if len(normals) < 2:
        return []
    normals = np.array(normals)
    face = list(face)
    ties = []
    for _ in range(samples):
        u = rng.dirichlet(np.ones(len(normals))) @ normals
        norm = np.linalg.norm(u)
        if norm <= 1e-12:
            continue
        u = u / norm
        proj = X.points @ u
        level = float(np.mean(proj[face]))
        if np.abs(proj[face] - level).max() > tol:
            continue
        others = np.setdiff1d(np.arange(proj.size), face, assume_unique=True)
        if others.size and np.min(proj[others] - level) <= tol:
            continue
        ties.append((u, level, proj))
    return ties


@st.composite
def cone_cases(draw):
    k = draw(st.integers(2, 4))
    n = draw(st.integers(k + 2, k + 7))
    X = random_gp_dataset(n, k, draw(st.integers(0, 2**16)))
    return X, draw(st.integers(1, k - 1)), draw(st.integers(0, 40)), draw(st.integers(0, 2**32))


@settings(max_examples=40, deadline=None)
@given(cone_cases())
def test_batched_cone_ties_match_per_draw_reference(case):
    # one generator serves every face in turn, as condition_margin draws
    X, h, samples, seed = case
    facets = enumerate_facets(X)
    tol = GP_RTOL * X.diameter
    ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for face in sorted({sub for f in facets for sub in combinations(f.indices, h)}):
        got = normal_cone_ties(X, facets, face, ours, samples, tol)
        want = reference_cone_ties(X, facets, face, ref, samples, tol)
        assert len(got) == len(want)
        for (u, level, proj), (u0, level0, proj0) in zip(got, want):
            assert np.array_equal(u, u0)
            assert level == level0
            assert np.array_equal(proj, proj0)
    assert ours.random() == ref.random()


def test_cone_of_a_face_on_one_facet_draws_nothing():
    X = random_gp_dataset(9, 3, 0)
    facets = enumerate_facets(X)
    rng = np.random.default_rng(0)
    assert normal_cone_ties(X, facets[:1], facets[0].indices[:1], rng, 8, 1e-9) == []
    assert rng.random() == np.random.default_rng(0).random()


def test_tie_levels_mark_rows_without_a_tie_nan():
    proj = np.array([
        [0.0, 0.0, 1.0],  # points 0 and 1 tie at 0
        [0.0, 0.5, 1.0],  # point 1 is above point 0
        [0.0, 0.0, 0.0],  # point 2 ties too
        [1.0, 1.0, 0.0],  # point 2 is below the tie
    ])
    levels = tie_levels(proj, (0, 1), 1e-9)
    assert np.array_equal(levels, [0.0, np.nan, np.nan, np.nan], equal_nan=True)
    # one face per row: each row is judged by its own face alone
    levels = tie_levels(proj, [(0, 1), (0, 2), (0, 1), (0, 1)], 1e-9)
    assert np.array_equal(levels, [0.0, np.nan, np.nan, np.nan], equal_nan=True)
    levels = tie_levels(np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
                        [(0, 1), (1, 2), (0, 2)], 1e-9)
    assert np.array_equal(levels, [0.0, 0.0, 0.0])


# --- bases ------------------------------------------------------------------

def test_basis_builds_its_shear_terms_once_and_compares_by_identity():
    b = basis_from_normal(np.array([0.6, 0.8]), np.array([1.0, 2.0]))
    outer, shift, e2 = b.shear_terms
    assert b.shear_terms is b.shear_terms
    assert not outer.flags.writeable and not e2.flags.writeable
    assert np.array_equal(outer, np.outer(b.e(2), b.e(1))) and shift == b.e(1) @ b.origin_shift
    twin = basis_from_normal(np.array([0.6, 0.8]), np.array([1.0, 2.0]))
    assert b != twin and len({b, twin, b}) == 2


def test_basis_from_axis_normal():
    b = basis_from_normal(np.array([1.0, 0.0]), np.zeros(2))
    assert np.allclose(b.e(1), [1, 0])
    assert abs(abs(b.e(2)[1]) - 1.0) < 1e-15


def test_basis_gram_residual_small():
    rng = np.random.default_rng(7)
    for _ in range(25):
        k = rng.integers(2, 6)
        u = rng.standard_normal(k)
        u /= np.linalg.norm(u)
        b = basis_from_normal(u, rng.standard_normal(k))
        gram = b.vectors.T @ b.vectors - np.eye(k)
        assert np.abs(gram).max() <= 1e-10


def test_basis_round_trip_r4():
    rng = np.random.default_rng(42)
    u = rng.standard_normal(4)
    u /= np.linalg.norm(u)
    origin = rng.standard_normal(4)
    b = basis_from_normal(u, origin)
    x = rng.standard_normal(4)
    assert np.linalg.norm(b.from_coords(b.to_coords(x)) - x) <= 1e-10


def test_unit_direction_validates():
    with pytest.raises(ParameterError):
        unit_direction([1.0, 1.0])
    # |(nan, 1)| - 1 is NaN, which no tolerance comparison catches
    for bad in ([float("nan"), 1.0], [float("inf"), 0.0], [float("nan"), float("nan")]):
        with pytest.raises(ParameterError, match="^direction coordinates must be finite$"):
            unit_direction(bad)


def test_hyperplane_normal_r2():
    normals, degenerate = hyperplane_normal(np.array([[[0.0, 0.0], [2.0, 0.0]]]))
    assert np.allclose(np.abs(normals), [[0, 1]])
    assert not degenerate.any()


def per_subset_normal(pts):
    """Oracle: one SVD per subset, smallest right singular vector, first
    component above 1e-14 in magnitude made positive; degenerate when the
    smallest singular value is within 1e-12 of the largest difference."""
    diffs = pts[1:] - pts[0]
    _, svals, vt = np.linalg.svd(diffs)
    degenerate = bool(svals[-1] <= 1e-12 * float(np.abs(diffs).max()))
    normal = vt[-1]
    nz = np.flatnonzero(np.abs(normal) > 1e-14)
    if nz.size and normal[nz[0]] < 0:
        normal = -normal
    return normal / np.linalg.norm(normal), degenerate


@st.composite
def gp_stacks(draw):
    k = draw(st.integers(2, 4))
    n = draw(st.integers(k + 1, k + 5))
    X = random_gp_dataset(n, k, draw(st.integers(0, 2**16)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    return X.points[np.array(list(combinations(range(n), k)))] * scale


@settings(max_examples=40, deadline=None)
@given(gp_stacks())
def test_batched_normals_match_per_subset_svd(groups):
    normals, degenerate = hyperplane_normal(groups)
    assert not degenerate.any()
    for g, u in zip(groups, normals):
        want, flat = per_subset_normal(g)
        assert not flat
        assert np.array_equal(u, want)


def test_hyperplane_normal_sign_rule_skips_zero_first_component():
    # both normals lie along e2; the first component is 0, so the sign is
    # fixed by the second
    groups = np.array([[[0.0, 0.0], [2.0, 0.0]], [[1.0, 3.0], [-4.0, 3.0]]])
    normals, _ = hyperplane_normal(groups)
    assert normals.tolist() == [[0.0, 1.0], [0.0, 1.0]]
    normals, _ = hyperplane_normal(np.array([[[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]]))
    assert normals.tolist() == [[1.0, 0.0, 0.0]]


@pytest.mark.parametrize("scale", [1e-12, 1e-150, 1e110])
def test_facets_do_not_depend_on_the_scale_of_the_data(scale):
    # the degeneracy test is relative to each subset's own differences, so
    # scaled data have the same facets, with the same normals
    X = load_dataset_csv(GP83)
    want, got = enumerate_facets(X), enumerate_facets(DataSet(X.points * scale))
    assert [f.indices for f in got] == [f.indices for f in want]
    for f, g in zip(want, got):
        np.testing.assert_allclose(g.inward_normal, f.inward_normal, rtol=0, atol=1e-12)
        assert g.support_value == pytest.approx(f.support_value * scale, rel=0, abs=1e-9 * X.diameter * scale)
    degenerate = X.points[[0, 1, 1]] * scale  # a repeated point
    assert hyperplane_normal(np.array([X.points[:3] * scale, degenerate]))[1].tolist() == [False, True]


def test_hyperplane_normal_flags_degenerate_subsets():
    groups = np.array([
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
        [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0]],  # collinear
        [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [0.0, 5.0, 1.0]],  # repeated point
    ])
    normals, degenerate = hyperplane_normal(groups)
    assert degenerate.tolist() == [False, True, True]
    assert normals[0].tolist() == [0.0, 0.0, 1.0]


def test_hyperplane_normal_k1():
    normals, degenerate = hyperplane_normal(np.array([[[3.0]], [[-2.0]]]))
    assert normals.tolist() == [[1.0], [1.0]]
    assert not degenerate.any()


def test_hyperplane_normal_rejects_non_square_subsets():
    with pytest.raises(ParameterError):
        hyperplane_normal(np.zeros((2, 3, 2)))


# --- shear / affine maps ------------------------------------------------------

def test_shear_gamma_zero_is_identity():
    b = basis_from_normal(np.array([1.0, 0.0]), np.zeros(2))
    g = shear_transform(0.0, b)
    assert np.allclose(g.matrix, np.eye(2)) and np.allclose(g.offset, 0)


def test_shear_standard_basis_example():
    b = basis_from_normal(np.array([1.0, 0.0]), np.zeros(2))
    g = shear_transform(2.0, b)
    assert np.allclose(g.apply(np.array([1.0, 0.0])), [1.0, 2.0])


def test_shear_fixes_hyperplane():
    rng = np.random.default_rng(3)
    u = rng.standard_normal(3)
    u /= np.linalg.norm(u)
    origin = rng.standard_normal(3)
    b = basis_from_normal(u, origin)
    g = shear_transform(17.0, b)
    for _ in range(10):
        c = rng.standard_normal(3)
        c[0] = 0.0  # on the hyperplane
        x = b.from_coords(c)
        assert np.linalg.norm(g.apply(x) - x) <= 1e-9 * (1 + np.linalg.norm(x))


def test_shear_determinant_is_one():
    b = basis_from_normal(np.array([0.6, 0.8]), np.array([1.0, -2.0]))
    for gamma in (1.0, 37.5, 1e4):
        assert abs(np.linalg.det(shear_transform(gamma, b).matrix) - 1.0) <= 1e-9 * (1 + gamma)


def test_shear_group_law():
    rng = np.random.default_rng(11)
    u = rng.standard_normal(2)
    u /= np.linalg.norm(u)
    b = basis_from_normal(u, rng.standard_normal(2))
    pts = rng.standard_normal((6, 2)) * 5
    for g1, g2 in rng.uniform(-100, 100, size=(50, 2)):
        comp = shear_transform(g1, b).compose(shear_transform(g2, b))
        direct = shear_transform(g1 + g2, b)
        scale = 1.0 + abs(g1) + abs(g2)
        assert np.abs(comp.apply(pts) - direct.apply(pts)).max() <= 1e-9 * scale * 10


def test_shear_distance_law():
    rng = np.random.default_rng(5)
    u = rng.standard_normal(2)
    u /= np.linalg.norm(u)
    origin = rng.standard_normal(2)
    b = basis_from_normal(u, origin)
    for gamma in (0.5, -3.0, 100.0):
        g = shear_transform(gamma, b)
        for _ in range(20):
            x = rng.standard_normal(2) * 10
            c1 = u @ (x - origin)
            travelled = np.linalg.norm(g.apply(x) - x)
            assert abs(travelled - abs(gamma) * abs(c1)) <= 1e-9 * (1 + abs(gamma * c1))


def test_shear_integer_power_is_slope_multiple():
    b = basis_from_normal(np.array([1.0, 0.0]), np.zeros(2))
    g1 = shear_transform(1.0, b)
    m = 5
    powered = AffineMap.identity(2)
    for _ in range(m):
        powered = g1.compose(powered)
    gm = shear_transform(float(m), b)
    pts = np.random.default_rng(0).standard_normal((8, 2))
    assert np.abs(powered.apply(pts) - gm.apply(pts)).max() <= 1e-10


def test_shear_requires_k2():
    with pytest.raises(ParameterError):
        shear_transform(1.0, basis_from_normal(np.array([1.0]), np.zeros(1)))


# --- shear families ----------------------------------------------------------

@st.composite
def shear_family_cases(draw):
    k = draw(st.integers(2, 4))
    n = draw(st.integers(k + 2, k + 7))
    m = draw(st.integers(1, n - k))
    replaced = draw(st.permutations(range(n)))[:m]
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    X = DataSet(rng.uniform(-5.0, 5.0, size=(n, k)) * 10.0 ** rng.integers(-2, 3))
    u = rng.standard_normal(k)
    basis = basis_from_normal(u / np.linalg.norm(u), rng.uniform(-5.0, 5.0, size=k))
    powers = draw(st.lists(st.integers(1, 8), min_size=1, max_size=4))
    slopes = [sign * 10.0**p for p in powers for sign in (1.0, -1.0)]
    slopes.append(slopes[0] * (1.0 + 1e-6))  # a nudged slope
    return X, basis, replaced, slopes


@settings(max_examples=60, deadline=None)
@given(shear_family_cases())
def test_shear_family_stack_matches_per_slope_construction(case):
    X, basis, replaced, slopes = case
    family = shear_images(X, basis, "shear_replace_far", replaced, slopes)
    assert family.points.shape == (len(slopes), X.n, X.k)
    assert not family.points.flags.writeable
    rows = X.points[list(replaced)]
    images = apply_shears(family.points, slopes, basis)  # block j by slope j
    for j, g in enumerate(slopes):
        shear = shear_transform(g, basis)
        oracle = X.with_replaced(replaced, shear.apply(rows))
        assert np.array_equal(family.points[j], oracle.points)
        assert np.array_equal(images[j], shear.apply(family.points[j]))


def test_shear_family_datasets_view_the_stack(demo10):
    # the evaluator's per-dataset loop sees exactly the blocks of the stack:
    # this estimator returns every row it is given
    basis = basis_from_normal(np.array([0.6, 0.8]), demo10.points[0])
    family = shear_images(demo10, basis, "shear_replace_far", (3, 1, 7), (10.0, -1e8, 0.0))
    assert family.basis is basis and family.parameters == (10.0, -1e8, 0.0)
    rows = LocationEstimator("rows", "translation", lambda X: EstimateSet(X.points))
    stack = rows.evaluator(demo10)([family])
    assert len(stack) == 3
    for j, est in enumerate(stack):
        assert np.array_equal(est.members, family.points[j])
    assert np.array_equal(family.points[2], demo10.points)


@pytest.mark.parametrize("replaced", [(2, 2), (1, 4, 1), (10,), (-1,), (0, 99)])
def test_shear_family_rejects_bad_indices(demo10, replaced):
    basis = basis_from_normal(np.array([1.0, 0.0]), np.zeros(2))
    with pytest.raises(ParameterError):
        ReplacementFamily.of(demo10, replaced, (1.0, 2.0), np.zeros((2, len(replaced), 2)), basis)


def test_shear_family_rejects_non_finite_images(demo10):
    # the image overflows at a grid value, so that value is too large
    basis = basis_from_normal(np.array([1.0, 0.0]), np.zeros(2))
    with pytest.raises(ParameterError, match=r"^slope 1e\+308 is too large: its image overflows$"):
        shear_images(demo10, basis, "shear_replace_far", (0,), (1.0, 1e308))


def test_apply_map_identity_and_inverse(demo10):
    ident = AffineMap.identity(2)
    assert np.array_equal(apply_map(ident, demo10).points, demo10.points)
    g = AffineMap(np.array([[2.0, 1.0], [0.5, 3.0]]), np.array([1.0, -1.0]))
    round_trip = g.inverse().compose(g)
    assert np.abs(apply_map(round_trip, demo10).points - demo10.points).max() <= 1e-10


def test_affine_map_rejects_singular():
    with pytest.raises(ParameterError):
        AffineMap(np.array([[1.0, 2.0], [2.0, 4.0]]), np.zeros(2))


NON_FINITE = {
    "affine-nan-matrix": (lambda: AffineMap(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.zeros(2)),
                          "^affine map entries must be finite$"),
    "affine-inf-offset": (lambda: AffineMap(np.eye(2), np.array([np.inf, 0.0])),
                          "^affine map entries must be finite$"),
    "basis-nan-origin": (lambda: basis_from_normal(np.array([1.0, 0.0]), np.array([np.nan, 0.0])),
                         "^basis vectors and origin must be finite$"),
    "shear-nan-slope": (lambda: shear_transform(np.nan, basis_from_normal(np.array([1.0, 0.0]), np.zeros(2))),
                        "^slope must be finite, got nan$"),
    "shear-overflow": (lambda: shear_transform(1e160, basis_from_normal(np.array([1.0, 0.0]), np.array([1e150, 0.0]))),
                       r"^slope 1e\+160 is too large: its shear overflows$"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_geometric_constructors_reject_non_finite_input(case):
    build, message = NON_FINITE[case]
    with pytest.raises(ParameterError, match=message):
        build()
