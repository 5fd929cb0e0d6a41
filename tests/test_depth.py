import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robloc import (
    DataSet,
    DirectionBudget,
    OutlyingnessEvaluator,
    outlyingness,
    random_gp_dataset,
    tukey_depth,
)
from robloc.depth import direction_set
from robloc.errors import DegenerateSampleError, ParameterError


def depth_oracle_2d(x, pts):
    """Brute force: perpendiculars to every point-to-data segment, perturbed
    both ways, plus the segment directions themselves."""
    x = np.asarray(x, float)
    rel = pts - x
    norms = np.linalg.norm(rel, axis=1)
    tol = 1e-12 * (1 + norms.max(initial=0.0))
    keep = rel[norms > tol]
    base = int((norms <= tol).sum())
    if keep.shape[0] == 0:
        return base
    best = keep.shape[0]
    for v in keep:
        perp = np.array([-v[1], v[0]])
        for u0 in (perp, -perp, v, -v):
            for eps in (-1e-7, 0.0, 1e-7):
                angle = np.arctan2(u0[1], u0[0]) + eps
                u = np.array([np.cos(angle), np.sin(angle)])
                best = min(best, int((keep @ u >= -tol).sum()))
    return base + best


@pytest.fixture
def budget():
    return DirectionBudget(random_count=200, include_data_directions=True, seed=4)


def test_budget_requires_some_direction():
    with pytest.raises(ParameterError):
        DirectionBudget(0, False, seed=1)


@pytest.mark.parametrize("seed", [None, 1.5, [1, 2]])
def test_budget_requires_integer_seed(seed):
    with pytest.raises(ParameterError):
        DirectionBudget(10, True, seed=seed)


def test_direction_set_is_unit_norm(demo10, budget):
    dirs = direction_set(demo10, budget)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
    # 200 random + C(10,2) pair normals
    assert dirs.shape == (200 + 45, 2)


def test_direction_set_1d_collapses():
    X = DataSet(np.array([0.0, 1.0, 2.0]))
    dirs = direction_set(X, DirectionBudget(50, True, seed=0))
    assert dirs.shape == (1, 1) and dirs[0, 0] == 1.0


def test_outlyingness_1d_formula():
    X = DataSet(np.array([0.0, 1.0, 2.0, 3.0, 4.0]))
    b = DirectionBudget(10, True, seed=2)
    assert outlyingness(np.array([10.0]), X, 0, b) == pytest.approx(8.0)


def test_outlyingness_center_of_symmetric_1d():
    X = DataSet(np.array([-2.0, -1.0, 1.0, 2.0]))
    b = DirectionBudget(10, True, seed=2)
    assert outlyingness(np.array([0.0]), X, 0, b) == 0.0


def test_outlyingness_infinite_on_zero_scale_direction():
    # three points on a vertical line plus probing the x-direction:
    # the projection onto (1, 0) has zero MAD, so any offset blows up
    X = DataSet(np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 2.0], [0.0, 3.5]]))
    ev = OutlyingnessEvaluator(X, 0, directions=np.array([[1.0, 0.0]]))
    assert ev(np.array([1.0, 0.0])) == np.inf


def test_outlyingness_degenerate_sample_raises():
    X = DataSet(np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]))
    ev = OutlyingnessEvaluator(X, 0, directions=np.array([[1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(DegenerateSampleError):
        ev(np.zeros(2))
    # a finite query alongside the degenerate one must not mask the error
    with pytest.raises(DegenerateSampleError):
        ev.batch(np.array([[1.0, 1.0], [0.0, 0.0]]))
    # all-flat sample with every query off it: infinities, no error
    assert np.all(np.isinf(ev.batch(np.array([[1.0, 1.0], [2.0, 0.0]]))))


@st.composite
def kernel_cases(draw):
    """Small samples with many tied projections, explicit directions that
    include the tied axes, and queries on and off the data."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k + 1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    pts = rng.standard_normal((n, k))
    ties = draw(st.integers(0, n))
    if draw(st.booleans()):
        pts[:ties] = pts[0]  # duplicated rows: every direction ties there
    else:
        pts[:ties, 0] = pts[0, 0]  # one tied coordinate: e_0 ties there
    dirs = [rng.standard_normal((draw(st.integers(0, 6)), k))]
    dirs.append(np.eye(k)[: draw(st.integers(0 if dirs[0].size else 1, k))])
    on_data = draw(st.booleans())
    off_data = rng.standard_normal((draw(st.integers(0 if on_data else 1, 5)), k))
    queries = np.vstack([pts, off_data]) if on_data else off_data
    shift = draw(st.integers(0, n - 1))
    return DataSet(pts), shift, np.vstack(dirs), queries


@settings(max_examples=300, deadline=None)
@given(kernel_cases())
def test_batch_matches_reference_formula(case):
    X, shift, dirs, xs = case
    proj = X.points @ dirs.T
    med = np.median(proj, axis=0)
    rank = min(-(-(X.n + shift + 1) // 2), X.n)
    mad = np.sort(np.abs(proj - med), axis=0)[rank - 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.abs(xs @ dirs.T - med) / mad
    ev = OutlyingnessEvaluator(X, shift, directions=dirs)
    # 0/0 means a query on a flat direction: no evidence either way
    undefined = np.isnan(ratio)
    if undefined.all(axis=1).any():
        with pytest.raises(DegenerateSampleError):
            ev.batch(xs)
        return
    expected = np.where(undefined, 0.0, ratio).max(axis=1)
    assert np.array_equal(ev.batch(xs), expected)


def test_direction_set_random_block_is_fresh_each_call(demo10):
    # random block only: the returned array must still not be the cached one
    b = DirectionBudget(300, False, seed=21)
    raw = np.random.default_rng(21).standard_normal((300, 2))
    unit = raw / np.linalg.norm(raw, axis=1)[:, None]
    first = direction_set(demo10, b)
    assert np.array_equal(first, unit)
    first[:] = 0.0
    again = direction_set(demo10, b)
    assert np.array_equal(again, unit)
    assert again.flags.writeable and again is not direction_set(demo10, b)


def test_outlyingness_rejects_query_of_wrong_dimension(demo10, budget):
    with pytest.raises(ParameterError):
        outlyingness([1.0, 2.0, 3.0], demo10, 1, budget)
    ev = OutlyingnessEvaluator(demo10, 1, budget)
    with pytest.raises(ParameterError):
        ev.batch(np.zeros((4, 3)))
    with pytest.raises(ParameterError):
        ev.batch(np.zeros((2, 2, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_outlyingness_rejects_nonfinite_query(demo10, budget, bad):
    ev = OutlyingnessEvaluator(demo10, 1, budget)
    with pytest.raises(ParameterError):
        ev.batch(np.array([[0.0, 0.0], [bad, 1.0]]))
    with pytest.raises(ParameterError):
        outlyingness([1.0, bad], demo10, 1, budget)


@pytest.mark.parametrize(
    "dirs", [[[np.nan, 1.0]], [[np.inf, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
)
def test_evaluator_rejects_nonfinite_or_zero_directions(demo10, dirs):
    with pytest.raises(ParameterError):
        OutlyingnessEvaluator(demo10, 1, directions=dirs)


def test_outlyingness_orthogonal_invariance_with_matched_directions():
    X = random_gp_dataset(9, 2, seed=31)
    theta = 0.7
    Q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    dirs = direction_set(X, DirectionBudget(100, True, seed=8))
    x = np.array([1.0, 2.0])
    base = OutlyingnessEvaluator(X, 1, directions=dirs)(x)
    rotated = OutlyingnessEvaluator(DataSet(X.points @ Q.T), 1, directions=dirs @ Q.T)(Q @ x)
    assert rotated == pytest.approx(base, rel=1e-10)


def test_outlyingness_affine_invariance_1d():
    X = DataSet(np.array([0.3, 1.9, 2.2, 5.0, 7.1]))
    b = DirectionBudget(5, True, seed=3)
    x = np.array([3.3])
    base = outlyingness(x, X, 0, b)
    a, c = -2.5, 4.0
    moved = outlyingness(a * x + c, DataSet(a * X.points + c), 0, b)
    assert moved == pytest.approx(base, rel=1e-12)


def test_tukey_depth_outside_hull(square_corners):
    assert tukey_depth(np.array([5.0, 5.0]), square_corners) == 0


def test_tukey_depth_hull_vertex(square_corners):
    assert tukey_depth(np.array([0.0, 0.0]), square_corners) == 1


def test_tukey_depth_square_center(square_corners):
    assert tukey_depth(np.array([0.5, 0.5]), square_corners) == 2
    assert depth_oracle_2d(np.array([0.5, 0.5]), square_corners.points) == 2


def test_tukey_depth_matches_oracle_random():
    rng = np.random.default_rng(17)
    for trial in range(30):
        n = int(rng.integers(4, 13))
        pts = rng.uniform(-5, 5, size=(n, 2))
        X = DataSet(pts)
        if trial % 3 == 0:
            x = pts[int(rng.integers(0, n))]  # a data point
        else:
            x = rng.uniform(-6, 6, 2)
        assert tukey_depth(x, X) == depth_oracle_2d(x, pts)


def test_tukey_depth_sampled_is_upper_bound(demo10):
    b = DirectionBudget(500, True, seed=12)
    for i in range(demo10.n):
        exact = tukey_depth(demo10.points[i], demo10, mode="exact2d")
        sampled = tukey_depth(demo10.points[i], demo10, mode="sampled", budget=b)
        assert sampled >= exact


@pytest.mark.parametrize("mode", ["exact2d", "sampled"])
def test_tukey_depth_rejects_non_finite_point(demo10, mode):
    budget = DirectionBudget(50, True, 1)
    for bad in ([float("nan"), 1.0], [1.0, float("-inf")]):
        with pytest.raises(ParameterError, match="^point coordinates must be finite"):
            tukey_depth(np.array(bad), demo10, mode=mode, budget=budget)


def test_tukey_depth_mode_errors(demo10):
    X3 = DataSet(np.zeros((4, 3)) + np.arange(12).reshape(4, 3))
    with pytest.raises(ParameterError):
        tukey_depth(np.zeros(3), X3, mode="exact2d")
    with pytest.raises(ParameterError):
        tukey_depth(np.zeros(2), demo10, mode="sampled")  # needs budget
    with pytest.raises(ParameterError):
        tukey_depth(np.zeros(2), demo10, mode="wat")
