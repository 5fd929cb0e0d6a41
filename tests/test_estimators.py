from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robloc import (
    DataSet,
    DirectionBudget,
    OutlyingnessEvaluator,
    coordinatewise_median,
    make_estimator,
    mcd_exhaustive,
    projection_median,
    random_gp_dataset,
    trimmed_mean,
    weighted_mean,
)
from robloc.errors import DegenerateSampleError, EstimatorError, ParameterError
from robloc.estimators import EstimateSet, _mcd_picks, default_mcd_coverage


def mcd_oracle(X, coverage):
    """Independent re-enumeration: reversed iteration order, covariance det
    via np.cov + np.linalg.det."""
    best = None
    winners = []
    for subset in combinations(reversed(range(X.n)), coverage):
        sub = X.points[list(subset)]
        det = float(np.linalg.det(np.atleast_2d(np.cov(sub.T))))
        if det <= 0:
            continue
        if best is None or det < best * (1 - 1e-9):
            best = det
            winners = [tuple(sorted(subset))]
        elif det <= best * (1 + 1e-9):
            winners.append(tuple(sorted(subset)))
    return best, set(winners)


def test_estimate_set_dedup_and_canonical():
    s = EstimateSet(np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 4.0]]))
    assert s.size == 2
    assert np.array_equal(s.canonical, [1.0, 2.0])


def test_estimate_set_rejects_empty():
    with pytest.raises(EstimatorError):
        EstimateSet(np.empty((0, 2)))


def test_cmedian_odd_counts():
    X = DataSet(np.array([[0.0, 0.0], [2.0, 2.0], [1.0, 5.0]]))
    est = coordinatewise_median(X)
    assert est.size == 1
    assert np.array_equal(est.members[0], [1.0, 2.0])


def test_cmedian_singleton():
    X = DataSet(np.array([[4.0, 7.0]]))
    est = coordinatewise_median(X)
    assert np.array_equal(est.members, [[4.0, 7.0]])


def test_cmedian_even_1d_interval_endpoints():
    X = DataSet(np.array([1.0, 2.0, 3.0, 4.0]))
    est = coordinatewise_median(X)
    assert sorted(v[0] for v in est.members) == [2.0, 3.0]
    assert est.canonical[0] == 2.5


def test_weighted_mean_all_ones_is_centroid(demo10):
    w = np.ones(demo10.n)
    assert np.allclose(weighted_mean(demo10, w), demo10.points.mean(axis=0))


def test_weighted_mean_selects_single_point(demo10):
    w = np.zeros(demo10.n)
    w[3] = 1.0
    assert np.array_equal(weighted_mean(demo10, w), demo10.points[3])


def test_weighted_mean_rejects_bad_weights(demo10):
    with pytest.raises(ParameterError):
        weighted_mean(demo10, np.zeros(demo10.n))
    with pytest.raises(ParameterError):
        weighted_mean(demo10, np.full(demo10.n, 1.5))


def test_mcd_full_coverage_is_centroid(demo10):
    r = mcd_exhaustive(demo10, coverage=demo10.n)
    assert r.estimates.size == 1
    assert np.allclose(r.estimates.members[0], demo10.points.mean(axis=0))


def test_mcd_1d_example_tie_set():
    # {0,.1,.2} and {.1,.2,.3} have exactly equal variance 0.01: the
    # enumeration-first optimum 0.1 is canonical, 0.2 joins the tie set
    X = DataSet(np.array([0.0, 0.1, 0.2, 0.3, 100.0]))
    r = mcd_exhaustive(X, coverage=3)
    got = sorted(float(v[0]) for v in r.estimates.members)
    assert got == pytest.approx([0.1, 0.2])
    assert float(r.estimates.canonical[0]) == pytest.approx(0.1)
    assert r.objective == pytest.approx(0.01)


def test_mcd_mirror_symmetric_tie():
    X = DataSet(np.array([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0]))
    r = mcd_exhaustive(X, coverage=3)
    got = sorted(float(v[0]) for v in r.estimates.members)
    assert got == [-2.0, 2.0]


def test_mcd_default_coverage():
    assert default_mcd_coverage(10, 2) == 6
    assert default_mcd_coverage(9, 3) == 6


def test_mcd_matches_independent_oracle():
    for seed in (1, 2, 3, 4, 5):
        X = random_gp_dataset(9, 2, seed=seed)
        r = mcd_exhaustive(X)
        best, winners = mcd_oracle(X, default_mcd_coverage(9, 2))
        assert set(r.optimal_subsets) == winners
        assert r.objective == pytest.approx(best, rel=1e-9)


def mcd_pick_oracle(subsets, means, dets):
    """The MCD tie rule applied to one dataset's subsets on its own:
    (objective, winning members, winning subsets)."""
    valid = np.isfinite(dets) & (dets > 0.0)
    if not np.any(valid):
        raise DegenerateSampleError("every coverage subset has singular covariance")
    best = float(dets[valid].min())
    tie_tol = 1e-9 * best
    winners = np.flatnonzero(valid & (dets <= best + tie_tol))
    return best, means[winners], tuple(tuple(int(i) for i in subsets[w]) for w in winners)


SCALE = 3.7
TIE_EDGE = SCALE + 1e-9 * SCALE  # the last determinant that ties a best of SCALE
# singular, non-finite, spread out, and within, on or just beyond the 1e-9 tie tolerance
DETS = st.one_of(
    st.sampled_from([0.0, np.nan, np.inf, -1.0, TIE_EDGE]),
    st.floats(0.5, 4.0).map(lambda f: SCALE * f),
    st.sampled_from([1.0, 1.0 - 4e-10, 1.0 + 4e-10, 1.0 + 9e-10, 1.0 + 2e-9]).map(lambda f: SCALE * f),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(DETS, min_size=1, max_size=6), min_size=1, max_size=5), st.integers(0, 2**16))
@example([[1.0]], 0)
@example([[SCALE], [0.0, np.nan, TIE_EDGE, np.inf, SCALE, SCALE * (1 + 2e-9)]], 1)
@example([[2.0, 1.0], [0.0, np.nan, np.inf]], 2)
def test_mcd_picks_matches_the_rule_run_by_run(runs, seed):
    dets = np.array([d for run in runs for d in run])
    starts = np.cumsum([0] + [len(run) for run in runs[:-1]])
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((dets.size, 2))
    subsets = np.arange(3 * dets.size).reshape(-1, 3)
    if not all(any(np.isfinite(d) and d > 0 for d in run) for run in runs):
        with pytest.raises(DegenerateSampleError, match="singular covariance"):
            _mcd_picks(subsets, means, dets, starts)
        return
    got = _mcd_picks(subsets, means, dets, starts)
    assert len(got) == len(runs)
    for result, start, run in zip(got, starts, runs):
        part = slice(start, start + len(run))
        best, members, winners = mcd_pick_oracle(subsets[part], means[part], dets[part])
        assert result.objective == best
        assert np.array_equal(result.estimates.members, members)
        assert np.array_equal(result.estimates.canonical, members[0])
        assert result.optimal_subsets == winners


def test_mcd_coverage_validation(demo10):
    with pytest.raises(ParameterError):
        mcd_exhaustive(demo10, coverage=2)
    with pytest.raises(ParameterError):
        mcd_exhaustive(demo10, coverage=11)


def test_trimmed_mean_zero_is_centroid(demo10):
    assert np.allclose(trimmed_mean(demo10, 0), demo10.points.mean(axis=0))


def test_trimmed_mean_1d_drops_outlier():
    X = DataSet(np.array([0.0, 1.0, 2.0, 3.0, 100.0]))
    assert trimmed_mean(X, 1) == pytest.approx(1.5)


def test_trimmed_mean_stays_in_hull(demo10):
    for t in (1, 2, 3):
        tm = trimmed_mean(demo10, t)
        lo, hi = demo10.points.min(axis=0), demo10.points.max(axis=0)
        assert np.all(tm >= lo) and np.all(tm <= hi)


def test_trimmed_mean_validation(demo10):
    with pytest.raises(ParameterError):
        trimmed_mean(demo10, demo10.n - 2)  # leaves fewer than k+1


def test_projection_median_1d_is_median():
    X = DataSet(np.array([0.0, 1.0, 2.0, 3.0, 10.0]))
    est = projection_median(X, scale_shift=0, budget=DirectionBudget(20, True, seed=1))
    # 1-D projection depth peaks exactly at the sample median; a dense scan
    # of candidates cannot beat outlyingness 0 at the median itself
    assert est.canonical[0] == pytest.approx(2.0)
    xs = np.linspace(-1, 11, 2001)
    ev_best = min(abs(x - 2.0) / 1.0 for x in xs)  # med=2, MAD=1
    assert abs(est.canonical[0] - 2.0) <= ev_best + 1e-9


def test_projection_median_centrally_symmetric():
    X = DataSet(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0],
                          [1.0, 1.0], [-1.0, -1.0]]))
    est = projection_median(X, budget=DirectionBudget(200, True, seed=3))
    assert np.linalg.norm(est.canonical) <= 1e-9


def lattice_search_oracle(X, budget, refinements):
    """The refining 5^k lattice built with itertools.product, as the
    projection median's candidate search is specified."""
    ev = OutlyingnessEvaluator(X, X.k - 1, budget)
    cand = np.vstack([X.points, coordinatewise_median(X).canonical])
    depth = 1.0 / (1.0 + ev.batch(cand))
    best, incumbent = depth.max(), cand[np.argmax(depth)]
    pts, deps = [cand], [depth]
    offsets = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    for level in range(refinements):
        half = max(X.diameter, 1e-12) / 2.0 ** (level + 1)
        lattice = np.array(list(product(*[c + half * offsets for c in incumbent])))
        d = 1.0 / (1.0 + ev.batch(lattice))
        pts.append(lattice)
        deps.append(d)
        if d.max() > best:
            best, incumbent = d.max(), lattice[np.argmax(d)]
    dep = np.concatenate(deps)
    return np.vstack(pts)[dep >= best - 1e-9 * best], incumbent


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_projection_median_lattice_matches_product_order(k, monkeypatch):
    queried = []
    batch = OutlyingnessEvaluator.batch
    monkeypatch.setattr(
        OutlyingnessEvaluator, "batch", lambda ev, xs: queried.append(xs.copy()) or batch(ev, xs)
    )
    X = random_gp_dataset(k + 4, k, seed=40 + k)
    b = DirectionBudget(60, True, seed=k)
    est = projection_median(X, budget=b, grid_refinements=3)
    ours = queried[:]
    queried.clear()
    winners, incumbent = lattice_search_oracle(X, b, 3)
    # every candidate block, row for row
    assert len(ours) == len(queried) == 4
    assert all(np.array_equal(a, c) for a, c in zip(ours, queried))
    assert np.array_equal(est.canonical, incumbent)
    assert np.array_equal(est.members, EstimateSet(winners).members)


def test_projection_median_rejects_negative_refinements(demo10):
    with pytest.raises(ParameterError):
        projection_median(demo10, budget=DirectionBudget(20, True, seed=1), grid_refinements=-1)
    with pytest.raises(ParameterError):
        make_estimator("pm", seed=1, grid_refinements=-2)


def test_registry_names_and_classes(demo10):
    assert make_estimator("cmedian").equivariance_class == "translation"
    assert make_estimator("mcd").equivariance_class == "affine"
    assert make_estimator("wmean").equivariance_class == "affine"
    assert make_estimator("tmean", seed=1).equivariance_class == "translation"
    assert make_estimator("pm", seed=1).equivariance_class == "translation"
    with pytest.raises(EstimatorError):
        make_estimator("nope")
    with pytest.raises(ParameterError):
        make_estimator("pm")  # seed required
    with pytest.raises(ParameterError):
        make_estimator("mcd", bogus=3)


@pytest.mark.parametrize("name, param", [
    ("cmedian", "coverage"), ("wmean", "trim_count"), ("mcd", "random_count"),
    ("tmean", "grid_refinements"), ("pm", "coverage"), ("pm", "trim_count"),
])
def test_make_estimator_rejects_parameters_the_estimator_ignores(name, param):
    with pytest.raises(ParameterError, match=param):
        make_estimator(name, seed=1, **{param: 3})


def test_registry_estimators_are_deterministic(demo10):
    for name in ("cmedian", "mcd", "wmean"):
        T = make_estimator(name)
        assert np.array_equal(T(demo10).members, T(demo10).members)
    T = make_estimator("pm", seed=42, random_count=300, grid_refinements=4)
    assert np.array_equal(T(demo10).members, T(demo10).members)
