import tracemalloc
from itertools import combinations, product
from unittest import mock

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
from robloc.errors import (
    DegenerateSampleError,
    EstimatorError,
    OverflowParameterError,
    ParameterError,
)
from robloc.estimators import (
    EstimateSet,
    EstimateStack,
    _mcd_family,
    _median_boxes,
    _mcd_stack,
    _mcd_winners,
    default_mcd_coverage,
)
from robloc.geometry import ReplacementFamily


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


def dedup_oracle(rows):
    """The dedup rule one row at a time: keep a row unless it lies within
    1e-12 of a row already kept."""
    kept = []
    with np.errstate(over="ignore"):  # a distance that overflows is not close
        for row in rows:
            if not any(np.sqrt(((row - r) ** 2).sum()) <= 1e-12 for r in kept):
                kept.append(row)
    return np.array(kept)


# steps of 0.6e-12 along one axis: neighbours are within 1e-12 of each
# other, rows two steps apart are not, so the rule is not transitive
STEP = 0.6e-12
# coordinate scales, drawn per coordinate: near 1e4 one ulp (eps |m|)
# straddles the 1e-12 tolerance, and a large coordinate beside a small one
# rounds the projection by more than a step of the small one moves it;
# 1e300 leaves steps below one ulp and overflows distances
SCALES = [1.0, 1e3, 1e4, 3e4, 1e8, 1e300]


@st.composite
def dedup_runs(draw):
    k = draw(st.integers(1, 4))
    scale = np.array(draw(st.lists(st.sampled_from(SCALES), min_size=k, max_size=k)))
    runs = []
    for _ in range(draw(st.integers(1, 5))):
        base = scale * np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=k, max_size=k)))
        run = []
        for _ in range(draw(st.integers(1, 7))):
            row = base.copy()
            axis, steps = draw(st.integers(0, k - 1)), draw(st.integers(0, 4))
            move = draw(st.sampled_from(["step", "ulp", "far"]))
            if move == "step":
                row[axis] += STEP * steps
            elif move == "ulp":
                for _ in range(steps):
                    row[axis] = np.nextafter(row[axis], np.inf)
            else:
                row += scale * draw(st.sampled_from([1.0, -2.5]))
            run.append(row)
        runs.append(run)
    return runs


# one run of 400 rows at k = 2, where comparing all pairs at once would take
# a (1, 400, 400, 2) array: a chain of steps with every row repeated
LONG_RUN = [[np.array([STEP * (i // 2), 1.0]) for i in range(400)]]


@settings(max_examples=300, deadline=None)
@given(dedup_runs())
@example([[np.array([1.0, 1.0])] * 3, [np.array([0.0, 2 * STEP]), np.array([0.0, STEP]), np.array([0.0, 0.0])]])
@example(LONG_RUN)
@example([[np.array([3e4, 2.0]), np.array([3e4, 2.0 + STEP])]])  # close, but projected apart by rounding
@example([[np.array([1.7e308, -1.7e308])] * 2 + [np.array([-1.7e308, 1.7e308])]])  # distances overflow
def test_stack_dedup_matches_the_rule_row_by_row(runs):
    counts = np.array([len(run) for run in runs])
    members = np.vstack([np.vstack(run) for run in runs])
    stack = EstimateStack(members, np.cumsum(counts) - counts)
    assert len(stack) == len(runs)
    for j, run in enumerate(runs):
        want = dedup_oracle(run)
        for got in (stack[j], EstimateSet(np.vstack(run))):
            assert np.array_equal(got.members, want)
            assert np.array_equal(got.canonical, want[0])


def test_median_boxes_of_a_long_stack_match_it_chunk_by_chunk():
    # every fourth dataset has two middle values 1e-13 apart in each
    # coordinate, so its box corners fall within 1e-12 and are deduplicated
    rng = np.random.default_rng(7)
    stack = rng.standard_normal((11_200, 12, 2))
    stack[::4] = np.sort(stack[::4], axis=1)
    stack[::4, 6] = stack[::4, 5] + 1e-13
    whole = _median_boxes(stack)
    parts = [_median_boxes(stack[lo:lo + 2048]) for lo in range(0, len(stack), 2048)]
    offsets = np.cumsum([0] + [part.members.shape[0] for part in parts[:-1]])
    assert np.array_equal(whole.members, np.concatenate([part.members for part in parts]))
    assert np.array_equal(whole.starts, np.concatenate([part.starts + o for part, o in zip(parts, offsets)]))
    assert np.array_equal(whole.canonical, np.concatenate([part.canonical for part in parts]))
    assert len(whole[0].members) == 1 and len(whole[1].members) == 4


def test_stack_dedup_keeps_both_ends_of_a_chain():
    # a ~ b and b ~ c but not a ~ c: b goes, c stays, in either order
    a, b, c = np.array([[0.0], [STEP], [2 * STEP]])
    stack = EstimateStack(np.array([a, b, c, c, b, a]), [0, 3])
    assert np.array_equal(stack[0].members, [a, c])
    assert np.array_equal(stack[1].members, [c, a])


def test_stack_indexes_from_the_end():
    stack = EstimateStack(np.array([[0.0], [1.0], [2.0]]), [0, 1])
    assert np.array_equal(stack[-1].members, [[1.0], [2.0]])
    assert np.array_equal(stack[-2].members, [[0.0]])
    for j in (2, -3):
        with pytest.raises(IndexError):
            stack[j]


def test_mcd_dedups_many_tied_winners_in_linear_memory():
    # 12 zeros and 4 fives, h = 9: every subset of 8 zeros and one five
    # ties, C(12, 8) * 4 = 1,980 winners that all share the mean 5/9
    X = DataSet(np.repeat([0.0, 5.0], [12, 4]))
    tracemalloc.start()
    try:
        result = mcd_exhaustive(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result.optimal_subsets) == 1980
    assert np.array_equal(result.estimates.members, [[5.0 / 9.0]])
    # comparing every pair of winners at once takes 31 MB per temporary
    assert peak < 8e6


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


OVERFLOWS = "every coverage subset's covariance determinant overflows"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(DETS, min_size=1, max_size=6), min_size=1, max_size=5), st.integers(0, 2**16),
       st.booleans(), st.integers(1, 6), st.integers(0, 2**5 - 1))
@example([[1.0]], 0, False, 1, 0)
@example([[1.0]], 0, False, 1, 1)
@example([[SCALE], [0.0, np.nan, TIE_EDGE, np.inf, SCALE, SCALE * (1 + 2e-9)]], 1, True, 6, 1)
@example([[2.0, 1.0], [0.0, np.nan, np.inf]], 2, False, 1, 3)
# a singular subset below the best one: a tight bracket makes it the only
# candidate, and the chunk must score every subset
@example([[0.0, SCALE]], 6, False, 1, 1)
@example([[SCALE, TIE_EDGE], [SCALE * 2, -1.0, SCALE * 3]], 7, True, 2, 1)
# a degenerate run before an overflowing one, and the reverse, within
# one stack of datasets and across two
@example([[SCALE], [0.0, np.nan], [np.inf, 0.0]], 3, True, 6, 0)
@example([[SCALE], [np.inf, 0.0], [0.0, np.nan]], 4, False, 6, 1)
@example([[SCALE], [0.0, np.nan], [np.inf, 0.0]], 3, False, 2, 3)
@example([[SCALE], [np.inf, 0.0], [0.0, np.nan]], 4, True, 1, 7)
@example([[SCALE], [SCALE, 2.0], [1.0], [np.inf, 0.0], [3.0]], 5, True, 2, 5)
def test_mcd_winners_and_kernel_match_the_rule_run_by_run(runs, seed, shear, chunk, tight):
    dets = np.array([d for run in runs for d in run])
    starts = np.cumsum([0] + [len(run) for run in runs[:-1]])
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((dets.size, 2))
    subsets = np.arange(3 * dets.size).reshape(-1, 3)
    # the kernel stacks runs of S subsets: pad each run with NaN
    # determinants, which the rule skips, to the longest one
    S = max(len(run) for run in runs)
    padded = np.full((len(runs), S), np.nan)
    padded_means = rng.standard_normal((len(runs), S, 2))
    for g, (start, run) in enumerate(zip(starts, runs)):
        padded[g, :len(run)] = run
        padded_means[g, :len(run)] = means[start:start + len(run)]
    grid = tuple(10.0 ** (g + 1) for g in range(len(runs)))
    # point p of dataset g is (g, p) and subset s takes point s thrice,
    # so a gathered subset names its run and its place in it
    points = np.stack(np.broadcast_arrays(*np.ix_(np.arange(len(runs)), np.arange(S))), axis=2).astype(float)
    family = ReplacementFamily((0,), grid, points, object() if shear else None)
    index = np.repeat(np.arange(S)[:, None], 3, axis=1)
    # chunk c's bracket is tight where bit c of `tight` is set, else not
    # finite: a tight one is the objective itself, at most 0 for a
    # singular subset, and keeps the padding out of the candidates
    exact = np.where(np.isfinite(padded) & (padded > 0.0), padded, 0.0)
    exact[np.isposinf(padded)] = np.inf
    exact[np.arange(S) >= np.array([len(run) for run in runs])[:, None]] = 1e300

    def bounds(lo, hi):
        if tight >> (lo // chunk) & 1:
            return exact[lo:hi], exact[lo:hi]
        return np.zeros((hi - lo, S)), np.full((hi - lo, S), np.nan)

    sizes = []

    def objectives(groups):
        sizes.append(len(groups))
        g, p = groups[:, 0].astype(int).T
        return padded_means[g, p], padded[g, p]

    def kernel(run, *args):
        # a stack of `chunk` datasets' subsets (S subsets of 3 points in 2-d each)
        sizes.clear()
        with mock.patch("robloc.estimators._subset_objectives", objectives), \
                mock.patch("robloc.estimators._MCD_STACK_FLOATS", chunk * S * 3 * 2):
            try:
                return run(*args)
            finally:
                assert sizes and max(sizes) <= chunk * S

    stacked = (points, index, bounds)
    failed = [g for g, run in enumerate(runs) if not any(np.isfinite(d) and d > 0 for d in run)]
    if failed:
        # the first failing run in grid order decides; one whose
        # determinants overflowed is out of range, not singular
        if np.inf in runs[failed[0]]:
            for run in (lambda: _mcd_winners(dets, starts), lambda: kernel(_mcd_stack, *stacked)):
                with pytest.raises(OverflowParameterError, match=OVERFLOWS) as info:
                    run()
                assert info.value.run == failed[0]
            kind = "slope" if shear else "radius"
            with pytest.raises(ParameterError) as info:
                kernel(_mcd_family, index, family, bounds)
            assert type(info.value) is ParameterError
            assert str(info.value) == f"{kind} {grid[failed[0]]!r} is too large: {OVERFLOWS}"
        else:
            for run in (lambda: _mcd_winners(dets, starts), lambda: kernel(_mcd_stack, *stacked)):
                with pytest.raises(DegenerateSampleError, match="singular covariance"):
                    run()
        return
    winners, best, first = _mcd_winners(dets, starts)
    rows, members, kernel_first, kernel_best, _, fallbacks = kernel(_mcd_stack, *stacked)
    stack, _ = kernel(_mcd_family, index, family, bounds)
    # a chunk scores every subset unless its bracket is tight and every
    # candidate (each singular subset among them) has a valid objective
    assert fallbacks == sum(
        len(part) for c, part in enumerate(runs[lo:lo + chunk] for lo in range(0, len(runs), chunk))
        if not tight >> c & 1 or not all(np.isfinite(d) and d > 0 for run in part for d in run))
    assert len(best) == len(first) == len(kernel_best) == len(kernel_first) == len(stack) == len(runs)
    assert np.array_equal(stack.starts, kernel_first)
    for g, (w, start, run) in enumerate(zip(np.split(winners, first[1:]), starts, runs)):
        part = slice(start, start + len(run))
        objective, want, optimal = mcd_pick_oracle(subsets[part], means[part], dets[part])
        assert best[g] == kernel_best[g] == objective
        assert tuple(map(tuple, subsets[w].tolist())) == optimal
        picked = slice(kernel_first[g], kernel_first[g + 1] if g + 1 < len(runs) else None)
        assert rows[picked, 0].tolist() == (w - start).tolist()
        for estimate in (EstimateSet(means[w]), EstimateSet(members[picked]), stack[g]):
            assert np.array_equal(estimate.members, want)
            assert np.array_equal(estimate.canonical, want[0])


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
