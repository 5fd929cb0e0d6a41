"""The estimators' hooks against the generic per-dataset loop they replace,
on the families of both attacks."""

import dataclasses
import json
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robloc import (
    AttackSuite,
    DataSet,
    check_general_position,
    empirical_fsbv,
    make_estimator,
    random_gp_dataset,
    shear_attack,
    translation_cluster_attack,
)
from robloc.breakdown import DEFAULT_GAMMA_GRID, _shear_family
from robloc.errors import RoblocError
from robloc.estimators import (
    EstimateSet,
    MCDShearSweep,
    _mcd_picks,
    coordinatewise_median,
    default_mcd_coverage,
    mcd_exhaustive,
)
from robloc.univariate import univariate_median
from test_breakdown import frames_of


def generic(T):
    """The same estimator without its hook: one evaluate per dataset."""
    return dataclasses.replace(T, families=None)


def assert_same_estimate(got, want):
    assert np.array_equal(got.members, want.members)
    assert np.array_equal(got.canonical, want.canonical)


def outcome(run, *args, **kwargs):
    """Serialised result, or the error raised, for byte-for-byte comparison."""
    try:
        return json.dumps(run(*args, **kwargs).to_dict(), sort_keys=True)
    except RoblocError as exc:
        return f"{type(exc).__name__}: {exc}"


def attack_calls(X, grid, seed, budgets=None):
    """(attack, args, kwargs) of both attacks on X: the shear attack at
    every h (and every budget of ``budgets``), the cluster attack at a few
    budgets along both directions of the first axis, over ``grid``."""
    budgets = (None,) if budgets is None else budgets
    calls = [
        (shear_attack, (h,), dict(gamma_grid=grid, cone_seed=seed, m=m))
        for h in range(1, X.k + 1)
        for m in budgets
    ]
    for m in (1, X.n // 2, X.n // 2 + 1):
        for direction in np.vstack([np.eye(X.k)[:1], -np.eye(X.k)[:1]]):
            calls.append((translation_cluster_attack, (m,), dict(radius_grid=grid, direction=direction)))
    return calls


def assert_hook_matches_generic(T, X, suite, calls):
    assert outcome(empirical_fsbv, T, X, suite) == outcome(empirical_fsbv, generic(T), X, suite)
    for attack, args, kwargs in calls:
        assert outcome(attack, T, X, *args, **kwargs) == outcome(attack, generic(T), X, *args, **kwargs)


def test_mcd_sweep_matches_generic_loop_on_demo10(demo10):
    # gamma = 1e8 is where the float SVD objective departs from the exact
    # one, so the sweep must reproduce the float winner, not the exact one
    T = make_estimator("mcd")
    calls = attack_calls(demo10, DEFAULT_GAMMA_GRID, 0, budgets=(1, 4))
    assert_hook_matches_generic(T, demo10, AttackSuite(), calls)


@st.composite
def mcd_cases(draw):
    k = draw(st.integers(2, 4))
    n = draw(st.integers(k + 3, k + 4))
    default = default_mcd_coverage(n, k)
    coverage = draw(st.sampled_from([h for h in range(k + 1, n + 1) if h != default]))
    grid = sorted(draw(st.sets(st.sampled_from((1e1, 1e3, 1e5, 1e6, 1e7)), max_size=2)))
    seed = draw(st.integers(0, 2**16))
    return random_gp_dataset(n, k, seed), coverage, tuple(grid) + (1e8,), seed


@settings(max_examples=12, deadline=None)
@given(mcd_cases())
def test_mcd_sweep_matches_generic_loop(case):
    X, coverage, grid, seed = case
    T = make_estimator("mcd", coverage=coverage)
    suite = AttackSuite(gamma_grid=grid, radius_grid=(1e9,), cone_seed=seed)
    assert_hook_matches_generic(T, X, suite, attack_calls(X, grid, seed))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_mcd_sweep_bounds_bracket_the_svd_objective(k):
    X = random_gp_dataset(k + 5, k, seed=40 + k)
    slopes = [sign * 10.0**p for p in range(9) for sign in (1.0, -1.0)]
    for frame in frames_of(make_estimator("mcd"), X, k)[:3]:
        sweep = MCDShearSweep(X, frame.basis)
        _, replaced = frame.partition(2, "largest_projection")
        family = _shear_family(X, frame.basis, replaced, slopes)
        low, high = sweep.bounds(family)
        for j, points in enumerate(family.points):
            groups = points[sweep.subsets]
            centered = groups - groups.mean(axis=1, keepdims=True)
            objective = np.prod(np.linalg.svd(centered, compute_uv=False), axis=1) ** 2
            assert np.all(low[:, j] <= objective) and np.all(objective <= high[:, j])
            if abs(slopes[j]) <= 1e3:
                # tight at moderate slopes: the quadratic identity is exact
                assert np.all(high[:, j] - low[:, j] <= 1e-6 * high[:, j])
        picks = _mcd_picks(*sweep._candidates(family))
        stack = sweep(family)
        for j, points in enumerate(family.points):
            want = mcd_exhaustive(DataSet(points))
            assert picks[j].optimal_subsets == want.optimal_subsets
            assert picks[j].objective == want.objective
            assert_same_estimate(stack[j], want.estimates)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # slope 1e100 overflows on purpose
def test_mcd_sweep_falls_back_whole_family_where_the_bound_overflows():
    # the sweep declines the family and the evaluator's shared loop runs
    # the full estimator on every dataset of it
    X = random_gp_dataset(7, 2, seed=42)
    T = make_estimator("mcd")
    frame = frames_of(T, X, 2)[0]
    sweeps = []

    def families(X, basis):
        sweeps.append(MCDShearSweep(X, basis))
        return sweeps[-1]

    evaluate = dataclasses.replace(T, families=families).evaluator(X, frame.basis)
    _, replaced = frame.partition(2, "largest_projection")
    family = _shear_family(X, frame.basis, replaced, (0.1, 10.0, 1e100))
    (sweep,) = sweeps
    _, high = sweep.bounds(family)
    assert not np.isfinite(high).all()
    stack = evaluate(family)
    assert sweep.fallbacks == len(family.parameters)
    for j, points in enumerate(family.points):
        assert_same_estimate(stack[j], mcd_exhaustive(DataSet(points)).estimates)


def test_mcd_sweep_screens_out_most_subsets(demo10):
    made = []

    class CountingSweep(MCDShearSweep):
        def __init__(self, X, basis):
            super().__init__(X, basis)
            self.pairs = 0
            made.append(self)

        def bounds(self, family):
            self.pairs += len(self.subsets) * len(family.parameters)
            return super().bounds(family)

    def families(X, basis):
        return None if basis is None else CountingSweep(X, basis)

    empirical_fsbv(dataclasses.replace(make_estimator("mcd"), families=families), demo10)
    assert made and sum(s.fallbacks for s in made) == 0
    assert sum(s.candidates for s in made) < sum(s.pairs for s in made) / 4


def integer_gp_dataset(n, k, seed):
    """General-position points on the integer grid {0..n-1}^k: coordinates
    tie, so even-n median intervals can collapse to a point."""
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        X = DataSet(rng.integers(0, n, size=(n, k)).astype(float))
        if check_general_position(X).ok:
            return X
    raise AssertionError(f"no integer GP set for n={n}, k={k}, seed={seed}")


@st.composite
def cmedian_cases(draw):
    k = draw(st.integers(2, 4))
    n = draw(st.integers(k + 2, k + 5))
    seed = draw(st.integers(0, 2**16))
    make = draw(st.sampled_from((random_gp_dataset, integer_gp_dataset)))
    grid = sorted(draw(st.sets(st.sampled_from((1e1, 1e3, 1e5, 1e7)), max_size=2)))
    return make(n, k, seed), tuple(grid) + (1e8,), seed


@settings(max_examples=16, deadline=None)
@given(cmedian_cases())
def test_cmedian_sweep_matches_generic_loop(case):
    X, grid, seed = case
    T = make_estimator("cmedian")
    suite = AttackSuite(gamma_grid=grid, radius_grid=(1e9,), cone_seed=seed)
    assert_hook_matches_generic(T, X, suite, attack_calls(X, grid, seed))


def median_box_oracle(X):
    """The coordinatewise median box built one coordinate at a time: the
    univariate median interval of each column, corners in ``product``
    order, one value on a coordinate whose interval is a point."""
    intervals = [univariate_median(X.points[:, j]) for j in range(X.k)]
    axes = [(iv.low,) if iv.is_point else (iv.low, iv.high) for iv in intervals]
    return EstimateSet(list(product(*axes)), canonical=[iv.midpoint for iv in intervals])


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("n_extra", [2, 3])
@pytest.mark.parametrize("make", [random_gp_dataset, integer_gp_dataset])
def test_cmedian_sweep_matches_evaluate_per_dataset(k, n_extra, make):
    X = make(k + n_extra, k, 60 + k)
    T = make_estimator("cmedian")
    slopes = [sign * 10.0**p for p in range(9) for sign in (1.0, -1.0)]
    collapsed = 0
    for frame in frames_of(T, X, k)[:3]:
        for m in (1, X.n - k):
            a_idx, b_idx = frame.partition(m, "smallest_projection")
            for replaced in (a_idx, b_idx):
                family = _shear_family(X, frame.basis, replaced, slopes)
                got = T.evaluator(X, frame.basis)(family)
                for est, Xg in zip(got, map(DataSet, family.points)):
                    want = median_box_oracle(Xg)
                    for found in (est, coordinatewise_median(Xg)):
                        assert np.array_equal(found.members, want.members)
                        assert np.array_equal(found.canonical, want.canonical)
                    collapsed += est.size < 2**k
    if make is integer_gp_dataset and X.n % 2 == 0:
        # tied central order statistics: fewer corners than 2^k
        assert collapsed
