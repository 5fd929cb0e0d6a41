"""The estimators' shear sweeps against the generic per-gamma loop they replace."""

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
)
from robloc.breakdown import _partition, _rankings, _shear_frames
from robloc.errors import RoblocError
from robloc.estimators import (
    EstimateSet,
    MCDShearSweep,
    coordinatewise_median,
    default_mcd_coverage,
    mcd_exhaustive,
)
from robloc.geometry import ShearFamily, basis_from_normal
from robloc.univariate import univariate_median


def generic(T):
    """The same estimator without its sweep hook: one evaluate per dataset."""
    return dataclasses.replace(T, sweep=None)


def outcome(run, *args, **kwargs):
    """Serialised result, or the error raised, for byte-for-byte comparison."""
    try:
        return json.dumps(run(*args, **kwargs).to_dict(), sort_keys=True)
    except RoblocError as exc:
        return f"{type(exc).__name__}: {exc}"


def test_mcd_sweep_matches_generic_loop_on_demo10(demo10):
    # gamma = 1e8 is where the float SVD objective departs from the exact
    # one, so the sweep must reproduce the float winner, not the exact one
    T = make_estimator("mcd")
    assert outcome(empirical_fsbv, T, demo10) == outcome(empirical_fsbv, generic(T), demo10)
    for h in (1, 2):
        for m in (1, 4):
            assert outcome(shear_attack, T, demo10, h, m=m) == outcome(
                shear_attack, generic(T), demo10, h, m=m
            )


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
    assert outcome(empirical_fsbv, T, X, suite) == outcome(empirical_fsbv, generic(T), X, suite)
    for h in range(1, X.k + 1):
        kwargs = dict(gamma_grid=grid, cone_seed=seed)
        assert outcome(shear_attack, T, X, h, **kwargs) == outcome(
            shear_attack, generic(T), X, h, **kwargs
        )


@pytest.mark.parametrize("k", [2, 3, 4])
def test_mcd_sweep_bounds_bracket_the_svd_objective(k):
    X = random_gp_dataset(k + 5, k, seed=40 + k)
    theta = mcd_exhaustive(X).estimates.canonical
    slopes = [sign * 10.0**p for p in range(9) for sign in (1.0, -1.0)]
    for frame in _shear_frames(X, theta, k, all_s_choices=False, cone_seed=0)[:3]:
        basis = basis_from_normal(frame.normal, frame.origin)
        sweep = MCDShearSweep(X, basis)
        _, replaced = _partition(_rankings(X, frame)["largest_projection"], 2)
        family = ShearFamily.of(X, basis, replaced, slopes)
        low, high = sweep.bounds(family)
        for j, Xg in enumerate(family.datasets):
            groups = Xg.points[sweep.subsets]
            centered = groups - groups.mean(axis=1, keepdims=True)
            objective = np.prod(np.linalg.svd(centered, compute_uv=False), axis=1) ** 2
            assert np.all(low[:, j] <= objective) and np.all(objective <= high[:, j])
            if abs(slopes[j]) <= 1e3:
                # tight at moderate slopes: the quadratic identity is exact
                assert np.all(high[:, j] - low[:, j] <= 1e-6 * high[:, j])
        for got, Xg in zip(sweep.results(family), family.datasets):
            want = mcd_exhaustive(Xg)
            assert got.optimal_subsets == want.optimal_subsets
            assert got.objective == want.objective
            assert np.array_equal(got.estimates.members, want.estimates.members)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # slope 1e100 overflows on purpose
def test_mcd_sweep_falls_back_whole_family_where_the_bound_overflows():
    X = random_gp_dataset(7, 2, seed=42)
    theta = mcd_exhaustive(X).estimates.canonical
    frame = _shear_frames(X, theta, 2, all_s_choices=False, cone_seed=0)[0]
    basis = basis_from_normal(frame.normal, frame.origin)
    sweep = MCDShearSweep(X, basis)
    _, replaced = _partition(_rankings(X, frame)["largest_projection"], 2)
    family = ShearFamily.of(X, basis, replaced, (0.1, 10.0, 1e100))
    _, high = sweep.bounds(family)
    assert not np.isfinite(high).all()
    for got, Xg in zip(sweep.results(family), family.datasets):
        want = mcd_exhaustive(Xg)
        assert got.optimal_subsets == want.optimal_subsets
        assert got.objective == want.objective
        assert np.array_equal(got.estimates.members, want.estimates.members)
    assert sweep.fallbacks > 0


def test_mcd_sweep_screens_out_most_subsets(demo10):
    made = []

    class CountingSweep(MCDShearSweep):
        def __init__(self, X, basis):
            super().__init__(X, basis)
            self.pairs = 0
            made.append(self)

        def results(self, family):
            self.pairs += len(self.subsets) * len(family.slopes)
            return super().results(family)

    empirical_fsbv(dataclasses.replace(make_estimator("mcd"), sweep=CountingSweep), demo10)
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
    assert outcome(empirical_fsbv, T, X, suite) == outcome(empirical_fsbv, generic(T), X, suite)
    for h in range(1, X.k + 1):
        kwargs = dict(gamma_grid=grid, cone_seed=seed)
        assert outcome(shear_attack, T, X, h, **kwargs) == outcome(
            shear_attack, generic(T), X, h, **kwargs
        )


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
    theta = T(X).canonical
    slopes = [sign * 10.0**p for p in range(9) for sign in (1.0, -1.0)]
    collapsed = 0
    for frame in _shear_frames(X, theta, k, all_s_choices=False, cone_seed=0)[:3]:
        basis = basis_from_normal(frame.normal, frame.origin)
        ranked = _rankings(X, frame)["smallest_projection"]
        for m in (1, X.n - k):
            a_idx, b_idx = _partition(ranked, m)
            for replaced in (a_idx, b_idx):
                family = ShearFamily.of(X, basis, replaced, slopes)
                got = T.shear_sweep(X, basis)(family)
                for est, Xg in zip(got, family.datasets):
                    want = median_box_oracle(Xg)
                    for found in (est, coordinatewise_median(Xg)):
                        assert np.array_equal(found.members, want.members)
                        assert np.array_equal(found.canonical, want.canonical)
                    collapsed += est.size < 2**k
    if make is integer_gp_dataset and X.n % 2 == 0:
        # tied central order statistics: fewer corners than 2^k
        assert collapsed
