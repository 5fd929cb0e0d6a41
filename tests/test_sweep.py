"""The estimators' hooks against the generic per-dataset loop they replace,
on the families of both attacks."""

import dataclasses
import json
import tracemalloc
from unittest import mock
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
from robloc import breakdown, estimators
from robloc.breakdown import DEFAULT_GAMMA_GRID, DEFAULT_RADIUS_GRID, _cluster_rows
from robloc.errors import ParameterError, RoblocError
from robloc.estimators import (
    EstimateSet,
    MCDShearSweep,
    _mcd_stack,
    coordinatewise_median,
    default_mcd_coverage,
    mcd_exhaustive,
)
from robloc.univariate import univariate_median
from conftest import shear_images
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


def kernel_counts(calls):
    """A stand-in for the MCD kernel that appends each call's (subsets sent
    to the SVD, datasets of chunks that scored every subset) to ``calls``."""
    def counting(*args):
        found = _mcd_stack(*args)
        calls.append(found[4:])
        return found
    return mock.patch("robloc.estimators._mcd_stack", counting)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_mcd_sweep_bounds_bracket_the_svd_objective(k):
    X = random_gp_dataset(k + 5, k, seed=40 + k)
    T = make_estimator("mcd")
    slopes = [sign * 10.0**p for p in range(9) for sign in (1.0, -1.0)]
    for frame in frames_of(T, X, k)[:3]:
        sweep = MCDShearSweep(X, frame.basis)
        _, replaced = frame.partition(2, "largest_projection")
        family = shear_images(X, frame.basis, "shear_replace_far", replaced, slopes)
        low, high = sweep.bracket(sweep.terms(family), family.parameters)
        for j, points in enumerate(family.points):
            groups = points[sweep.subsets]
            centered = groups - groups.mean(axis=1, keepdims=True)
            objective = np.prod(np.linalg.svd(centered, compute_uv=False), axis=1) ** 2
            assert np.all(low[j] <= objective) and np.all(objective <= high[j])
            if abs(slopes[j]) <= 1e3:
                # tight at moderate slopes: the quadratic identity is exact
                assert np.all(high[j] - low[j] <= 1e-6 * high[j])
        rows, _, first, best, _, fallbacks = _mcd_stack(family.points, sweep.subsets,
                                                         lambda lo, hi: (low[lo:hi], high[lo:hi]))
        assert fallbacks == 0
        stack = T.evaluator(X)([family])
        for j, (w, points) in enumerate(zip(np.split(rows, first[1:]), family.points)):
            want = mcd_exhaustive(DataSet(points))
            assert tuple(map(tuple, w.tolist())) == want.optimal_subsets
            assert best[j] == want.objective
            assert_same_estimate(stack[j], want.estimates)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # slope 1e100 overflows on purpose
def test_mcd_sweep_falls_back_chunk_by_chunk_where_the_bound_overflows():
    # with one slope per chunk, only the chunk whose bound overflows scores
    # every subset, and every slope still gets exactly mcd_exhaustive's estimate
    X = random_gp_dataset(7, 2, seed=42)
    T = make_estimator("mcd")
    frame = frames_of(T, X, 2)[0]
    _, replaced = frame.partition(2, "largest_projection")
    family = shear_images(X, frame.basis, "shear_replace_far", replaced, (0.1, 10.0, 1e100))
    sweep = MCDShearSweep(X, frame.basis)
    _, high = sweep.bracket(sweep.terms(family), family.parameters)
    assert np.isfinite(high[:2]).all() and not np.isfinite(high[2]).all()
    calls = []
    with mock.patch("robloc.estimators._MCD_STACK_FLOATS", 1), kernel_counts(calls):
        stack = T.evaluator(X)([family])
    ((candidates, fallbacks),) = calls
    assert fallbacks == 1 and 0 < candidates
    for j, points in enumerate(family.points):
        assert_same_estimate(stack[j], mcd_exhaustive(DataSet(points)).estimates)


def test_mcd_sweep_screens_out_most_subsets(demo10, monkeypatch):
    # the subsets sent to the SVD, by shear and cluster families and the
    # baseline alike, against the (subset, dataset) pairs of the shear
    # families alone
    pairs, calls = [], []
    bracket = MCDShearSweep.bracket

    def counting(self, terms, slopes):
        pairs.append(len(self.subsets) * len(slopes))
        return bracket(self, terms, slopes)

    monkeypatch.setattr(MCDShearSweep, "bracket", counting)
    with kernel_counts(calls):
        empirical_fsbv(make_estimator("mcd"), demo10)
    candidates, fallbacks = map(sum, zip(*calls))
    assert pairs and fallbacks == 0
    assert candidates < sum(pairs) / 4


def test_mcd_runs_its_kernel_once_per_batch(demo10, monkeypatch):
    # every batch holds mcd families of several frames or of the cluster
    # attacks, or both: one kernel call settles it, one more the baseline,
    # and the SVD scores the 3,335 subsets it scored with one kernel call
    # per family
    settles, rows, calls = [], [], []
    settle, objectives = breakdown._settle, estimators._subset_objectives
    monkeypatch.setattr(breakdown, "_settle", lambda *args: settles.append(args) or settle(*args))
    monkeypatch.setattr(estimators, "_subset_objectives", lambda groups: rows.append(len(groups)) or objectives(groups))
    with kernel_counts(calls):
        empirical_fsbv(make_estimator("mcd"), demo10)
    assert len(settles) == 20 and len(calls) == len(settles) + 1
    assert sum(rows) == 3335


OVERFLOWS = "every coverage subset's covariance determinant overflows"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the determinants overflow on purpose
@pytest.mark.parametrize("kind", ["slope", "radius"])
def test_an_overflow_in_a_call_names_its_familys_parameter(kind, demo10):
    # five replaced rows: every coverage subset of six holds one, so every
    # determinant of the second family's second dataset overflows
    T = make_estimator("mcd")
    frame = frames_of(T, demo10, 2)[0]
    _, replaced = frame.partition(5, "largest_projection")
    first = shear_images(demo10, frame.basis, "shear_replace_far", replaced, (10.0, 1e3))
    if kind == "slope":
        second = shear_images(demo10, frame.basis, "shear_replace_near", replaced, (1e2, 1e160, 1e170))
    else:
        second = _cluster_rows(demo10, replaced, T(demo10).canonical, np.eye(2)[0], (1e2, 1e200, 1e210))
    bad = second.parameters[1]
    for families in ([first, second], [second, first]):
        with pytest.raises(ParameterError) as info:
            T.evaluator(demo10)(families)
        assert type(info.value) is ParameterError
        assert str(info.value) == f"{kind} {bad!r} is too large: {OVERFLOWS}"


@pytest.mark.parametrize("attack", ["shear", "cluster"])
def test_long_mcd_families_hold_bounded_memory(attack):
    # 256 datasets of C(16, 9) = 11,440 coverage subsets each: the kernel
    # settles them chunk by chunk, so however long the grid, a family holds
    # about one chunk's subsets
    T = make_estimator("mcd")
    X = random_gp_dataset(16, 2, 1)
    grid = tuple(np.geomspace(10.0, 1e8 if attack == "shear" else 1e9, 256).tolist())
    tracemalloc.start()
    try:
        if attack == "shear":
            shear_attack(T, X, 2, gamma_grid=grid, m=4)
        else:
            translation_cluster_attack(T, X, 7, radius_grid=grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**20


def integer_gp_dataset(n, k, seed):
    """General-position points on the integer grid {0..n-1}^k: coordinates
    tie, so even-n median intervals can collapse to a point."""
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        X = DataSet(rng.integers(0, n, size=(n, k)).astype(float))
        if check_general_position(X).ok:
            return X
    raise AssertionError(f"no integer GP set for n={n}, k={k}, seed={seed}")


@pytest.mark.parametrize("data", ["demo10", "gp9_2", "gp8_3", "int7_2", "int9_2", "int8_3"])
def test_mcd_cluster_hook_matches_generic_loop_at_every_m(data, demo10):
    # the integer sets tie subset determinants, so estimates have several
    # members; every budget m = 1..n, both directions of every axis
    X = {"demo10": demo10, "gp9_2": random_gp_dataset(9, 2, 3), "gp8_3": random_gp_dataset(8, 3, 4),
         "int7_2": integer_gp_dataset(7, 2, 38), "int9_2": integer_gp_dataset(9, 2, 37),
         "int8_3": integer_gp_dataset(8, 3, 34)}[data]
    T = make_estimator("mcd")
    theta = T(X).canonical
    hook, loop = T.evaluator(X), generic(T).evaluator(X)
    tied = 0
    for m in range(1, X.n + 1):
        for u in np.vstack([np.eye(X.k), -np.eye(X.k)]):
            order = np.lexsort((np.arange(X.n), -(X.points @ u)))
            family = _cluster_rows(X, np.sort(order[:m]), theta, u, DEFAULT_RADIUS_GRID)
            want = loop([family])
            # one stack of every radius's subsets, and one radius at a time
            with mock.patch("robloc.estimators._MCD_STACK_FLOATS", 1):
                alone = hook([family])
            for got in (hook([family]), alone):
                for name in ("members", "starts", "canonical"):
                    assert np.array_equal(getattr(got, name), getattr(want, name)), (m, u, name)
            tied += len(got.members) > len(got)
            assert outcome(translation_cluster_attack, T, X, m, direction=u) == \
                outcome(translation_cluster_attack, generic(T), X, m, direction=u)
    if data.startswith("int"):
        assert tied


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
                family = shear_images(X, frame.basis, "shear_replace_far", replaced, slopes)
                got = T.evaluator(X)([family])
                for est, Xg in zip(got, map(DataSet, family.points)):
                    want = median_box_oracle(Xg)
                    for found in (est, coordinatewise_median(Xg)):
                        assert np.array_equal(found.members, want.members)
                        assert np.array_equal(found.canonical, want.canonical)
                    collapsed += est.size < 2**k
    if make is integer_gp_dataset and X.n % 2 == 0:
        # tied central order statistics: fewer corners than 2^k
        assert collapsed
