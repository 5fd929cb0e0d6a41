"""The candidate bracket of exhaustive MCD against the all-subsets path:
the bounds hold the SVD objective of every subset, and the bracketed
estimator returns what scoring every subset returns, to the bit."""

from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robloc import DataSet, bundled_dataset, random_gp_dataset
from robloc.errors import DegenerateSampleError, OverflowParameterError
from robloc.estimators import (
    EstimateSet,
    _mcd_bounds,
    _mcd_stack,
    _mcd_winners,
    _subset_objectives,
    default_mcd_coverage,
    mcd_exhaustive,
)
from robloc.geometry import subset_index
from test_sweep import integer_gp_dataset


def all_subsets(X, h):
    """The MCD of X scored on every coverage subset, without the bracket:
    (objective, optimal subsets, members)."""
    subsets = subset_index(X.n, h)
    means, dets = _subset_objectives(X.points[subsets])
    winners, (best,), _ = _mcd_winners(dets, [0])
    return float(best), tuple(map(tuple, subsets[winners].tolist())), means[winners]


def counts(X, h):
    """(subsets the bracket sent to the SVD, datasets that scored every
    subset) of the MCD kernel on X alone."""
    subsets, stack = subset_index(X.n, h), X.points[None]
    return _mcd_stack(stack, subsets, lambda lo, hi: _mcd_bounds(stack, subsets))[4:]


@st.composite
def bracket_cases(draw):
    """Data of every kind the bracket must hold on, with any coverage: a
    small coverage lets a subset sit far from the coordinatewise median."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k + 2, k + 6))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["gp", "integer", "collinear", "translated", "scaled", "far"]))
    if kind == "integer" and k > 1:
        points = integer_gp_dataset(n, k, seed).points.copy()
    elif kind == "integer":
        points = rng.integers(0, 4, size=(n, 1)).astype(float)  # ties and singular subsets
    else:
        points = random_gp_dataset(n, k, seed).points.copy()
    if kind == "collinear":
        # part of the data within 1e-6 of a line: near-singular subsets
        m = draw(st.integers(k + 1, n))
        t = rng.standard_normal(m)
        points[:m] = points[0] + t[:, None] * rng.standard_normal(k) + 1e-6 * rng.standard_normal((m, k))
    elif kind == "translated":
        # the SVD path's rounded mean shifts every centered row alike
        points = points + 10.0 ** draw(st.integers(3, 12)) * rng.standard_normal(k)
    elif kind == "scaled":
        # as far as the objective of k = 4 stays within the float range
        points = points * 10.0 ** draw(st.integers(-30, 30))
    elif kind == "far":
        # a compact cluster far from the median: its Gram sums cancel
        m = draw(st.integers(k + 1, n - 1))
        points[:m] = 1e4 * rng.standard_normal(k) + 1e-2 * points[:m]
    h = draw(st.integers(k + 1, n))
    return points, h


@settings(max_examples=300, deadline=None)
@given(bracket_cases())
@example((np.array([[0.0], [0.1], [0.2], [0.3], [100.0]]), 3))
def test_mcd_bounds_bracket_the_svd_objective(case):
    points, h = case
    subsets = subset_index(len(points), h)
    _, dets = _subset_objectives(points[subsets])
    (low,), (high,) = _mcd_bounds(points[None], subsets)
    assert np.all(np.isfinite(high))
    assert np.all(low <= dets) and np.all(dets <= high)


@pytest.mark.parametrize("data, h, ties", [
    ("gp16_2", None, False), ("gp12_3", None, False), ("gp9_4", None, False),
    ("gp9_1", None, False), ("gp9_2_small_h", 3, False),
    ("int7_2", None, True), ("mirror", 3, True), ("tied_1d", 3, True),
    ("demo10_shifted", None, False), ("demo10_scaled", None, False),
])
def test_bracketed_mcd_equals_every_subset_scored(data, h, ties):
    X = {"gp16_2": lambda: random_gp_dataset(16, 2, 1), "gp12_3": lambda: random_gp_dataset(12, 3, 2),
         "gp9_4": lambda: random_gp_dataset(9, 4, 3), "gp9_1": lambda: random_gp_dataset(9, 1, 4),
         "gp9_2_small_h": lambda: random_gp_dataset(9, 2, 5), "int7_2": lambda: integer_gp_dataset(7, 2, 38),
         "mirror": lambda: DataSet(np.array([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0])),
         # {0,.1,.2} and {.1,.2,.3} have exactly equal variance
         "tied_1d": lambda: DataSet(np.array([0.0, 0.1, 0.2, 0.3, 100.0])),
         "demo10_shifted": lambda: DataSet(bundled_dataset("demo10_2d").points + 1e6),
         "demo10_scaled": lambda: DataSet(bundled_dataset("demo10_2d").points * 1e-3 + 5.0)}[data]()
    h = default_mcd_coverage(X.n, X.k) if h is None else h
    candidates, fallbacks = counts(X, h)
    assert fallbacks == 0
    objective, optimal, members = all_subsets(X, h)
    # the bracket leaves one candidate unless winners tie
    assert (len(optimal) > 1) == ties
    assert candidates == 1 or ties
    got = mcd_exhaustive(X, coverage=h)
    assert repr(got.objective) == repr(objective)
    assert got.optimal_subsets == optimal
    want = EstimateSet(members)
    assert got.estimates.members.tobytes() == want.members.tobytes()
    assert got.estimates.canonical.tobytes() == want.canonical.tobytes()


@pytest.mark.parametrize("scale, error, message", [
    (1e100, OverflowParameterError, "every coverage subset's covariance determinant overflows"),
    (1e-120, DegenerateSampleError, "every coverage subset has singular covariance"),
])
@pytest.mark.parametrize("data", ["demo10", "gp9_4"])
def test_extreme_scales_fall_back_and_raise_as_before(scale, error, message, data):
    X = bundled_dataset("demo10_2d") if data == "demo10" else random_gp_dataset(9, 4, 1)
    X = DataSet(X.points * scale)
    h = default_mcd_coverage(X.n, X.k)
    scored = []

    def objectives(groups):
        scored.append(len(groups))
        return _subset_objectives(groups)

    with mock.patch("robloc.estimators._subset_objectives", objectives), pytest.raises(error, match=message):
        mcd_exhaustive(X)
    # the bracket does not settle it: its last pass scores every subset
    assert scored[-1] == comb(X.n, h)
    with pytest.raises(error, match=message):
        all_subsets(X, h)
