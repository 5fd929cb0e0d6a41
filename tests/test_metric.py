from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robloc import (
    estimate_set_distance,
    hausdorff_set_distance,
    lipschitz_probe,
    sample_distance,
    univariate_median,
)
from robloc.errors import ParameterError
from robloc.estimators import EstimateSet


def factorial_distance(x, y):
    """min over all pairings of the largest pointwise gap (n! oracle)."""
    x = list(map(float, x))
    best = float("inf")
    for perm in permutations(map(float, y)):
        best = min(best, max(abs(a - b) for a, b in zip(x, perm)))
    return best


small_samples = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=6
)


def test_sample_distance_zero_under_permutation():
    assert sample_distance([3, 1, 2], [2, 3, 1]) == 0.0


def test_sample_distance_two_point_example():
    # sorted matching pairs (0,1) and (10,9)
    assert sample_distance([0, 10], [9, 1]) == 1.0


def test_sample_distance_equals_factorial_oracle_seeded():
    rng = np.random.default_rng(77)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        x = rng.uniform(-50, 50, n)
        y = rng.uniform(-50, 50, n)
        assert sample_distance(x, y) == factorial_distance(x, y)


@given(small_samples, small_samples)
def test_sample_distance_matches_oracle(x, y):
    if len(x) != len(y):
        with pytest.raises(ParameterError):
            sample_distance(x, y)
        return
    assert sample_distance(x, y) == factorial_distance(x, y)


@given(small_samples, small_samples, small_samples)
@settings(max_examples=60)
def test_sample_distance_is_a_metric(x, y, z):
    n = min(len(x), len(y), len(z))
    x, y, z = x[:n], y[:n], z[:n]
    dxy = sample_distance(x, y)
    assert dxy == sample_distance(y, x)
    assert sample_distance(x, x) == 0.0
    assert dxy <= sample_distance(x, z) + sample_distance(z, y) + 1e-12


def test_estimate_set_distance_is_sup_over_pairs():
    assert estimate_set_distance(np.array([[0.0]]), np.array([[0.0]])) == 0.0
    assert estimate_set_distance(np.array([[0.0]]), np.array([[3.0]])) == 3.0
    # sup over pairs, not a matching: identical two-member sets are 1 apart
    s = np.array([[0.0], [1.0]])
    assert estimate_set_distance(s, s) == 1.0


def test_hausdorff_distance_vanishes_on_equal_sets():
    s = np.array([[0.0, 1.0], [2.0, 3.0]])
    assert hausdorff_set_distance(s, s[::-1]) == 0.0
    assert hausdorff_set_distance(s, s + 1.0) > 0


def test_estimate_set_objects_accepted():
    a = EstimateSet(np.array([[0.0, 0.0]]))
    b = EstimateSet(np.array([[3.0, 4.0]]))
    assert estimate_set_distance(a, b) == 5.0


def test_lipschitz_probe_zero_delta():
    assert lipschitz_probe(univariate_median, [1.0, 2.0, 3.0], 0.0, 10, seed=1) == 0.0


def test_lipschitz_probe_constant_shift_is_exact():
    x = np.array([1.0, 2.0, 3.0])
    delta = 0.25
    moved = univariate_median(x + delta)
    base = univariate_median(x)
    assert moved.low - base.low == delta


def test_lipschitz_probe_bounded_by_delta():
    rng = np.random.default_rng(5)
    x = rng.uniform(0, 10, 9)
    worst = lipschitz_probe(univariate_median, x, 0.37, trials=1000, seed=99)
    assert worst <= 0.37 + 1e-12


def test_median_monotonicity_seeded_pairs():
    rng = np.random.default_rng(314)
    for _ in range(300):
        n = int(rng.integers(1, 15))
        x = rng.uniform(-5, 5, n)
        y = x + rng.uniform(0, 3, n)
        mx, my = univariate_median(x), univariate_median(y)
        assert mx.low <= my.low and mx.high <= my.high
