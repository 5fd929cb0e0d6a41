"""Integer parameters are checked, never truncated, and trial counts are evidence.

``int(6.7)`` is 6, so an integer parameter that was converted instead of
checked would silently run with another value. Every integer parameter of
the library goes through the one check of ``errors.require_integer``: a
float (even a whole one), a string or ``None`` where a number is needed is
a ParameterError (exit 4 on the command line). A trial count must be
positive, since zero trials would report a check passed on no evidence.
"""

import numpy as np
import pytest

from robloc import (
    DirectionBudget,
    OutlyingnessEvaluator,
    bundled_dataset,
    check_equivariance,
    lipschitz_probe,
    mad,
    make_estimator,
    mcd_exhaustive,
    pm_counterexample,
    projection_median,
    random_gp_dataset,
    shear_attack,
    theoretical_bounds,
    translation_cluster_attack,
    trimmed_mean,
    univariate_median,
)
from robloc.errors import ParameterError, require_integer

DEMO10 = bundled_dataset("demo10_2d")
BUDGET = DirectionBudget(20, True, 0)

# (estimator name, parameter, a fractional value)
ESTIMATOR_PARAMETERS = [
    ("mcd", "coverage", 6.7),
    ("tmean", "trim_count", 1.9),
    ("tmean", "scale_shift", 0.5),
    ("tmean", "random_count", 50.5),
    ("pm", "scale_shift", 0.5),
    ("pm", "random_count", 50.5),
    ("pm", "grid_refinements", 2.5),
]


@pytest.mark.parametrize("name, param, value", ESTIMATOR_PARAMETERS,
                         ids=[f"{n}-{p}" for n, p, _ in ESTIMATOR_PARAMETERS])
def test_make_estimator_refuses_a_fractional_parameter(name, param, value):
    with pytest.raises(ParameterError, match=rf"^{param} must be an integer, got {value!r}$"):
        make_estimator(name, seed=1, **{param: value})


@pytest.mark.parametrize("name, param", [("mcd", "coverage"), ("pm", "grid_refinements")])
def test_make_estimator_refuses_a_whole_float(name, param):
    with pytest.raises(ParameterError, match=rf"^{param} must be an integer, got 6.0$"):
        make_estimator(name, seed=1, **{param: 6.0})


def test_make_estimator_accepts_numpy_integers():
    T = make_estimator("mcd", coverage=np.int64(6))
    assert np.array_equal(T(DEMO10).canonical, mcd_exhaustive(DEMO10, coverage=6).estimates.canonical)


def test_negative_grid_refinements_is_refused():
    with pytest.raises(ParameterError, match=r"^grid_refinements must be a nonnegative integer, got -1$"):
        make_estimator("pm", seed=1, grid_refinements=-1)


LIBRARY_ENTRIES = {
    "DirectionBudget": ("random_count", lambda v: DirectionBudget(v, True, 1)),
    "mcd_exhaustive": ("coverage", lambda v: mcd_exhaustive(DEMO10, coverage=v)),
    "trimmed_mean": ("trim_count", lambda v: trimmed_mean(DEMO10, v, 0, BUDGET)),
    "projection_median": ("grid_refinements",
                          lambda v: projection_median(DEMO10, budget=BUDGET, grid_refinements=v)),
    "projection_median-shift": ("scale_shift", lambda v: projection_median(DEMO10, v, BUDGET)),
    "OutlyingnessEvaluator": ("scale_shift", lambda v: OutlyingnessEvaluator(DEMO10, v, BUDGET)),
}


CMEDIAN = make_estimator("cmedian")
# (entry, parameter, call with a fractional value): each once ran with the
# value truncated or failed with a TypeError from numpy or a slice
FRACTIONAL_CALLS = [
    ("theoretical_bounds-n", "n", lambda: theoretical_bounds(10.7, 2, 2)),
    ("theoretical_bounds-h", "h", lambda: theoretical_bounds(10, 2, 2.9)),
    ("shear_attack-h", "h", lambda: shear_attack(CMEDIAN, DEMO10, 1.5)),
    ("shear_attack-m", "m", lambda: shear_attack(CMEDIAN, DEMO10, 2, m=2.5)),
    ("translation_cluster_attack", "m", lambda: translation_cluster_attack(CMEDIAN, DEMO10, 2.5)),
    ("mad", "order_shift", lambda: mad([1.0, 2.0, 3.0], order_shift=0.5)),
    ("pm_counterexample", "m", lambda: pm_counterexample(4.5, 0.1)),
    ("random_gp_dataset-n", "n", lambda: random_gp_dataset(10.5, 2, 1)),
    ("random_gp_dataset-k", "k", lambda: random_gp_dataset(10, 2.0, 1)),
]


@pytest.mark.parametrize("param, call", [c[1:] for c in FRACTIONAL_CALLS], ids=[c[0] for c in FRACTIONAL_CALLS])
def test_fractional_argument_is_refused(param, call):
    with pytest.raises(ParameterError, match=rf"^{param} must be an integer, got \d+\.\d+$"):
        call()


def test_whole_numpy_integers_still_count():
    assert theoretical_bounds(np.int64(10), np.int8(2), np.uint8(2)) == theoretical_bounds(10, 2, 2)
    assert mad([1.0, 2.0, 3.0, 4.0, 100.0], order_shift=np.int32(0)) == 1.0
    assert shear_attack(CMEDIAN, DEMO10, np.int64(2), m=np.int64(3)).m == 3


@pytest.mark.parametrize("entry", sorted(LIBRARY_ENTRIES))
def test_library_entry_refuses_a_fractional_integer_parameter(entry):
    param, call = LIBRARY_ENTRIES[entry]
    with pytest.raises(ParameterError, match=rf"^{param} must be (a nonnegative|an) integer, got 1.5$"):
        call(1.5)


def test_direction_budget_stores_plain_ints():
    budget = DirectionBudget(np.uint16(10), True, np.uint32(3))
    assert (type(budget.random_count), type(budget.seed)) == (int, int)
    with pytest.raises(ParameterError, match=r"^random_count must be a nonnegative integer, got -1$"):
        DirectionBudget(-1, True, 1)


@pytest.mark.parametrize("trials", [0, -1, 1.5, 2.0, None])
def test_check_equivariance_needs_a_positive_integer_trial_count(trials):
    with pytest.raises(ParameterError, match=rf"^trials must be a positive integer, got {trials!r}$"):
        check_equivariance(make_estimator("cmedian"), DEMO10, "affine", trials=trials, seed=1)


@pytest.mark.parametrize("trials", [0, -1, 1.5, 2.0, None])
def test_lipschitz_probe_needs_a_positive_integer_trial_count(trials):
    with pytest.raises(ParameterError, match=rf"^trials must be a positive integer, got {trials!r}$"):
        lipschitz_probe(univariate_median, [1.0, 2.0, 3.0], 0.1, trials, 1)


@pytest.mark.parametrize("delta", [np.nan, np.inf, -0.1])
def test_lipschitz_probe_needs_a_finite_nonnegative_delta(delta):
    with pytest.raises(ParameterError, match=r"^delta must be finite and nonnegative"):
        lipschitz_probe(univariate_median, [1.0, 2.0, 3.0], delta, 5, 1)


def test_one_trial_is_enough():
    report = check_equivariance(make_estimator("cmedian"), DEMO10, "translation", trials=np.int8(1), seed=1)
    assert report.trials == 1 and type(report.trials) is int and report.passed
    assert lipschitz_probe(univariate_median, [1.0, 2.0, 3.0], 0.1, 1, 1) <= 0.1 + 1e-12


@pytest.mark.parametrize("minimum, kind", [(None, "an"), (0, "a nonnegative"), (1, "a positive")])
def test_require_integer_names_its_bound(minimum, kind):
    assert require_integer(np.int32(7), "x", minimum) == 7
    with pytest.raises(ParameterError, match=rf"^x must be {kind} integer, got '7'$"):
        require_integer("7", "x", minimum)
    if minimum is not None:
        with pytest.raises(ParameterError, match=rf"^x must be {kind} integer, got -1$"):
            require_integer(-1, "x", minimum)

