"""Every seed that enters the library must be a nonnegative integer.

numpy's generators reject a negative or fractional seed with their own
ValueError or TypeError, and ``None`` draws fresh entropy, which would make
a certificate impossible to reproduce. Each entry point raises a
ParameterError (exit 4 on the command line) instead.
"""

import json

import numpy as np
import pytest

from robloc import (
    AttackSuite,
    DirectionBudget,
    bundled_dataset,
    check_equivariance,
    condition_margin,
    empirical_fsbv,
    lipschitz_probe,
    make_estimator,
    pm_counterexample,
    random_gp_dataset,
    shear_attack,
    univariate_median,
)
from robloc.errors import ParameterError

DEMO10 = bundled_dataset("demo10_2d")
CMEDIAN = make_estimator("cmedian")

ENTRIES = {
    "DirectionBudget": lambda seed: DirectionBudget(10, True, seed),
    "AttackSuite": lambda seed: AttackSuite(cone_seed=seed),
    "shear_attack": lambda seed: shear_attack(CMEDIAN, DEMO10, 1, cone_seed=seed),
    "condition_margin": lambda seed: condition_margin(CMEDIAN, DEMO10, 1, seed=seed),
    "check_equivariance": lambda seed: check_equivariance(CMEDIAN, DEMO10, "affine", 1, seed),
    "pm_counterexample": lambda seed: pm_counterexample(3, 0.1, seed=seed),
    "random_gp_dataset": lambda seed: random_gp_dataset(5, 2, seed),
    "lipschitz_probe": lambda seed: lipschitz_probe(univariate_median, [1.0, 2.0, 3.0], 0.1, 2, seed),
}


@pytest.mark.parametrize("seed", [None, 1.5, -1])
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_seed_that_is_not_a_nonnegative_integer_is_a_parameter_error(entry, seed):
    with pytest.raises(ParameterError, match=rf"^seed must be a nonnegative integer, got {seed!r}$"):
        ENTRIES[entry](seed)


@pytest.mark.parametrize("seed", [1.5, -1])
@pytest.mark.parametrize("name", ["tmean", "pm"])
def test_estimator_seed_that_is_not_a_nonnegative_integer_is_a_parameter_error(name, seed):
    # None picks the estimator's default probe seed (or, for pm, is refused)
    with pytest.raises(ParameterError, match=rf"^seed must be a nonnegative integer, got {seed!r}$"):
        make_estimator(name, seed=seed)


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_numpy_integer_seeds_are_accepted(entry):
    result = ENTRIES[entry](np.uint32(3))
    if hasattr(result, "to_dict"):
        json.dumps(result.to_dict())  # the seed it records is a plain int


def test_certificate_from_a_numpy_integer_seed_serialises():
    suite = AttackSuite(gamma_grid=(1e2, 1e7), radius_grid=(1e9,), cone_seed=np.uint32(3))
    result = empirical_fsbv(CMEDIAN, DEMO10, suite=suite)
    assert json.loads(json.dumps(result.to_dict()))["suite"]["cone_seed"] == 3
