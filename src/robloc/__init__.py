"""robloc: robust location estimators and empirical breakdown certification.

The package has three layers:

* geometry and univariate primitives (:mod:`robloc.geometry`,
  :mod:`robloc.univariate`, :mod:`robloc.metric`),
* depth functionals and location estimators (:mod:`robloc.depth`,
  :mod:`robloc.estimators`, :mod:`robloc.conditions`),
* the adversarial contamination engine and bound tables
  (:mod:`robloc.breakdown`).
"""

from .dataset import (
    DataSet,
    bundled_dataset,
    load_dataset_csv,
    loads_dataset_csv,
    random_gp_dataset,
    save_dataset_csv,
)
from .geometry import (
    AffineMap,
    Facet,
    OrthonormalBasis,
    apply_map,
    basis_from_normal,
    check_general_position,
    enumerate_facets,
    shear_transform,
    unit_direction,
)
from .univariate import MedianInterval, mad, univariate_median
from .metric import (
    estimate_set_distance,
    hausdorff_set_distance,
    lipschitz_probe,
    sample_distance,
)
from .depth import DirectionBudget, OutlyingnessEvaluator, outlyingness, tukey_depth
from .estimators import (
    ESTIMATOR_NAMES,
    EstimateSet,
    LocationEstimator,
    MCDResult,
    coordinatewise_median,
    make_estimator,
    mcd_exhaustive,
    projection_median,
    trimmed_mean,
    weighted_mean,
)
from .conditions import (
    ConditionReport,
    DepthConditionReport,
    EquivarianceReport,
    check_equivariance,
    condition_margin,
    depth_condition,
)
from .breakdown import (
    AttackSuite,
    AttackTrace,
    BoundTable,
    BreakdownCertificate,
    FsbvResult,
    PartitionRule,
    Witness,
    empirical_fsbv,
    pm_counterexample,
    shear_attack,
    theoretical_bounds,
    translation_cluster_attack,
)
from . import errors

__version__ = "0.1.0"
