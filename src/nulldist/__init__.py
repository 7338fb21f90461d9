"""Null-distance geometry on finite length spaces and generalized cones."""

__version__ = "0.1.0"

from .cone import (
    ConeGrid,
    minimizer_analysis,
    null_distance,
    null_distance_guarantees,
    null_distance_phi,
    stratified_sources,
    time_separation,
    time_separation_path,
)
from .convergence import (
    WarpingSequence,
    epsilon_isometry,
    lift_correspondence,
    null_convergence_check,
    sup_norm,
    uniform_total_boundedness,
)
from .curvature import (
    TimelikeTriangle,
    compute_fiber_bound,
    concavity_check,
    persistence_experiment,
    sample_timelike_triangles,
    triangle_comparison,
)
from .lpls import (
    DiscretePreLengthSpace,
    PiecewiseCausalPath,
    causally_convex_neighborhood,
    chain_rho_length,
    check_anti_lipschitz,
    check_time_function,
    null_distance_matrix,
    path_null_length,
    properties_report,
    rho_length_and_time_separation,
    validate_pls,
)
from .metric_core import (
    Correspondence,
    EpsilonNet,
    FiniteLengthSpace,
    circle_space,
    distortion,
    epsilon_net,
    gh_distance_exact,
    intrinsic_metric,
    path_space,
    quadruple_curvature_check,
    tripod_space,
    validate_metric,
)
from .model_spaces import (
    ComparisonTriangle,
    l2k_time_separation,
    point_on_side,
    realize_timelike_triangle,
)
from .nullcurve import PiecewiseNullCurve, null_curve, verify_null_curve
from .warping import Interval, WarpingFunction
