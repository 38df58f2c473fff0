"""Probabilistic path assignment for objects ahead of a moving host vehicle.

The package maps object detections onto the host's predicted path (a circular
arc from speed and yaw rate), propagates measurement uncertainty into a 1-D
path-offset Gaussian, and assigns each object to one of five path regions with
either a discrete Bayes filter or a scalar Kalman filter.  A harness generates
synthetic scenarios and evaluates both methods with ROC sweeps.
"""

from .continuous_filter import (
    KalmanState,
    discretize_posterior,
    kf_init,
    kf_predict,
    kf_update,
)
from .discrete_filter import (
    EPSILON_MAX,
    TransitionMatrix,
    build_transition_matrix,
)
from .estimator import (
    DEFAULT_P_MIN,
    Assignment,
    assign,
    median_index,
)
from .geometry import (
    DEFAULT_MC_VARIANCES,
    STRAIGHT_YAW_THRESHOLD,
    GaussianScalar,
    GridSpec,
    HostState,
    InputDomainError,
    McPointResult,
    SingularityError,
    hellinger_distance,
    jacobian_lateral_offset,
    lateral_path_offset,
    mc_validate,
    transform_to_path,
    write_mc_csv,
)
from .harness import (
    EPSILON_GRID,
    METHODS,
    SCENARIO_KINDS,
    SIGMA_NU_GRID,
    PipelineConfig,
    RocPoint,
    RunResult,
    Scenario,
    ScenarioFormatError,
    SynthSpec,
    build_suite,
    compute_roc,
    generate_synthetic,
    load_scenario,
    parse_scenario,
    run_pipeline,
    sweep_parameters,
    write_roc_csv,
    write_run_csv,
    write_scenario,
)
from .likelihood import (
    DEFAULT_BOUNDS,
    HOST_PATH_INDEX,
    N_PATHS,
    PATH_LABELS,
    BoundarySet,
    PathPosterior,
    lane_occupancy,
)

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "BoundarySet",
    "DEFAULT_BOUNDS",
    "DEFAULT_MC_VARIANCES",
    "DEFAULT_P_MIN",
    "EPSILON_GRID",
    "EPSILON_MAX",
    "GaussianScalar",
    "GridSpec",
    "HOST_PATH_INDEX",
    "HostState",
    "InputDomainError",
    "KalmanState",
    "METHODS",
    "McPointResult",
    "N_PATHS",
    "PATH_LABELS",
    "PathPosterior",
    "PipelineConfig",
    "RocPoint",
    "RunResult",
    "SCENARIO_KINDS",
    "SIGMA_NU_GRID",
    "STRAIGHT_YAW_THRESHOLD",
    "Scenario",
    "ScenarioFormatError",
    "SingularityError",
    "SynthSpec",
    "TransitionMatrix",
    "assign",
    "build_suite",
    "build_transition_matrix",
    "compute_roc",
    "discretize_posterior",
    "generate_synthetic",
    "hellinger_distance",
    "jacobian_lateral_offset",
    "kf_init",
    "kf_predict",
    "kf_update",
    "lane_occupancy",
    "lateral_path_offset",
    "load_scenario",
    "mc_validate",
    "median_index",
    "parse_scenario",
    "run_pipeline",
    "sweep_parameters",
    "transform_to_path",
    "write_mc_csv",
    "write_roc_csv",
    "write_run_csv",
    "write_scenario",
]
