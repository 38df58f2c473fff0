"""The package's exported names, pinned: a change to them edits this list."""

import laneassign

EXPORTS = [
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
    "InputVector",
    "KalmanState",
    "METHODS",
    "McPointResult",
    "N_PATHS",
    "ObjectMeasurement",
    "PATH_LABELS",
    "PathPosterior",
    "PipelineConfig",
    "ProcessNoise",
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
    "TransitionParams",
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


def test_exports_are_the_pinned_list():
    assert sorted(laneassign.__all__) == EXPORTS


def test_every_export_resolves():
    missing = [name for name in laneassign.__all__ if not hasattr(laneassign, name)]
    assert missing == []


def test_no_export_is_listed_twice():
    assert len(set(laneassign.__all__)) == len(laneassign.__all__)
