"""The batched pipeline against a plain per-object loop.

`run_pipeline` and `sweep_parameters` filter a whole scenario at once, with
the grid values of a sweep as a batch axis.  The reference here is the loop
they replace: per object, `transform_to_path`, then `DiscretePathFilter.step`
or `ContinuousPathFilter.step`, then `assign`.  Tolerances are fixed in
advance: posteriors within 1e-12, identical assignments and ROC rates, and
identical errors (type and message, frame context included).
"""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from laneassign import (
    BoundarySet,
    ContinuousPathFilter,
    DiscretePathFilter,
    GaussianScalar,
    HostState,
    InputDomainError,
    InputVector,
    NoiseSpec,
    ObjectMeasurement,
    ObjectResult,
    PipelineConfig,
    ScenarioFrame,
    SingularityError,
    SynthSpec,
    TrackedObject,
    assign,
    build_suite,
    compute_roc,
    extrapolate_boundaries,
    generate_synthetic,
    run_pipeline,
    sweep_parameters,
    transform_to_path,
)
from laneassign._engine import ABSENCE_TIMEOUT, filter_batch
from laneassign.harness import EPSILON_GRID, SIGMA_NU_GRID

POSTERIOR_TOL = 1e-12


def loop_run(frames, method, config, transforms=None):
    """The per-object loop: transform, filter step, assign.

    `transforms` caches the offsets by (frame, object) position so that a
    sweep transforms each object-frame once; errors carry the frame context.
    """
    transforms = {} if transforms is None else transforms
    bounds_default = extrapolate_boundaries()
    filters, last_seen, results = {}, {}, []
    for frame_index, frame in enumerate(frames):
        try:
            for oid in [
                oid for oid, seen in last_seen.items()
                if frame.t - seen > ABSENCE_TIMEOUT
            ]:
                del filters[oid]
                del last_seen[oid]
            bounds = frame.bounds if frame.bounds is not None else bounds_default
            for position, obj in enumerate(frame.objects):
                meas = obj.measurement
                key = (frame_index, position)
                if key not in transforms:
                    inputs = InputVector(
                        np.array([frame.host.v, frame.host.yaw_rate, meas.x, meas.y]),
                        np.diag([frame.var_v, frame.var_yaw, obj.var_x, obj.var_y]),
                    )
                    transforms[key] = transform_to_path(inputs, frame.host.alpha)
                z = transforms[key]
                u = meas.lateral_velocity_input or 0.0
                filt = filters.get(obj.object_id)
                if method == "discrete":
                    filt = filt or DiscretePathFilter(config.epsilon, config.eta_gain)
                    posterior = filt.step(z, bounds, u)
                else:
                    filt = filt or ContinuousPathFilter(config.sigma_nu)
                    posterior = filt.step(z, bounds, frame.t, u)
                filters[obj.object_id] = filt
                last_seen[obj.object_id] = frame.t
                results.append(
                    ObjectResult(
                        frame.t, obj.object_id, method,
                        assign(posterior, config.p_min), posterior, obj.ground_truth,
                    )
                )
        except ValueError as exc:
            raise type(exc)(f"frame {frame_index} (t={frame.t}): {exc}") from exc
    return results


def parameter_of(method):
    return "epsilon" if method == "discrete" else "sigma_nu"


def outcome(call):
    """(result, None) or (None, (error type, message))."""
    try:
        return call(), None
    except ValueError as exc:
        return None, (type(exc), str(exc))


def frame_named(error):
    return int(re.match(r"frame (\d+) ", error[1]).group(1))


def assert_results_equal(posteriors, index, accepted, expected):
    """Batch columns of one parameter value against loop results."""
    want = np.array([r.posterior.probs for r in expected]).reshape(-1, 5)
    np.testing.assert_allclose(posteriors, want, rtol=0, atol=POSTERIOR_TOL)
    assert index.tolist() == [r.assignment.index for r in expected]
    assert accepted.tolist() == [r.assignment.accepted for r in expected]


def assert_batch_matches_loop(frames, method, config, values):
    """Every value of one batch against its own loop run; returns the loop
    results per value.  When loop runs fail, the batch must raise the error
    of the earliest failing frame over all values."""
    batch, error = outcome(
        lambda: filter_batch([frames], method, config, values)
    )
    transforms = {}
    runs = [
        outcome(lambda: loop_run(
            frames, method,
            dataclasses.replace(config, **{parameter_of(method): value}),
            transforms,
        ))
        for value in values
    ]
    loop_errors = [e for _, e in runs if e is not None]
    if loop_errors or error:
        assert error in loop_errors
        assert frame_named(error) == min(frame_named(e) for e in loop_errors)
        return None
    for g, (expected, _) in enumerate(runs):
        assert_results_equal(
            batch.posteriors[:, g], batch.index[:, g], batch.accepted[:, g], expected
        )
    return [expected for expected, _ in runs]


def assert_run_matches_loop(frames, method, config):
    got, got_error = outcome(lambda: run_pipeline(frames, method, config))
    want, want_error = outcome(lambda: loop_run(frames, method, config))
    assert got_error == want_error
    if want is None:
        return
    assert [(r.t, r.object_id, r.ground_truth) for r in got] == [
        (r.t, r.object_id, r.ground_truth) for r in want
    ]
    assert_results_equal(
        np.array([r.posterior.probs for r in got]).reshape(-1, 5),
        np.array([r.assignment.index for r in got]),
        np.array([r.assignment.accepted for r in got]),
        want,
    )
    for a, b in zip(got, want):
        assert abs(a.assignment.probability - b.assignment.probability) <= POSTERIOR_TOL


# ---------------------------------------------------------------------------
# bundled suite and drifting transition matrices
# ---------------------------------------------------------------------------


SWEEP_CONFIG = PipelineConfig(eta_gain=0.0)  # the CLI's sweep default


@pytest.mark.parametrize(
    "method, grid", [("discrete", EPSILON_GRID), ("continuous", SIGMA_NU_GRID)]
)
def test_suite_sweep_matches_loop(method, grid):
    scenarios = list(build_suite(seed=0).values())
    pooled = [[] for _ in grid]
    for frames in scenarios:
        runs = assert_batch_matches_loop(frames, method, SWEEP_CONFIG, grid)
        for results, expected in zip(pooled, runs):
            results.extend(expected)
    parameter = parameter_of(method)
    assert sweep_parameters(scenarios, method, grid, SWEEP_CONFIG) == [
        compute_roc(results, f"{parameter}={value:g}")
        for results, value in zip(pooled, grid)
    ]


def test_discrete_sweep_with_lateral_velocity_drift_matches_loop():
    # eta = eta_gain * v_lat changes along the lane change, so the batch
    # builds one matrix per distinct (epsilon, eta) pair.
    frames = generate_synthetic(SynthSpec(kind="target_lane_change", seed=4))
    drifts = {o.measurement.lateral_velocity_input for f in frames for o in f.objects}
    assert len(drifts) > 1
    config = PipelineConfig(eta_gain=0.05)
    runs = assert_batch_matches_loop(frames, "discrete", config, EPSILON_GRID)
    assert sweep_parameters([frames], "discrete", EPSILON_GRID, config) == [
        compute_roc(results, f"epsilon={value:g}")
        for results, value in zip(runs, EPSILON_GRID)
    ]


@pytest.mark.parametrize("method", ["discrete", "continuous"])
def test_run_is_the_single_value_batch(method):
    frames = generate_synthetic(SynthSpec(kind="noisy_yaw", duration=5.0, seed=2))
    assert_run_matches_loop(frames, method, PipelineConfig())


@pytest.mark.parametrize(
    "method, values", [("discrete", (0.2, 1e-2, 1e-5)), ("continuous", (0.04, 0.1, 0.4))]
)
def test_multi_scenario_batch_keeps_tracks_per_scenario(method, values):
    # The scenarios share one depth schedule, and `lead` is an object of
    # three of them: each scenario must still start its tracks afresh.
    kinds = ("straight_follow", "host_curve", "target_lane_change", "straight_follow")
    scenarios = [
        generate_synthetic(SynthSpec(kind, duration=2.0, seed=seed))
        for seed, kind in enumerate(kinds)
    ]
    config = PipelineConfig(eta_gain=0.05)
    batch = filter_batch(scenarios, method, config, values)
    for g, value in enumerate(values):
        per_value = dataclasses.replace(config, **{parameter_of(method): value})
        expected = [r for frames in scenarios for r in loop_run(frames, method, per_value)]
        assert_results_equal(
            batch.posteriors[:, g], batch.index[:, g], batch.accepted[:, g], expected
        )


# ---------------------------------------------------------------------------
# generated scenarios
# ---------------------------------------------------------------------------

IDS = ("a", "b", "c", "d", "e")


@st.composite
def scenarios(draw):
    """Scenarios with id churn, ids repeated within a frame (the parser
    rejects them, the pipeline does not), gaps longer than the absence
    timeout, frames with and without bounds, heading offsets and lateral
    velocities."""
    finite = dict(allow_nan=False, allow_infinity=False)
    n_frames = draw(st.integers(1, 12))
    repeats = draw(st.booleans())
    frames, t = [], 0.0
    for _ in range(n_frames):
        t += draw(st.sampled_from([0.02, 0.05, 0.1, 0.4, 1.5]))
        host = HostState(
            v=draw(st.floats(0.0, 40.0, **finite)),
            yaw_rate=draw(st.one_of(st.just(0.0), st.floats(-0.5, 0.5, **finite))),
            alpha=draw(st.one_of(st.just(0.0), st.floats(-0.4, 0.4, **finite))),
        )
        ids = draw(st.lists(st.sampled_from(IDS), max_size=4, unique=not repeats))
        objects = []
        for object_id in ids:
            v_lat = draw(st.one_of(st.none(), st.floats(-3.0, 3.0, **finite)))
            objects.append(
                TrackedObject(
                    object_id=object_id,
                    measurement=ObjectMeasurement(
                        x=draw(st.floats(1.0, 100.0, **finite)),
                        y=draw(st.floats(-12.0, 12.0, **finite)),
                        lateral_velocity_input=v_lat,
                    ),
                    var_x=draw(st.floats(1e-4, 1.0, **finite)),
                    var_y=draw(st.floats(1e-4, 1.0, **finite)),
                    ground_truth=draw(st.integers(0, 4)),
                )
            )
        bounds = None
        if draw(st.booleans()):
            center = draw(st.floats(-2.0, 2.0, **finite))
            width = draw(st.floats(2.5, 4.5, **finite))
            stds = st.floats(0.05, 0.6, **finite)
            bounds = BoundarySet(
                tuple(
                    GaussianScalar(center + k * width, draw(stds))
                    for k in (-1.5, -0.5, 0.5, 1.5)
                )
            )
        frames.append(
            ScenarioFrame(
                t=round(t, 9),
                host=host,
                var_v=draw(st.floats(1e-4, 1.0, **finite)),
                var_yaw=draw(st.floats(1e-8, 1e-3, **finite)),
                objects=tuple(objects),
                bounds=bounds,
            )
        )
    return frames


GENERATED = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@GENERATED
@given(
    frames=scenarios(),
    method=st.sampled_from(["discrete", "continuous"]),
    eta_gain=st.sampled_from([0.0, 0.05, 0.5]),
)
def test_generated_run_matches_loop(frames, method, eta_gain):
    assert_run_matches_loop(frames, method, PipelineConfig(eta_gain=eta_gain))


@GENERATED
@given(frames=scenarios(), method=st.sampled_from(["discrete", "continuous"]))
def test_generated_batch_matches_loop(frames, method):
    values = (0.2, 1e-2, 1e-5) if method == "discrete" else (0.04, 0.1, 0.4)
    assert_batch_matches_loop(frames, method, PipelineConfig(eta_gain=0.05), values)


# ---------------------------------------------------------------------------
# errors: same type and message as the loop, naming the earliest frame
# ---------------------------------------------------------------------------


def straight_frames(n):
    return generate_synthetic(SynthSpec(kind="straight_follow", duration=n * 0.05))


def with_object(frame, obj, host=None):
    return dataclasses.replace(
        frame, host=host or frame.host, objects=frame.objects + (obj,)
    )


def circle_center_object(object_id, v, yaw_rate, alpha):
    r = v / yaw_rate
    return TrackedObject(
        object_id,
        ObjectMeasurement(x=-(math.sin(alpha) * r), y=math.cos(alpha) * r),
        var_x=0.04,
        var_y=0.04,
        ground_truth=2,
    )


@pytest.mark.parametrize("method", ["discrete", "continuous"])
def test_singularity_names_the_earliest_failing_frame(method):
    frames = straight_frames(6)
    host = HostState(v=10.0, yaw_rate=1.0, alpha=-0.5)
    center = circle_center_object("center", 10.0, 1.0, -0.5)
    frames[2] = with_object(frames[2], center, host)
    frames[4] = with_object(frames[4], center, host)
    with pytest.raises(SingularityError, match=rf"^frame 2 \(t={frames[2].t}\): "):
        run_pipeline(frames, method)
    assert_run_matches_loop(frames, method, PipelineConfig())


def test_sweep_error_names_the_earliest_failing_frame():
    frames = straight_frames(5)
    frames[3] = dataclasses.replace(frames[3], var_v=-1.0)
    with pytest.raises(InputDomainError, match=r"^frame 3 \(t=0\.15\): covariance"):
        sweep_parameters([frames], "discrete", EPSILON_GRID)


def test_sweep_error_names_the_first_failing_scenario():
    # The second scenario fails at frame 3 and the third already at frame
    # 1; scenarios are checked in order, so the second one's error wins.
    scenarios = [straight_frames(5) for _ in range(3)]
    scenarios[1][3] = dataclasses.replace(scenarios[1][3], var_v=-1.0)
    scenarios[2][1] = dataclasses.replace(scenarios[2][1], var_v=-1.0)
    with pytest.raises(InputDomainError, match=r"^frame 3 \(t=0\.15\): covariance"):
        sweep_parameters(scenarios, "discrete", EPSILON_GRID)


@pytest.mark.parametrize(
    "method, config",
    [
        ("discrete", PipelineConfig(epsilon=math.nan)),
        ("discrete", PipelineConfig(eta_gain=math.inf)),
        ("continuous", PipelineConfig(sigma_nu=0.0)),
        ("continuous", PipelineConfig(sigma_nu=math.nan)),
        ("discrete", PipelineConfig(p_min=1.5)),
    ],
)
def test_parameter_errors_match_loop(method, config):
    frames = straight_frames(3)
    _, error = outcome(lambda: run_pipeline(frames, method, config))
    assert error is not None and error[1].startswith("frame 0 (t=0.0): ")
    assert_run_matches_loop(frames, method, config)


@pytest.mark.parametrize("eta_gain", [math.inf, math.nan])
@pytest.mark.parametrize("kind", ["straight_follow", "target_lane_change"])
def test_non_finite_eta_gain_is_named(kind, eta_gain):
    # target_lane_change reports v_lat on every object, straight_follow none
    frames = generate_synthetic(SynthSpec(kind=kind, duration=0.15))
    config = PipelineConfig(eta_gain=eta_gain)
    message = f"frame 0 (t=0.0): eta_gain must be finite, got {eta_gain}"
    for call in (
        lambda: run_pipeline(frames, "discrete", config),
        lambda: sweep_parameters([frames], "discrete", EPSILON_GRID, config),
    ):
        assert outcome(call)[1] == (InputDomainError, message)
    assert_run_matches_loop(frames, "discrete", config)


def test_non_increasing_timestamps_fail_the_kalman_filter_only():
    frames = straight_frames(3)
    frames = [frames[0], frames[1], dataclasses.replace(frames[2], t=frames[1].t)]
    assert_run_matches_loop(frames, "discrete", PipelineConfig())
    with pytest.raises(InputDomainError, match=r"^frame 2 .*strictly increasing"):
        run_pipeline(frames, "continuous")
    assert_run_matches_loop(frames, "continuous", PipelineConfig())


def test_certain_state_contradicting_certain_measurement():
    # Zero measurement noise and a process noise whose square underflows
    # leave both sides certain; a moved object then contradicts the state.
    quiet = NoiseSpec(0.0, 0.0, 0.0, 0.0)
    frames = generate_synthetic(
        SynthSpec(kind="straight_follow", duration=0.15, noise=quiet)
    )
    config = PipelineConfig(sigma_nu=1e-300)
    assert_run_matches_loop(frames, "continuous", config)

    def moved(obj):
        meas = dataclasses.replace(obj.measurement, y=obj.measurement.y + 0.5)
        return dataclasses.replace(obj, measurement=meas)

    last = dataclasses.replace(frames[2], objects=tuple(map(moved, frames[2].objects)))
    frames = [frames[0], frames[1], last]
    with pytest.raises(InputDomainError, match=r"^frame 2 .*contradicts certain"):
        run_pipeline(frames, "continuous", config)
    assert_run_matches_loop(frames, "continuous", config)


def test_zero_overlap_resets_to_the_measurement(caplog):
    # Sharp bounds and exact measurements: the object jumps from region 0
    # to region 4 with epsilon = 0, so the prior has no mass where the
    # measurement has.
    bounds = BoundarySet(
        tuple(GaussianScalar(mean, 0.0) for mean in (-5.0, -1.0, 1.0, 5.0))
    )
    host = HostState(v=20.0, yaw_rate=0.0)

    def frame(t, y):
        obj = TrackedObject("o", ObjectMeasurement(x=30.0, y=y), 0.0, 0.0, 0)
        return ScenarioFrame(t, host, 0.0, 0.0, (obj,), bounds)

    frames = [frame(0.0, -8.0), frame(0.05, 8.0)]
    config = PipelineConfig(epsilon=0.0, eta_gain=0.0)
    with caplog.at_level("WARNING"):
        results = run_pipeline(frames, "discrete", config)
    assert results[1].posterior.probs.tolist() == [0.0, 0.0, 0.0, 0.0, 1.0]
    assert any("zero overlap" in record.message for record in caplog.records)
    assert_run_matches_loop(frames, "discrete", config)


def test_zero_overlap_resets_some_values_of_one_depth(caplog):
    # Three objects in one depth: "jump" moves from region 0 to region 1,
    # which resets at epsilon = 0 only; "flip" moves from region 4 to
    # region 0, out of reach of one predict, and resets at every epsilon;
    # "stay" never resets.
    bounds = BoundarySet(
        tuple(GaussianScalar(mean, 0.0) for mean in (-5.0, -1.0, 1.0, 5.0))
    )
    host = HostState(v=20.0, yaw_rate=0.0)

    def frame(t, offsets):
        objects = tuple(
            TrackedObject(oid, ObjectMeasurement(x=30.0, y=y), 0.0, 0.0, 0)
            for oid, y in zip(("jump", "flip", "stay"), offsets)
        )
        return ScenarioFrame(t, host, 0.0, 0.0, objects, bounds)

    frames = [frame(0.0, (-8.0, 8.0, 0.0)), frame(0.05, (-3.0, -8.0, 0.0))]
    config = PipelineConfig(eta_gain=0.0)
    values = (0.0, 0.1)

    def resets():
        return sum("zero overlap" in record.message for record in caplog.records)

    with caplog.at_level("WARNING"):
        filter_batch([frames], "discrete", config, values)
        assert resets() == 2  # one per object-frame with a reset at any value
        for value, expected in zip(values, (2, 1)):
            per_value = dataclasses.replace(config, epsilon=value)
            caplog.clear()
            results = run_pipeline(frames, "discrete", per_value)
            assert resets() == expected
            caplog.clear()
            assert_run_matches_loop(frames, "discrete", per_value)
            assert resets() == 2 * expected  # the run and the loop
    assert results[4].posterior.probs.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]
    assert_batch_matches_loop(frames, "discrete", config, values)
