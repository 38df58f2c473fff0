"""Tests for scenario I/O, synthesis, the pipeline, and ROC evaluation."""

import io
import json
import math

import numpy as np
import pytest

from laneassign import (
    HOST_PATH_INDEX,
    Assignment,
    BoundarySet,
    BoundarySource,
    GaussianScalar,
    HostState,
    InputDomainError,
    NoiseSpec,
    ObjectMeasurement,
    ObjectResult,
    PathPosterior,
    PipelineConfig,
    ScenarioFormatError,
    ScenarioFrame,
    SynthSpec,
    TrackedObject,
    build_suite,
    compute_roc,
    generate_synthetic,
    lane_occupancy,
    parse_scenario,
    run_pipeline,
    sweep_parameters,
    transform_to_path,
    write_roc_csv,
    write_run_csv,
    write_scenario,
)
from laneassign.harness import (
    EPSILON_GRID,
    SCENARIO_KINDS,
    SIGMA_NU_GRID,
    _ground_truth,
)

QUIET = NoiseSpec(0.0, 0.0, 0.0, 0.0)


def minimal_frame_dict(t=0.0, **overrides):
    frame = {
        "t": t,
        "host": {"v": 25.0, "yaw_rate": 0.0, "var_v": 0.25, "var_yaw": 1e-4},
        "objects": [
            {"id": "lead", "x": 50.0, "y": 0.1, "var_x": 0.04, "var_y": 0.04}
        ],
    }
    frame.update(overrides)
    return frame


def as_stream(*frame_dicts):
    return "\n".join(json.dumps(d) for d in frame_dicts)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_empty_stream():
    assert parse_scenario("") == []
    assert parse_scenario("\n\n") == []


def test_parse_minimal_frame():
    frames = parse_scenario(as_stream(minimal_frame_dict()))
    assert len(frames) == 1
    frame = frames[0]
    assert frame.t == 0.0
    assert frame.host.v == 25.0
    assert frame.host.alpha == 0.0  # optional, defaulted
    assert frame.bounds is None
    assert frame.objects[0].object_id == "lead"
    assert frame.objects[0].measurement.x == 50.0
    assert frame.objects[0].ground_truth is None


def test_parse_full_frame():
    d = minimal_frame_dict()
    d["host"]["alpha"] = 0.01
    d["objects"][0]["v_lat"] = -0.4
    d["objects"][0]["gt"] = 2
    d["bounds"] = [
        {"mu": -5.25, "sigma": 0.45},
        {"mu": -1.75, "sigma": 0.3},
        {"mu": 1.75, "sigma": 0.3},
        {"mu": 5.25, "sigma": 0.45},
    ]
    frame = parse_scenario(as_stream(d))[0]
    assert frame.host.alpha == 0.01
    assert frame.objects[0].measurement.lateral_velocity_input == -0.4
    assert frame.objects[0].ground_truth == 2
    assert frame.bounds is not None
    assert frame.bounds.source == BoundarySource.MEASURED
    assert frame.bounds.boundaries[0].mean == -5.25


def test_parse_reports_line_and_field():
    d = minimal_frame_dict()
    del d["host"]["yaw_rate"]
    with pytest.raises(ScenarioFormatError, match=r"line 1.*'yaw_rate'"):
        parse_scenario(as_stream(d))
    good = minimal_frame_dict()
    bad = minimal_frame_dict(t=1.0)
    del bad["objects"][0]["var_x"]
    with pytest.raises(ScenarioFormatError, match=r"line 2.*'var_x'"):
        parse_scenario(as_stream(good, bad))


def test_parse_rejects_unknown_fields():
    d = minimal_frame_dict()
    d["speed"] = 1.0
    with pytest.raises(ScenarioFormatError, match=r"'speed'"):
        parse_scenario(as_stream(d))
    d = minimal_frame_dict()
    d["host"]["curvature"] = 0.01
    with pytest.raises(ScenarioFormatError, match=r"'curvature'"):
        parse_scenario(as_stream(d))
    d = minimal_frame_dict()
    d["objects"][0]["vx"] = 1.0
    with pytest.raises(ScenarioFormatError, match=r"'vx'"):
        parse_scenario(as_stream(d))


def test_parse_rejects_bad_values():
    d = minimal_frame_dict()
    d["objects"][0]["var_x"] = -0.1
    with pytest.raises(ScenarioFormatError, match="var_x"):
        parse_scenario(as_stream(d))
    d = minimal_frame_dict()
    d["objects"][0]["gt"] = 7
    with pytest.raises(ScenarioFormatError, match="gt"):
        parse_scenario(as_stream(d))
    d = minimal_frame_dict()
    d["objects"][0]["x"] = -5.0
    with pytest.raises(ScenarioFormatError, match="line 1"):
        parse_scenario(as_stream(d))
    d = minimal_frame_dict()
    d["host"]["v"] = True  # booleans are not numbers here
    with pytest.raises(ScenarioFormatError, match=r"'v'"):
        parse_scenario(as_stream(d))
    d = minimal_frame_dict()
    d["bounds"] = [{"mu": 0.0, "sigma": 0.1}] * 3  # need exactly four
    with pytest.raises(ScenarioFormatError, match="bounds"):
        parse_scenario(as_stream(d))


def test_parse_rejects_invalid_json():
    with pytest.raises(ScenarioFormatError, match="line 1"):
        parse_scenario("{not json")


def test_parse_rejects_non_increasing_time():
    a = minimal_frame_dict(t=1.0)
    b = minimal_frame_dict(t=1.0)
    with pytest.raises(ScenarioFormatError, match="line 2"):
        parse_scenario(as_stream(a, b))
    c = minimal_frame_dict(t=0.5)
    with pytest.raises(ScenarioFormatError, match="line 2"):
        parse_scenario(as_stream(a, c))


def test_parse_rejects_non_finite_time():
    frame = json.dumps(minimal_frame_dict())
    with pytest.raises(
        ScenarioFormatError, match=r"^line 1: timestamp must be finite, got nan$"
    ):
        parse_scenario(frame.replace('"t": 0.0', '"t": NaN'))
    with pytest.raises(
        ScenarioFormatError, match=r"^line 2: timestamp must be finite, got inf$"
    ):
        parse_scenario([frame, frame.replace('"t": 0.0', '"t": Infinity')])


def test_parse_rejects_duplicate_object_ids():
    d = minimal_frame_dict()
    d["objects"].append(dict(d["objects"][0]))
    with pytest.raises(ScenarioFormatError, match="lead"):
        parse_scenario(as_stream(d))


def test_round_trip_through_serialization():
    frames = generate_synthetic(SynthSpec(kind="target_lane_change", duration=2.0))
    buffer = io.StringIO()
    write_scenario(frames, buffer)
    parsed = parse_scenario(buffer.getvalue())
    assert len(parsed) == len(frames)
    for a, b in zip(frames, parsed):
        assert a.t == b.t
        assert a.host == b.host
        assert a.var_v == b.var_v
        assert a.var_yaw == b.var_yaw
        assert a.objects == b.objects
        assert [g.mean for g in a.bounds.boundaries] == [
            g.mean for g in b.bounds.boundaries
        ]


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------


def test_synthetic_is_deterministic():
    spec = SynthSpec(kind="straight_follow", duration=3.0, seed=9)
    assert generate_synthetic(spec) == generate_synthetic(spec)
    other = generate_synthetic(SynthSpec(kind="straight_follow", duration=3.0, seed=10))
    assert generate_synthetic(spec) != other


def test_synthetic_rejects_bad_spec():
    with pytest.raises(InputDomainError):
        generate_synthetic(SynthSpec(kind="figure_eight"))
    with pytest.raises(InputDomainError):
        generate_synthetic(SynthSpec(kind="straight_follow", step=0.0))
    with pytest.raises(InputDomainError):
        generate_synthetic(SynthSpec(kind="straight_follow", duration=0.01, step=0.05))
    for duration in (math.inf, math.nan):
        with pytest.raises(InputDomainError, match="duration must be finite"):
            generate_synthetic(SynthSpec(kind="straight_follow", duration=duration))


def test_synthetic_frame_grid():
    frames = generate_synthetic(SynthSpec(kind="adjacent_lane", duration=1.0, step=0.1))
    assert len(frames) == 10
    assert [f.t for f in frames] == pytest.approx([0.1 * k for k in range(10)])
    assert all(f.bounds is not None for f in frames)


def test_synthetic_straight_follow_truth():
    frames = generate_synthetic(
        SynthSpec(kind="straight_follow", duration=2.0, noise=QUIET)
    )
    for frame in frames:
        lead = next(o for o in frame.objects if o.object_id == "lead")
        neighbor = next(o for o in frame.objects if o.object_id == "neighbor")
        assert lead.ground_truth == HOST_PATH_INDEX
        assert lead.measurement.y == 0.0  # noiseless
        assert neighbor.ground_truth == HOST_PATH_INDEX + 1
        assert neighbor.measurement.y == pytest.approx(3.5)


def test_synthetic_lane_change_crosses_on_schedule():
    # The ramp starts at change_time and crosses the half-width boundary
    # halfway through change_duration; truth must flip on the first frame
    # strictly past the crossing.
    spec = SynthSpec(kind="target_lane_change", duration=20.0, noise=QUIET)
    frames = generate_synthetic(spec)
    crossing = 10.0 + 3.0 / 2.0
    for frame in frames:
        gt = frame.objects[0].ground_truth
        if frame.t <= crossing + 1e-12:
            assert gt == HOST_PATH_INDEX, frame.t
        elif frame.t > crossing + spec.step:
            assert gt == HOST_PATH_INDEX + 1, frame.t


def test_synthetic_lane_change_emits_lateral_velocity():
    spec = SynthSpec(kind="target_lane_change", duration=20.0, noise=QUIET)
    frames = generate_synthetic(spec)
    by_t = {f.t: f.objects[0].measurement.lateral_velocity_input for f in frames}
    assert by_t[5.0] == 0.0
    assert by_t[11.0] == pytest.approx(3.5 / 3.0)
    assert by_t[15.0] == 0.0


def test_synthetic_host_curve_objects_on_arc():
    spec = SynthSpec(kind="host_curve", duration=2.0, noise=QUIET, curve_radius=300.0)
    frames = generate_synthetic(spec)
    for frame in frames:
        assert frame.host.yaw_rate == pytest.approx(spec.host_speed / 300.0)
        lead = next(o for o in frame.objects if o.object_id == "lead")
        z = transform_to_path(
            _exact_inputs(frame, lead), frame.host.alpha
        )
        assert z.mean == pytest.approx(0.0, abs=1e-9)
        adjacent = next(o for o in frame.objects if o.object_id == "adjacent")
        z = transform_to_path(_exact_inputs(frame, adjacent), frame.host.alpha)
        assert z.mean == pytest.approx(-3.5, abs=1e-9)


def _exact_inputs(frame, obj):
    from laneassign import InputVector

    return InputVector(
        np.array(
            [frame.host.v, frame.host.yaw_rate, obj.measurement.x, obj.measurement.y]
        ),
        np.zeros((4, 4)),
    )


def test_synthetic_noisy_yaw_reports_flap_power():
    # One full flap period (0.25 Hz -> 4 s) so both extremes are visited.
    spec = SynthSpec(kind="noisy_yaw", duration=4.0)
    frames = generate_synthetic(spec)
    base = SynthSpec(kind="straight_follow", duration=4.0)
    base_var = generate_synthetic(base)[0].var_yaw
    # Reported variance includes the mean-square power of the yaw flap.
    assert frames[0].var_yaw == pytest.approx(base_var + spec.yaw_amplitude**2 / 2.0)
    yaw = [f.host.yaw_rate for f in frames]
    assert max(yaw) > 0.02
    assert min(yaw) < -0.02


def _reference_synthetic(spec):
    """The generator as one scalar draw per noise value, frame by frame: the
    reference that `generate_synthetic`'s single draw must reproduce."""
    from laneassign.harness import _ramp

    rng = np.random.default_rng(spec.seed)
    half = spec.lane_width / 2.0
    width = spec.lane_width
    change_start = (
        spec.change_time if spec.change_time is not None else spec.duration / 2.0
    )
    noise = spec.noise
    bounds = BoundarySet(
        tuple(
            GaussianScalar(mean, factor * spec.boundary_std)
            for mean, factor in ((-3.0 * half, 1.5), (-half, 1.0), (half, 1.0),
                                 (3.0 * half, 1.5))
        ),
        BoundarySource.MEASURED,
    )
    frames = []
    for k in range(int(round(spec.duration / spec.step))):
        t = round(k * spec.step, 9)
        yaw_true = yaw_extra = var_yaw_extra = 0.0
        if spec.kind == "host_curve":
            yaw_true = spec.host_speed / spec.curve_radius
        elif spec.kind == "noisy_yaw":
            yaw_extra = spec.yaw_amplitude * math.sin(
                2.0 * math.pi * spec.yaw_frequency * t
            )
            var_yaw_extra = spec.yaw_amplitude**2 / 2.0
        r = spec.object_range
        if spec.kind == "straight_follow":
            truth = [("lead", r, 0.0, None), ("neighbor", 0.6 * r, width, None)]
        elif spec.kind == "adjacent_lane":
            truth = [("left", 0.8 * r, width, None), ("right", 1.2 * r, -width, None)]
        elif spec.kind == "target_lane_change":
            lateral = _ramp(t, change_start, spec.change_duration, 0.0, width)
            in_ramp = change_start < t < change_start + spec.change_duration
            v_lat = width / spec.change_duration if in_ramp else 0.0
            truth = [("changer", r, lateral, v_lat)]
        elif spec.kind == "host_curve":
            truth = [("lead", r, 0.0, None), ("adjacent", 0.8 * r, -width, None)]
        else:
            lateral = _ramp(t, change_start, spec.change_duration, width, 0.0)
            truth = [("cutin", 0.8 * r, lateral, None), ("far", 1.6 * r, width, None)]
        objects = []
        for object_id, x_true, lateral_true, v_lat in truth:
            x_cart, y_cart = x_true, lateral_true
            if spec.kind == "host_curve":
                radius = spec.curve_radius
                phi = x_true / radius
                x_cart = (radius - lateral_true) * math.sin(phi)
                y_cart = radius - (radius - lateral_true) * math.cos(phi)
            x_meas = max(x_cart + rng.normal(0.0, noise.sigma_x), 0.01)
            y_meas = y_cart + rng.normal(0.0, noise.sigma_y)
            edges = (-3.0 * half, -half, half, 3.0 * half)
            objects.append(
                TrackedObject(
                    object_id,
                    ObjectMeasurement(x_meas, y_meas, v_lat),
                    noise.sigma_x**2,
                    noise.sigma_y**2,
                    int(np.searchsorted(edges, lateral_true, side="left")),
                )
            )
        v_meas = max(spec.host_speed + rng.normal(0.0, noise.sigma_v), 0.0)
        yaw_meas = yaw_true + yaw_extra + rng.normal(0.0, noise.sigma_yaw)
        frames.append(
            ScenarioFrame(
                t,
                HostState(v_meas, yaw_meas, 0.0),
                noise.sigma_v**2,
                noise.sigma_yaw**2 + var_yaw_extra,
                tuple(objects),
                bounds,
            )
        )
    return frames


def _serialized(frames):
    out = io.StringIO()
    write_scenario(frames, out)
    return out.getvalue()


@pytest.mark.parametrize("kind", SCENARIO_KINDS)
def test_synthetic_matches_the_per_draw_reference(kind):
    for seed in (0, 7, 12):
        for scale in (0.0, 1.0, 2.5):
            for step in (0.05, 0.1):
                for change_time in (None, 3.0):
                    spec = SynthSpec(
                        kind, duration=6.0, step=step, seed=seed,
                        noise=NoiseSpec().scaled(scale), change_time=change_time,
                    )
                    frames = generate_synthetic(spec)
                    reference = _reference_synthetic(spec)
                    assert frames == reference, spec
                    # repr round-trips every float, so equal text is equal bits
                    assert _serialized(frames) == _serialized(reference), spec


def test_synthetic_noise_errors_match_the_reference():
    for noise, error, match in (
        (NoiseSpec().scaled(-1.0), ValueError, "scale < 0"),
        (NoiseSpec().scaled(math.nan), InputDomainError,
         r"object position must be finite, got \(nan, nan\)"),
    ):
        spec = SynthSpec("straight_follow", duration=1.0, noise=noise)
        for generate in (generate_synthetic, _reference_synthetic):
            with pytest.raises(error, match=match):
                generate(spec)


def test_ground_truth_edges_stay_in_the_lower_region():
    half = 1.75
    below, above = math.nextafter(half, 0.0), math.nextafter(half, 10.0)
    cases = {
        -3.0 * half: 0, math.nextafter(-3.0 * half, -10.0): 0,
        math.nextafter(-3.0 * half, 0.0): 1,
        -half: 1, math.nextafter(-half, -10.0): 1, math.nextafter(-half, 0.0): 2,
        below: 2, half: 2, above: 3,
        3.0 * half: 3, math.nextafter(3.0 * half, 0.0): 3,
        math.nextafter(3.0 * half, 10.0): 4,
    }
    edges = (-3.0 * half, -half, half, 3.0 * half)
    for lateral, region in cases.items():
        assert _ground_truth(lateral, half) == region, lateral
        assert region == int(np.searchsorted(edges, lateral, side="left"))


def test_build_suite_covers_all_kinds():
    suite = build_suite()
    assert set(suite) == set(SCENARIO_KINDS)
    assert all(len(frames) > 0 for frames in suite.values())


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


def test_pipeline_rejects_unknown_method():
    frames = generate_synthetic(SynthSpec(kind="straight_follow", duration=0.5))
    with pytest.raises(InputDomainError):
        run_pipeline(frames, method="magic")


def test_pipeline_straight_follow_assigns_host():
    frames = generate_synthetic(
        SynthSpec(kind="straight_follow", duration=5.0, noise=QUIET)
    )
    for method in ("discrete", "continuous"):
        results = [
            r
            for r in run_pipeline(frames, method=method)
            if r.object_id == "lead" and r.t > 0.5
        ]
        accepted_host = [
            r.assignment.accepted and r.assignment.index == HOST_PATH_INDEX
            for r in results
        ]
        assert np.mean(accepted_host) > 0.99, method


def test_pipeline_first_step_semantics():
    frames = generate_synthetic(
        SynthSpec(kind="straight_follow", duration=0.05, noise=QUIET)
    )[:1]
    frame = frames[0]
    lead = next(o for o in frame.objects if o.object_id == "lead")
    z = transform_to_path(
        _noisy_inputs(frame, lead), frame.host.alpha
    )
    want = lane_occupancy(z, frame.bounds)
    for method in ("discrete", "continuous"):
        results = run_pipeline(frames, method=method)
        got = next(r for r in results if r.object_id == "lead")
        np.testing.assert_allclose(got.posterior.probs, want.probs, atol=1e-12)


def _noisy_inputs(frame, obj):
    from laneassign import InputVector

    return InputVector(
        np.array(
            [frame.host.v, frame.host.yaw_rate, obj.measurement.x, obj.measurement.y]
        ),
        np.diag([frame.var_v, frame.var_yaw, obj.var_x, obj.var_y]),
    )


def test_pipeline_object_order_does_not_matter():
    frames = generate_synthetic(SynthSpec(kind="adjacent_lane", duration=2.0, seed=3))
    swapped = [
        ScenarioFrame(
            t=f.t,
            host=f.host,
            var_v=f.var_v,
            var_yaw=f.var_yaw,
            objects=tuple(reversed(f.objects)),
            bounds=f.bounds,
        )
        for f in frames
    ]
    a = run_pipeline(frames, method="discrete")
    b = run_pipeline(swapped, method="discrete")
    key = lambda r: (r.t, r.object_id)
    for x, y in zip(sorted(a, key=key), sorted(b, key=key)):
        assert x.object_id == y.object_id
        np.testing.assert_array_equal(x.posterior.probs, y.posterior.probs)
        assert x.assignment == y.assignment


def test_pipeline_drops_stale_tracks():
    base = generate_synthetic(
        SynthSpec(kind="straight_follow", duration=0.1, noise=QUIET)
    )
    # Same object seen at t=0 and t=0.05, then a reappearance after a gap
    # longer than the absence timeout: the filter must restart from scratch.
    late = ScenarioFrame(
        t=5.0,
        host=base[0].host,
        var_v=base[0].var_v,
        var_yaw=base[0].var_yaw,
        objects=base[0].objects,
        bounds=base[0].bounds,
    )
    results = run_pipeline(list(base) + [late], method="discrete")
    first = next(r for r in results if r.object_id == "lead")
    reappeared = next(r for r in results if r.object_id == "lead" and r.t == 5.0)
    np.testing.assert_allclose(
        reappeared.posterior.probs, first.posterior.probs, atol=1e-15
    )


def test_pipeline_keeps_fresh_tracks():
    frames = generate_synthetic(
        SynthSpec(kind="straight_follow", duration=0.15, noise=QUIET)
    )
    results = run_pipeline(frames, method="discrete")
    lead = [r for r in results if r.object_id == "lead"]
    # Posterior sharpens step over step while the track persists.
    assert lead[1].posterior[HOST_PATH_INDEX] >= lead[0].posterior[HOST_PATH_INDEX]
    assert lead[2].posterior[HOST_PATH_INDEX] >= lead[1].posterior[HOST_PATH_INDEX]


def test_pipeline_wraps_errors_with_frame_context():
    base = generate_synthetic(
        SynthSpec(kind="straight_follow", duration=0.05, noise=QUIET)
    )[0]
    stuck = [base, base]  # same timestamp twice
    with pytest.raises(InputDomainError, match=r"frame 1 \(t=0\.0\)"):
        run_pipeline(stuck, method="continuous")


# ---------------------------------------------------------------------------
# ROC evaluation
# ---------------------------------------------------------------------------


def result_stub(gt, index, accepted, t=0.0, oid="o"):
    probs = np.full(5, 0.025)
    probs[index] = 0.9
    return ObjectResult(
        t=t,
        object_id=oid,
        method="discrete",
        assignment=Assignment(index=index, probability=0.9, accepted=accepted),
        posterior=PathPosterior(probs),
        ground_truth=gt,
    )


def test_compute_roc_counts():
    results = [
        result_stub(gt=2, index=2, accepted=True),   # TP
        result_stub(gt=2, index=2, accepted=False),  # miss (gate)
        result_stub(gt=2, index=3, accepted=True),   # miss (wrong index)
        result_stub(gt=3, index=2, accepted=True),   # FP
        result_stub(gt=3, index=3, accepted=True),   # correct rejection
        result_stub(gt=0, index=2, accepted=False),  # correct rejection (gate)
    ]
    point = compute_roc(results, "demo")
    assert point.parameter_label == "demo"
    assert point.tp_rate == pytest.approx(1.0 / 3.0)
    assert point.fp_rate == pytest.approx(1.0 / 3.0)
    assert point.frames_evaluated == 6


def test_compute_roc_undefined_rates_are_none():
    only_host = [result_stub(gt=2, index=2, accepted=True)]
    point = compute_roc(only_host)
    assert point.tp_rate == 1.0
    assert point.fp_rate is None
    only_other = [result_stub(gt=3, index=3, accepted=True)]
    point = compute_roc(only_other)
    assert point.tp_rate is None
    assert point.fp_rate == 0.0
    assert compute_roc([]).frames_evaluated == 0


def test_compute_roc_requires_ground_truth():
    with pytest.raises(InputDomainError):
        compute_roc([result_stub(gt=None, index=2, accepted=True)])


def test_sweep_single_point_matches_direct_run():
    frames = generate_synthetic(SynthSpec(kind="straight_follow", duration=1.0))
    points = sweep_parameters([frames], method="discrete", grid=(0.05,))
    want = compute_roc(
        run_pipeline(frames, "discrete", PipelineConfig(epsilon=0.05)), "epsilon=0.05"
    )
    assert points[0] == want


def test_sweep_default_grids():
    frames = generate_synthetic(SynthSpec(kind="straight_follow", duration=1.0))
    eps_points = sweep_parameters([frames], method="discrete")
    assert [p.parameter_label for p in eps_points] == [
        f"epsilon={v:g}" for v in EPSILON_GRID
    ]
    nu_points = sweep_parameters([frames], method="continuous")
    assert [p.parameter_label for p in nu_points] == [
        f"sigma_nu={v:g}" for v in SIGMA_NU_GRID
    ]
    for p in eps_points + nu_points:
        assert p.tp_rate is None or 0.0 <= p.tp_rate <= 1.0
        assert p.fp_rate is None or 0.0 <= p.fp_rate <= 1.0


def test_sweep_accepts_multiple_scenarios():
    a = generate_synthetic(SynthSpec(kind="straight_follow", duration=1.0))
    b = generate_synthetic(SynthSpec(kind="adjacent_lane", duration=1.0))
    merged = sweep_parameters([a, b], method="discrete", grid=(0.05,))
    assert merged[0].frames_evaluated == (
        sweep_parameters([a], method="discrete", grid=(0.05,))[0].frames_evaluated
        + sweep_parameters([b], method="discrete", grid=(0.05,))[0].frames_evaluated
    )


def test_sweep_rejects_empty_grid():
    frames = generate_synthetic(SynthSpec(kind="straight_follow", duration=0.5))
    with pytest.raises(InputDomainError):
        sweep_parameters([frames], method="discrete", grid=())


def test_zero_noise_adjacent_lane_has_no_false_positives():
    # Objects that never enter the host lane, measured without noise, must
    # never be assigned to it, whatever the parameters.
    frames = generate_synthetic(
        SynthSpec(kind="adjacent_lane", duration=3.0, noise=QUIET)
    )
    for method, grid in (("discrete", (0.1, 0.01)), ("continuous", (0.05, 0.4))):
        for point in sweep_parameters([frames], method=method, grid=grid):
            assert point.fp_rate == 0.0, method
            assert point.tp_rate is None  # nothing is ever truly in-lane


# ---------------------------------------------------------------------------
# CSV writers
# ---------------------------------------------------------------------------


def test_write_run_csv():
    results = [
        result_stub(gt=2, index=2, accepted=True, t=0.1, oid="a"),
        result_stub(gt=3, index=3, accepted=False, t=0.2, oid="b"),
    ]
    buffer = io.StringIO()
    write_run_csv(results, buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "t,object_id,method,assigned,prob,p0,p1,p2,p3,p4"
    first = lines[1].split(",")
    assert first[:4] == ["0.1", "a", "discrete", "2"]
    second = lines[2].split(",")
    assert second[3] == ""  # rejected assignment leaves the column empty
    assert float(second[4]) == pytest.approx(0.9)


def test_write_roc_csv():
    from laneassign import RocPoint

    points = [
        RocPoint("epsilon=0.1", 0.5, 0.25, 100),
        RocPoint("epsilon=0.01", None, 0.0, 40),
    ]
    buffer = io.StringIO()
    write_roc_csv(points, buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "param,tp_rate,fp_rate,frames"
    assert lines[1] == "epsilon=0.1,0.5,0.25,100"
    assert lines[2] == "epsilon=0.01,,0.0,40"
