"""Scenario ingestion, synthetic scenario generation, pipeline execution and
ROC evaluation over parameter sweeps.

Scenario files are UTF-8 JSON lines, one frame per line:

    {"t": 0.0,
     "host": {"v": 25.0, "yaw_rate": 0.0, "var_v": 0.09, "var_yaw": 2.5e-05},
     "objects": [{"id": "lead", "x": 50.0, "y": 0.1,
                  "var_x": 0.04, "var_y": 0.04, "v_lat": 0.0, "gt": 2}],
     "bounds": [{"mu": -5.25, "sigma": 0.45}, {"mu": -1.75, "sigma": 0.3},
                {"mu": 1.75, "sigma": 0.3}, {"mu": 5.25, "sigma": 0.45}]}

`host.alpha`, per-object `v_lat`/`gt` and the frame's `bounds` are optional;
unknown fields anywhere are rejected.  Timestamps must strictly increase.
Boundary overrides are given directly in path coordinates (pre-transformed
camera cues); without them the default boundary layout is used.
"""

from __future__ import annotations

import bisect
import csv
import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

import numpy as np

from ._engine import filter_batch
from .estimator import DEFAULT_P_MIN, Assignment
from .geometry import GaussianScalar, HostState, InputDomainError, ObjectMeasurement
from .likelihood import (
    HOST_PATH_INDEX,
    N_PATHS,
    BoundarySet,
    BoundarySource,
    PathPosterior,
)

# The per-object stages the engine replaces stay importable from here, where
# the benchmark's tracer (bench/tracing.py) counts their calls.
from .estimator import assign  # noqa: F401
from .geometry import transform_to_path  # noqa: F401
from .likelihood import extrapolate_boundaries  # noqa: F401


class ScenarioFormatError(ValueError):
    """A scenario stream violates the line format or the frame schema."""


# ---------------------------------------------------------------------------
# Scenario model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrackedObject:
    """One object row of a frame: measurement, its variances, optional truth."""

    object_id: str
    measurement: ObjectMeasurement
    var_x: float
    var_y: float
    ground_truth: int | None = None


@dataclass(frozen=True)
class ScenarioFrame:
    """One time step: host state with variances, objects, optional bounds."""

    t: float
    host: HostState
    var_v: float
    var_yaw: float
    objects: tuple[TrackedObject, ...]
    bounds: BoundarySet | None = None


# ---------------------------------------------------------------------------
# Parsing and serialization
# ---------------------------------------------------------------------------

def _schema(**fields: bool) -> tuple[dict[str, bool], frozenset, frozenset]:
    """Fields of one record kind (name -> required), with the allowed and the
    required names as sets."""
    required = frozenset(key for key, needed in fields.items() if needed)
    return fields, frozenset(fields), required


_FRAME_KEYS = _schema(t=True, host=True, objects=True, bounds=False)
_HOST_KEYS = _schema(v=True, yaw_rate=True, var_v=True, var_yaw=True, alpha=False)
_OBJECT_KEYS = _schema(id=True, x=True, y=True, var_x=True, var_y=True,
                       v_lat=False, gt=False)
_BOUND_KEYS = _schema(mu=True, sigma=True)


def _check_keys(record: dict, schema: tuple, where: str, line: int) -> None:
    fields, allowed, required = schema
    if not isinstance(record, dict):
        raise ScenarioFormatError(f"line {line}: {where} must be an object")
    if required <= record.keys() <= allowed:
        return
    for key in record:
        if key not in fields:
            raise ScenarioFormatError(f"line {line}: unknown field {key!r} in {where}")
    for key, needed in fields.items():
        if needed and key not in record:
            raise ScenarioFormatError(f"line {line}: missing field {key!r} in {where}")


def _number(record: dict, key: str, where: str, line: int) -> float:
    value = record[key]
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioFormatError(
            f"line {line}: field {key!r} in {where} must be a number"
        )
    return float(value)


def _variance(record: dict, key: str, where: str, line: int) -> float:
    value = _number(record, key, where, line)
    if not math.isfinite(value) or value < 0.0:
        raise ScenarioFormatError(
            f"line {line}: field {key!r} in {where} must be finite and >= 0"
        )
    return value


def _parse_object(record: dict, line: int) -> TrackedObject:
    _check_keys(record, _OBJECT_KEYS, "object", line)
    object_id = record["id"]
    if isinstance(object_id, bool) or not isinstance(object_id, (str, int)):
        raise ScenarioFormatError(f"line {line}: field 'id' must be a string")
    v_lat = None
    if "v_lat" in record:
        v_lat = _number(record, "v_lat", "object", line)
    gt = None
    if "gt" in record:
        gt = record["gt"]
        if isinstance(gt, bool) or not isinstance(gt, int) or not 0 <= gt < N_PATHS:
            raise ScenarioFormatError(
                f"line {line}: field 'gt' must be an integer in 0..{N_PATHS - 1}"
            )
    try:
        measurement = ObjectMeasurement(
            x=_number(record, "x", "object", line),
            y=_number(record, "y", "object", line),
            lateral_velocity_input=v_lat,
        )
    except InputDomainError as exc:
        raise ScenarioFormatError(f"line {line}: {exc}") from exc
    return TrackedObject(
        object_id=str(object_id),
        measurement=measurement,
        var_x=_variance(record, "var_x", "object", line),
        var_y=_variance(record, "var_y", "object", line),
        ground_truth=gt,
    )


def _parse_bounds(records: list, line: int) -> BoundarySet:
    if not isinstance(records, list) or len(records) != 4:
        raise ScenarioFormatError(f"line {line}: 'bounds' must list exactly 4 entries")
    parsed = []
    for record in records:
        _check_keys(record, _BOUND_KEYS, "bounds entry", line)
        mu = _number(record, "mu", "bounds entry", line)
        sigma = _number(record, "sigma", "bounds entry", line)
        try:
            parsed.append(GaussianScalar(mu, sigma))
        except InputDomainError as exc:
            raise ScenarioFormatError(f"line {line}: {exc}") from exc
    try:
        return BoundarySet(tuple(parsed), BoundarySource.MEASURED)
    except InputDomainError as exc:
        raise ScenarioFormatError(f"line {line}: {exc}") from exc


def parse_scenario(stream: str | Iterable[str]) -> list[ScenarioFrame]:
    """Parse a JSON-lines scenario; blank lines are ignored.

    Raises ScenarioFormatError naming the offending field and 1-based line
    number on any schema violation, and on non-increasing timestamps.
    """
    if isinstance(stream, str):
        stream = stream.splitlines()
    frames: list[ScenarioFrame] = []
    previous_t: float | None = None
    for line_no, raw in enumerate(stream, start=1):
        if not raw.strip():
            continue
        try:
            record = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ScenarioFormatError(f"line {line_no}: invalid JSON: {exc}") from exc
        _check_keys(record, _FRAME_KEYS, "frame", line_no)
        t = _number(record, "t", "frame", line_no)
        if previous_t is not None and t <= previous_t:
            raise ScenarioFormatError(
                f"line {line_no}: timestamps must strictly increase "
                f"({t} after {previous_t})"
            )
        previous_t = t

        host_record = record["host"]
        _check_keys(host_record, _HOST_KEYS, "host", line_no)
        alpha = 0.0
        if "alpha" in host_record:
            alpha = _number(host_record, "alpha", "host", line_no)
        try:
            host = HostState(
                v=_number(host_record, "v", "host", line_no),
                yaw_rate=_number(host_record, "yaw_rate", "host", line_no),
                alpha=alpha,
            )
        except InputDomainError as exc:
            raise ScenarioFormatError(f"line {line_no}: {exc}") from exc
        if not math.isfinite(t):
            raise ScenarioFormatError(
                f"line {line_no}: timestamp must be finite, got {t}"
            )

        object_records = record["objects"]
        if not isinstance(object_records, list):
            raise ScenarioFormatError(f"line {line_no}: 'objects' must be a list")
        objects = tuple(_parse_object(rec, line_no) for rec in object_records)
        seen_ids = set()
        for obj in objects:
            if obj.object_id in seen_ids:
                raise ScenarioFormatError(
                    f"line {line_no}: duplicate object id {obj.object_id!r}"
                )
            seen_ids.add(obj.object_id)

        bounds = None
        if "bounds" in record:
            bounds = _parse_bounds(record["bounds"], line_no)
        frames.append(
            ScenarioFrame(
                t=t,
                host=host,
                var_v=_variance(host_record, "var_v", "host", line_no),
                var_yaw=_variance(host_record, "var_yaw", "host", line_no),
                objects=objects,
                bounds=bounds,
            )
        )
    return frames


def load_scenario(path: str) -> list[ScenarioFrame]:
    with open(path, encoding="utf-8") as handle:
        return parse_scenario(handle)


def frame_to_dict(frame: ScenarioFrame) -> dict:
    """Plain-dict form of a frame, inverse of the parser."""
    host = {
        "v": frame.host.v,
        "yaw_rate": frame.host.yaw_rate,
        "var_v": frame.var_v,
        "var_yaw": frame.var_yaw,
        "alpha": frame.host.alpha,
    }
    objects = []
    for obj in frame.objects:
        record = {
            "id": obj.object_id,
            "x": obj.measurement.x,
            "y": obj.measurement.y,
            "var_x": obj.var_x,
            "var_y": obj.var_y,
        }
        if obj.measurement.lateral_velocity_input is not None:
            record["v_lat"] = obj.measurement.lateral_velocity_input
        if obj.ground_truth is not None:
            record["gt"] = obj.ground_truth
        objects.append(record)
    record = {"t": frame.t, "host": host, "objects": objects}
    if frame.bounds is not None:
        record["bounds"] = [
            {"mu": b.mean, "sigma": b.std} for b in frame.bounds.boundaries
        ]
    return record


def write_scenario(frames: Iterable[ScenarioFrame], out: TextIO) -> None:
    for frame in frames:
        out.write(json.dumps(frame_to_dict(frame)))
        out.write("\n")


# ---------------------------------------------------------------------------
# Synthetic scenarios
# ---------------------------------------------------------------------------

SCENARIO_KINDS = (
    "straight_follow",
    "adjacent_lane",
    "target_lane_change",
    "host_curve",
    "noisy_yaw",
)


@dataclass(frozen=True)
class NoiseSpec:
    """Measurement noise levels (standard deviations) for synthesis."""

    sigma_x: float = 0.2
    sigma_y: float = 0.2
    sigma_v: float = 0.3
    sigma_yaw: float = 0.005

    def scaled(self, factor: float) -> "NoiseSpec":
        return NoiseSpec(
            self.sigma_x * factor,
            self.sigma_y * factor,
            self.sigma_v * factor,
            self.sigma_yaw * factor,
        )


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of one synthetic scenario.

    change_time defaults to duration / 2 and controls when the lane change
    (or cut-in) ramp starts; the ramp takes change_duration seconds.  The
    yaw flap of `noisy_yaw` has the given amplitude (rad/s) and frequency
    (Hz); its mean-square power is included in the reported yaw variance so
    the downstream uncertainty budget is honest.
    """

    kind: str
    duration: float = 20.0
    step: float = 0.05
    seed: int = 0
    noise: NoiseSpec = NoiseSpec()
    host_speed: float = 25.0
    lane_width: float = 3.5
    boundary_std: float = 0.3
    object_range: float = 50.0
    change_time: float | None = None
    change_duration: float = 3.0
    curve_radius: float = 500.0
    yaw_amplitude: float = 0.03
    yaw_frequency: float = 0.25


def _ramp(t: float, start: float, duration: float, y0: float, y1: float) -> float:
    if t <= start:
        return y0
    if t >= start + duration:
        return y1
    return y0 + (y1 - y0) * (t - start) / duration


def _ground_truth(lateral: float, half: float) -> int:
    # Region edges at -3h, -h, h, 3h; a value exactly on an edge stays in
    # the lower region, so the truth flips on the first strict crossing.
    return bisect.bisect_left((-3.0 * half, -half, half, 3.0 * half), lateral)


def generate_synthetic(spec: SynthSpec) -> list[ScenarioFrame]:
    """Deterministically generate one synthetic scenario.

    Kinds:
      straight_follow    lead in the host lane plus a neighbor one lane left
      adjacent_lane      objects one lane left and right, never in the host lane
      target_lane_change object ramps from the host lane into the left lane
      host_curve         constant-radius left curve, objects placed on the arc
      noisy_yaw          straight road with an oscillating yaw-rate corruption;
                         a cut-in object merges into the host lane and a far
                         object holds the left lane

    Ground truth indices come from the construction's true lateral offsets,
    never from the noisy measurements.
    """
    if spec.kind not in SCENARIO_KINDS:
        raise InputDomainError(
            f"unknown scenario kind {spec.kind!r}; expected one of {SCENARIO_KINDS}"
        )
    if spec.step <= 0.0 or not math.isfinite(spec.step):
        raise InputDomainError(f"step must be positive, got {spec.step}")
    if spec.duration < spec.step:
        raise InputDomainError("duration must cover at least one step")
    if not math.isfinite(spec.duration):
        raise InputDomainError(f"duration must be finite, got {spec.duration}")

    rng = np.random.default_rng(spec.seed)
    half = spec.lane_width / 2.0
    width = spec.lane_width
    change_start = (
        spec.change_time if spec.change_time is not None else spec.duration / 2.0
    )
    n_frames = int(round(spec.duration / spec.step))
    noise = spec.noise
    bounds = BoundarySet(
        (
            GaussianScalar(-3.0 * half, 1.5 * spec.boundary_std),
            GaussianScalar(-half, spec.boundary_std),
            GaussianScalar(half, spec.boundary_std),
            GaussianScalar(3.0 * half, 1.5 * spec.boundary_std),
        ),
        BoundarySource.MEASURED,
    )

    def placed(object_id, x_true, lateral, v_lat=None):
        """(id, x, y, emitted v_lat, truth) of an object at arc length
        x_true and path offset `lateral`."""
        x, y = x_true, lateral
        if spec.kind == "host_curve":
            # On the curve the path-relative construction is the
            # ground-truth oracle.
            radius = spec.curve_radius
            phi = x_true / radius
            x = (radius - lateral) * math.sin(phi)
            y = radius - (radius - lateral) * math.cos(phi)
        return object_id, x, y, v_lat, _ground_truth(lateral, half)

    # What does not change from frame to frame, once per scenario.
    r = spec.object_range
    yaw_true = 0.0
    var_yaw_extra = 0.0
    if spec.kind == "straight_follow":
        fixed = [placed("lead", r, 0.0), placed("neighbor", 0.6 * r, width)]
    elif spec.kind == "adjacent_lane":
        fixed = [placed("left", 0.8 * r, width), placed("right", 1.2 * r, -width)]
    elif spec.kind == "target_lane_change":
        fixed = []
    elif spec.kind == "host_curve":
        yaw_true = spec.host_speed / spec.curve_radius
        fixed = [placed("lead", r, 0.0), placed("adjacent", 0.8 * r, -width)]
    else:  # noisy_yaw
        var_yaw_extra = spec.yaw_amplitude**2 / 2.0
        fixed = [placed("far", 1.6 * r, width)]

    def objects_at(t):
        """The lane changer or the cut-in, whose offset ramps, then the
        fixed objects."""
        if spec.kind == "target_lane_change":
            lateral = _ramp(t, change_start, spec.change_duration, 0.0, width)
            in_ramp = change_start < t < change_start + spec.change_duration
            v_lat = width / spec.change_duration if in_ramp else 0.0
            return [placed("changer", r, lateral, v_lat)]
        if spec.kind == "noisy_yaw":
            lateral = _ramp(t, change_start, spec.change_duration, width, 0.0)
            return [placed("cutin", 0.8 * r, lateral)] + fixed
        return fixed

    # All the scenario's noise in one draw, in the order of one draw per
    # value: x and y of each object, then the host's v and yaw rate, frame
    # by frame.  Row k holds frame k.
    scales = [noise.sigma_x, noise.sigma_y] * len(objects_at(0.0))
    scales += [noise.sigma_v, noise.sigma_yaw]
    draws = rng.normal(0.0, np.tile(scales, n_frames)).reshape(n_frames, -1).tolist()
    var_x, var_y = noise.sigma_x**2, noise.sigma_y**2
    var_v, var_yaw = noise.sigma_v**2, noise.sigma_yaw**2 + var_yaw_extra

    frames: list[ScenarioFrame] = []
    for k, draw in enumerate(draws):
        t = round(k * spec.step, 9)
        # Positional arguments: keywords made the build about a fifth slower.
        objects = tuple([
            TrackedObject(
                object_id,
                ObjectMeasurement(
                    max(x + draw[2 * i], 0.01), y + draw[2 * i + 1], v_lat
                ),
                var_x,
                var_y,
                truth,
            )
            for i, (object_id, x, y, v_lat, truth) in enumerate(objects_at(t))
        ])
        yaw_extra = 0.0  # deterministic corruption on the measured yaw rate
        if spec.kind == "noisy_yaw":
            yaw_extra = spec.yaw_amplitude * math.sin(
                2.0 * math.pi * spec.yaw_frequency * t
            )
        frames.append(
            ScenarioFrame(
                t,
                HostState(
                    max(spec.host_speed + draw[-2], 0.0),
                    yaw_true + yaw_extra + draw[-1],
                    0.0,
                ),
                var_v,
                var_yaw,
                objects,
                bounds,
            )
        )
    return frames


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

METHODS = ("discrete", "continuous")


@dataclass(frozen=True)
class PipelineConfig:
    """Configuration shared by both methods; each method reads its own knobs."""

    epsilon: float = 0.05
    eta_gain: float = 0.05
    sigma_nu: float = 0.1
    p_min: float = DEFAULT_P_MIN


@dataclass(frozen=True)
class ObjectResult:
    """Assignment and posterior for one object in one frame."""

    t: float
    object_id: str
    method: str
    assignment: Assignment
    posterior: PathPosterior
    ground_truth: int | None


def _check_method(method: str) -> None:
    if method not in METHODS:
        raise InputDomainError(f"unknown method {method!r}; expected one of {METHODS}")


def run_pipeline(
    frames: Sequence[ScenarioFrame],
    method: str = "discrete",
    config: PipelineConfig = PipelineConfig(),
) -> list[ObjectResult]:
    """Run one filter method over a scenario.

    Per object: transform the measurement into a path-offset Gaussian, step
    that object's filter (created on first sight, dropped after
    `_engine.ABSENCE_TIMEOUT` = 1 s without detections), and assign by the
    gated median.  Objects are independent; their order within a frame does
    not affect any per-object output.  A ValueError names the earliest frame
    that fails.
    """
    _check_method(method)
    value = config.epsilon if method == "discrete" else config.sigma_nu
    batch = filter_batch([frames], method, config, [value])
    return [
        ObjectResult(
            t=frames[frame_index].t,
            object_id=obj.object_id,
            method=method,
            assignment=Assignment(index, probability, accepted),
            posterior=PathPosterior._validated(posterior),
            ground_truth=obj.ground_truth,
        )
        for frame_index, obj, posterior, index, probability, accepted in zip(
            batch.frame_of.tolist(),
            batch.objects,
            batch.posteriors[:, 0],
            batch.index[:, 0].tolist(),
            batch.probability[:, 0].tolist(),
            batch.accepted[:, 0].tolist(),
        )
    ]


# ---------------------------------------------------------------------------
# ROC evaluation and parameter sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RocPoint:
    """TP/FP rates for one parameter setting; None marks a rate whose
    denominator is empty (undefined, distinct from 0)."""

    parameter_label: str
    tp_rate: float | None
    fp_rate: float | None
    frames_evaluated: int


def _roc_point(
    parameter_label: str, ground_truth: np.ndarray, assigned_host: np.ndarray
) -> RocPoint:
    on_host = ground_truth == HOST_PATH_INDEX
    tp_total = int(on_host.sum())
    fp_total = len(on_host) - tp_total
    tp_hits = int((assigned_host & on_host).sum())
    fp_hits = int((assigned_host & ~on_host).sum())
    tp_rate = tp_hits / tp_total if tp_total else None
    fp_rate = fp_hits / fp_total if fp_total else None
    return RocPoint(parameter_label, tp_rate, fp_rate, tp_total + fp_total)


def _no_ground_truth(object_id: str, t: float) -> InputDomainError:
    return InputDomainError(f"object {object_id!r} at t={t} has no ground truth")


def compute_roc(results: Iterable[ObjectResult], parameter_label: str = "") -> RocPoint:
    """Host-lane TP/FP rates at object-frame granularity.

    TP rate: of the object-frames truly on the host path, the fraction with
    an accepted host-path assignment.  FP rate: of the object-frames truly
    elsewhere, the fraction with an accepted host-path assignment.  Rejected
    assignments count as non-assignments on both sides.
    """
    ground_truth, assigned_host = [], []
    for result in results:
        if result.ground_truth is None:
            raise _no_ground_truth(result.object_id, result.t)
        ground_truth.append(result.ground_truth)
        assigned_host.append(
            result.assignment.accepted and result.assignment.index == HOST_PATH_INDEX
        )
    return _roc_point(
        parameter_label,
        np.array(ground_truth, dtype=int),
        np.array(assigned_host, dtype=bool),
    )


EPSILON_GRID = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
SIGMA_NU_GRID = tuple(float(s) for s in np.geomspace(0.04, 0.4, 6))


def sweep_parameters(
    scenarios: Sequence[Sequence[ScenarioFrame]],
    method: str,
    grid: Sequence[float] | None = None,
    config: PipelineConfig = PipelineConfig(),
) -> list[RocPoint]:
    """One RocPoint per grid value, pooling results over all given scenarios.

    Each scenario is filtered independently (fresh state); results are
    pooled per grid value.  The swept parameter is epsilon for the discrete
    method and sigma_nu for the continuous one; the default grids cover six
    decades of epsilon and 0.04..0.4 m/s of sigma_nu.
    """
    _check_method(method)
    parameter = "epsilon" if method == "discrete" else "sigma_nu"
    if grid is None:
        grid = EPSILON_GRID if method == "discrete" else SIGMA_NU_GRID
    grid = list(grid)
    if not grid:
        raise InputDomainError("parameter grid must be nonempty")
    batch = filter_batch(scenarios, method, config, grid)
    for frame_index, obj in zip(batch.frame_of.tolist(), batch.objects):
        if obj.ground_truth is None:
            raise _no_ground_truth(obj.object_id, batch.frames[frame_index].t)
    ground_truth = np.array([obj.ground_truth for obj in batch.objects], dtype=int)
    assigned_host = batch.accepted & (batch.index == HOST_PATH_INDEX)
    return [
        _roc_point(f"{parameter}={value:g}", ground_truth, assigned_host[:, g])
        for g, value in enumerate(grid)
    ]


def build_suite(
    kinds: Sequence[str] = SCENARIO_KINDS, seed: int = 0, step: float = 0.05
) -> dict[str, list[ScenarioFrame]]:
    """The bundled synthetic suite: one scenario per kind, fixed defaults."""
    suite = {}
    for kind in kinds:
        if kind == "noisy_yaw":
            spec = SynthSpec(kind, duration=30.0, step=step, seed=seed)
        else:
            spec = SynthSpec(kind, step=step, seed=seed)
        suite[kind] = generate_synthetic(spec)
    return suite


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

RUN_CSV_COLUMNS = (
    "t", "object_id", "method", "assigned", "prob", "p0", "p1", "p2", "p3", "p4",
)
ROC_CSV_COLUMNS = ("param", "tp_rate", "fp_rate", "frames")


def write_run_csv(results: Iterable[ObjectResult], out: TextIO) -> None:
    """Per-object-frame results; `assigned` is empty on rejected assignments."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(RUN_CSV_COLUMNS)
    for result in results:
        writer.writerow(
            [
                repr(float(result.t)),
                result.object_id,
                result.method,
                result.assignment.index if result.assignment.accepted else "",
                repr(float(result.assignment.probability)),
                *(repr(float(p)) for p in result.posterior.probs),
            ]
        )


def write_roc_csv(points: Iterable[RocPoint], out: TextIO) -> None:
    """Sweep results; undefined rates are written as empty cells."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(ROC_CSV_COLUMNS)
    for point in points:
        writer.writerow(
            [
                point.parameter_label,
                "" if point.tp_rate is None else repr(float(point.tp_rate)),
                "" if point.fp_rate is None else repr(float(point.fp_rate)),
                point.frames_evaluated,
            ]
        )
