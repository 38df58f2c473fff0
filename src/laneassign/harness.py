"""Scenario ingestion, synthetic scenario generation, pipeline execution and
ROC evaluation over parameter sweeps.

A scenario is a `Scenario`: columns with one entry per frame and one per
object-frame.  The parser and the synthetic generator fill them,
`write_scenario` writes them and the engine (`_engine`) reads them, so no
per-frame or per-object value is built between a file and a result.  A
run's result is columnar too: a `RunResult` holds the engine's arrays, one
entry per object-frame.  The engine builds it, one per parameter value,
`run_pipeline` and `sweep_parameters` hand it on, `write_run_csv` writes it
and `compute_roc` counts it.  A synthetic scenario takes the five settings of
a `SynthSpec`; the rest of its scene is the module constants below and
`likelihood.DEFAULT_BOUNDS`.  Each default lives in one place here:
`PipelineConfig` for a run, `SWEEP_CONFIG` for a sweep and `SynthSpec` for
a synthetic scenario and the bundled suite.  The CLI passes on only the
flags it is given, so its outputs are those of the library calls.

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
camera cues); without them `DEFAULT_BOUNDS` is used.  A parse error names its
line, which `parse_scenario` adds in one place, and `load_scenario` its file.

The parser decodes, checks and appends one line at a time, so its error is
that of the first failing line and no later line is read.  `write_scenario`
writes the fields of `_FIELDS` in its order.  `write_run_csv` writes
`WRITE_BLOCK` rows at a time, each column's `repr`s joined into lines, which
bounds the strings alive at once.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from ._engine import METHODS, RunResult, _in_scenario, filter_batch
from .estimator import DEFAULT_P_MIN
from .geometry import GaussianScalar, HostState, InputDomainError, _check_count, _check_object
from .likelihood import DEFAULT_BOUNDS, HOST_PATH_INDEX, N_PATHS, BoundarySet


class ScenarioFormatError(ValueError):
    """A scenario stream violates the line format or the frame schema."""


# ---------------------------------------------------------------------------
# Scenario model
# ---------------------------------------------------------------------------


@dataclass
class Scenario:
    """A scenario column by column: one entry per frame, and one per
    object-frame, frame by frame and in frame order within a frame.  The
    values are those of the file format and are kept as given, so
    timestamps, ids and ground truths reach results and messages unchanged.
    `len` gives the number of frames.

    Within a scenario each column has one entry per frame (as `t` has) or
    per id (as `id` has); `frame_of` never decreases and indexes the
    frames; the frame times are finite and strictly increase, and an id
    appears at most once per frame; the host's values lie in the domain of
    `HostState` and each object's in that of `geometry._check_object`.  The
    parser and the generator check all of it; the engine checks the column
    lengths, `frame_of`, the frame times and the ids before anything else,
    and rejects an object-frame outside the domains.
    """

    # One entry per frame.
    t: list = field(default_factory=list)
    v: list = field(default_factory=list)
    yaw_rate: list = field(default_factory=list)
    alpha: list = field(default_factory=list)
    var_v: list = field(default_factory=list)
    var_yaw: list = field(default_factory=list)
    bounds: list = field(default_factory=list)  # BoundarySet, None for the default layout
    # One entry per object-frame.
    frame_of: list = field(default_factory=list)  # index into the frame entries
    id: list = field(default_factory=list)
    x: list = field(default_factory=list)
    y: list = field(default_factory=list)
    var_x: list = field(default_factory=list)
    var_y: list = field(default_factory=list)
    v_lat: list = field(default_factory=list)  # None where absent
    gt: list = field(default_factory=list)  # None where absent

    def __len__(self) -> int:
        return len(self.t)


# ---------------------------------------------------------------------------
# Parsing and serialization
# ---------------------------------------------------------------------------

# Rows written at a time by `write_run_csv`: a block bounds the cell strings
# alive at once.
WRITE_BLOCK = 256

# Each kind's fields (name -> required), the required ones first; the writer
# writes them in this order.  An absent optional field reads as None, the
# heading offset as HostState's default, 0.
_FIELDS = {
    "frame": {"t": True, "host": True, "objects": True, "bounds": False},
    "host": {"v": True, "yaw_rate": True, "var_v": True, "var_yaw": True, "alpha": False},
    "object": {"id": True, "x": True, "y": True, "var_x": True, "var_y": True,
               "v_lat": False, "gt": False},
    "bounds entry": {"mu": True, "sigma": True},
}


def _check_keys(record, kind: str) -> None:
    """Check that `record` is an object with the fields of `kind`."""
    fields = _FIELDS[kind]
    if type(record) is not dict:
        raise ScenarioFormatError(f"{kind} must be an object")
    for key in record:
        if key not in fields:
            raise ScenarioFormatError(f"unknown field {key!r} in {kind}")
    for key, required in fields.items():
        if required and key not in record:
            raise ScenarioFormatError(f"missing field {key!r} in {kind}")


def _number(record: dict, key: str, kind: str) -> float:
    """The field `key` of a record of `kind` as a float.  An integer beyond
    the float range reads as the float literal 1e400 does, as an infinity,
    which the domains reject."""
    value = record[key]
    if type(value) is float:
        return value
    if type(value) is not int:  # bool is a subclass of int, not int
        raise ScenarioFormatError(f"field {key!r} in {kind} must be a number")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _variance(record: dict, key: str, kind: str) -> float:
    value = _number(record, key, kind)
    if not 0.0 <= value < math.inf:
        raise ScenarioFormatError(f"field {key!r} in {kind} must be finite and >= 0")
    return value


def _parse_line(raw: str, scenario: Scenario) -> None:
    """Decode one frame line, check it and append it to the columns.

    The checks run in this order, and the first that fails raises: the
    frame's keys, `t`, its increase, the host's keys, `alpha`, `v` and
    `yaw_rate`, the `HostState` domain, a finite `t`, `objects`, each object
    in turn (keys, `id`, `v_lat`, `gt`, `x`, `y`, the `_check_object`
    domain, `var_x`, `var_y`), duplicate ids, `bounds` (each entry in turn,
    then their order), and the host's `var_v` and `var_yaw`.  The object loop
    tests each value inline and calls a helper, or the constructor, only to
    word an error, so that no per-object value is built.
    """
    try:
        frame = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        # Besides syntax errors (JSONDecodeError): integers longer than the
        # interpreter converts, and nesting deeper than it recurses.
        raise ScenarioFormatError(f"invalid JSON: {exc}") from exc
    _check_keys(frame, "frame")
    t = _number(frame, "t", "frame")
    if scenario.t and t <= scenario.t[-1]:
        raise ScenarioFormatError(f"timestamps must strictly increase ({t} after {scenario.t[-1]})")
    host = frame["host"]
    _check_keys(host, "host")
    alpha = _number(host, "alpha", "host") if "alpha" in host else 0.0
    v = _number(host, "v", "host")
    yaw_rate = _number(host, "yaw_rate", "host")
    if not (0.0 <= v < math.inf and math.isfinite(yaw_rate) and abs(alpha) < math.pi / 2):
        HostState(v, yaw_rate, alpha)
    if not math.isfinite(t):
        raise ScenarioFormatError(f"timestamp must be finite, got {t}")
    objects = frame["objects"]
    if type(objects) is not list:
        raise ScenarioFormatError("'objects' must be a list")

    first = len(scenario.id)
    inf = math.inf
    for record in objects:
        # The key check's fast path: the five required fields, and no others
        # but the optional ones.
        try:
            object_id, x, y, var_x, var_y = (
                record["id"], record["x"], record["y"], record["var_x"], record["var_y"])
            if len(record) != 5 + ("v_lat" in record) + ("gt" in record):
                _check_keys(record, "object")
        except (KeyError, TypeError):  # a field missing, or no object
            _check_keys(record, "object")
        if type(object_id) is str:
            if "\r" in object_id:
                raise ScenarioFormatError("field 'id' must not hold a carriage return")
        elif type(object_id) is int:
            object_id = str(object_id)
        else:
            raise ScenarioFormatError("field 'id' must be a string")
        v_lat = record.get("v_lat")
        if type(v_lat) is not float and "v_lat" in record:
            v_lat = _number(record, "v_lat", "object")
        gt = record.get("gt")
        if gt is not None or "gt" in record:
            if type(gt) is not int or not 0 <= gt < N_PATHS:
                raise ScenarioFormatError(f"field 'gt' must be an integer in 0..{N_PATHS - 1}")
        if type(x) is not float:
            x = _number(record, "x", "object")
        if type(y) is not float:
            y = _number(record, "y", "object")
        if not (0.0 < x < inf and -inf < y < inf) or (
                v_lat is not None and not -inf < v_lat < inf):
            _check_object(x, y, v_lat)
        if type(var_x) is not float or not 0.0 <= var_x < inf:
            var_x = _variance(record, "var_x", "object")
        if type(var_y) is not float or not 0.0 <= var_y < inf:
            var_y = _variance(record, "var_y", "object")
        scenario.id.append(object_id)
        scenario.x.append(x)
        scenario.y.append(y)
        scenario.var_x.append(var_x)
        scenario.var_y.append(var_y)
        scenario.v_lat.append(v_lat)
        scenario.gt.append(gt)
    ids = scenario.id[first:]
    if len(set(ids)) < len(ids):
        seen = set()
        repeat = next(i for i in ids if i in seen or seen.add(i))
        raise ScenarioFormatError(f"duplicate object id {repeat!r}")

    bounds = None
    if "bounds" in frame:
        entries = frame["bounds"]
        if type(entries) is not list or len(entries) != 4:
            raise ScenarioFormatError("'bounds' must list exactly 4 entries")
        bounds = []
        for entry in entries:
            _check_keys(entry, "bounds entry")
            bounds.append(GaussianScalar(_number(entry, "mu", "bounds entry"),
                                         _number(entry, "sigma", "bounds entry")))
        bounds = BoundarySet(tuple(bounds))
    var_v = _variance(host, "var_v", "host")
    var_yaw = _variance(host, "var_yaw", "host")
    scenario.frame_of += [len(scenario.t)] * (len(scenario.id) - first)
    scenario.t.append(t)
    scenario.v.append(v)
    scenario.yaw_rate.append(yaw_rate)
    scenario.alpha.append(alpha)
    scenario.var_v.append(var_v)
    scenario.var_yaw.append(var_yaw)
    scenario.bounds.append(bounds)


def parse_scenario(stream: str | Iterable[str]) -> Scenario:
    """Parse a JSON-lines scenario; blank lines are ignored.

    Raises ScenarioFormatError naming the offending field and 1-based line
    number on any schema violation, and on non-increasing timestamps.  A
    UnicodeDecodeError of the stream is reported at the line it was
    reading.  Text is split into lines as a file read with universal
    newlines is, at "\\n", "\\r" and "\\r\\n" only, and a line's terminator
    is dropped before it is decoded, so text, a file and a list of lines
    give the same message.  Lines are read and checked one at a time, and
    no line after the first that fails is read.
    """
    if isinstance(stream, str):
        stream = stream.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    scenario = Scenario()
    line_no = 0
    try:
        for line_no, raw in enumerate(stream, start=1):
            if raw.strip():
                _parse_line(raw.rstrip("\r\n"), scenario)
    except UnicodeDecodeError as exc:  # the stream's, reading the next line
        raise ScenarioFormatError(f"line {line_no + 1}: invalid UTF-8: {exc}") from exc
    except (ScenarioFormatError, InputDomainError) as exc:
        raise ScenarioFormatError(f"line {line_no}: {exc}") from exc
    return scenario


def _utf8_lines(handle: TextIO) -> Iterator[str]:
    """The lines of a file opened with errors="surrogateescape", each decoded
    on its own: a line that is not UTF-8 raises the UnicodeDecodeError of
    its bytes."""
    for raw in handle:
        if not raw.isascii():
            raw.encode("utf-8", "surrogateescape").decode("utf-8")
        yield raw


def load_scenario(path: str) -> Scenario:
    """`parse_scenario` over a file; its errors name the file too."""
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        try:
            return parse_scenario(_utf8_lines(handle))
        except ScenarioFormatError as exc:
            raise ScenarioFormatError(f"{path}: {exc}") from exc


def _record(kind: str, values: Iterable) -> dict:
    """A record of `kind` with `values` in the order of its fields, leaving
    out those that are None."""
    return {field: value for field, value in zip(_FIELDS[kind], values) if value is not None}


def write_scenario(scenario: Scenario, out: TextIO) -> None:
    """Write a scenario as scenario lines, which `parse_scenario` reads back.
    Numpy scalars are written as their Python values."""
    objects = [[] for _ in scenario.t]
    for frame_index, *values in zip(
        scenario.frame_of, *(getattr(scenario, name) for name in _FIELDS["object"])
    ):
        objects[frame_index].append(_record("object", values))
    for t, bounds, frame_objects, *host in zip(
        scenario.t, scenario.bounds, objects,
        *(getattr(scenario, name) for name in _FIELDS["host"]),
    ):
        if bounds is not None:
            bounds = [_record("bounds entry", (b.mean, b.std)) for b in bounds.boundaries]
        frame = (t, _record("host", host), frame_objects, bounds)
        out.write(json.dumps(_record("frame", frame), default=np.generic.item) + "\n")


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

# Most frames one synthetic scenario may have: about 14 h at 50 ms.
MAX_SYNTH_FRAMES = 10**6

# The shape of every synthetic scenario.  The host drives at HOST_SPEED
# (m/s); objects lie at multiples of OBJECT_RANGE (m) along the path.  The
# lane change (or cut-in) ramp starts at duration / 2 and takes
# CHANGE_DURATION seconds.  host_curve turns left on CURVE_RADIUS (m), and
# noisy_yaw adds a yaw flap of YAW_AMPLITUDE (rad/s) at YAW_FREQUENCY (Hz).
HOST_SPEED = 25.0
OBJECT_RANGE = 50.0
CHANGE_DURATION = 3.0
CURVE_RADIUS = 500.0
YAW_AMPLITUDE = 0.03
YAW_FREQUENCY = 0.25
# Measurement noise (standard deviations) of x, y, speed and yaw rate at
# noise scale 1.
NOISE_LEVELS = (("sigma_x", 0.2), ("sigma_y", 0.2), ("sigma_v", 0.3), ("sigma_yaw", 0.005))


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of one synthetic scenario.

    noise_scale multiplies every measurement noise level; 0 gives exact
    measurements.  Every other value of the scene is a module constant.
    """

    kind: str
    duration: float = 20.0
    step: float = 0.05
    seed: int = 0
    noise_scale: float = 1.0


def _frame_times(n_frames: int, step: float) -> list:
    """`[round(k * step, 9) for k in range(n_frames)]`, rounded by numpy
    wherever that gives the same floats.

    round() takes the correctly rounded 9-decimal digits of k * step and
    converts them back to the nearest double.  Where k * step * 1e9 lies
    below 2**52 and clearly short of a half-way point, `rint` of it finds the
    same digits, and dividing them by 1e9 (both exact) rounds their value to
    the nearest double, as the conversion does.  Other entries call round().
    """
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.arange(n_frames) * step * 1e9
        digits = np.rint(scaled)
        sure = np.abs(scaled - digits) < 0.5 - np.abs(scaled) * 2.0**-52
    times = (digits / 1e9).tolist()
    for k in np.flatnonzero(~(sure & (np.abs(scaled) < 2.0**52))).tolist():
        times[k] = round(k * step, 9)
    return times


def generate_synthetic(spec: SynthSpec) -> Scenario:
    """Deterministically generate one synthetic scenario.

    Kinds:
      straight_follow    lead in the host lane plus a neighbor one lane left
      adjacent_lane      objects one lane left and right, never in the host lane
      target_lane_change object ramps from the host lane into the left lane
      host_curve         constant-radius left curve, objects placed on the arc
      noisy_yaw          straight road with an oscillating yaw-rate corruption;
                         a cut-in object merges into the host lane and a far
                         object holds the left lane

    The lanes are `DEFAULT_BOUNDS`, which every frame carries.
    Ground truth indices come from the construction's true lateral offsets,
    never from the noisy measurements.  The yaw flap's mean-square power is
    included in the reported yaw variance, so the downstream uncertainty
    budget is honest.  The scenario is built on whole-scenario arrays.
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
    # Compared before rounding, which overflows on an infinite quotient.
    if spec.duration / spec.step > MAX_SYNTH_FRAMES + 0.5:
        raise InputDomainError(
            f"step {spec.step} over duration {spec.duration} gives more than "
            f"{MAX_SYNTH_FRAMES} frames"
        )
    sigma_x, sigma_y, sigma_v, sigma_yaw = sigmas = [
        level * spec.noise_scale for _, level in NOISE_LEVELS
    ]
    for (name, _), sigma in zip(NOISE_LEVELS, sigmas):
        # NaN fails the comparison; inf and overflowing levels the square.
        if not (sigma >= 0.0 and math.isfinite(sigma * sigma)):
            raise InputDomainError(
                f"noise level {name} must be >= 0 with a finite square, got {sigma}"
            )
    phase_rate = 2.0 * math.pi * YAW_FREQUENCY
    if not math.isfinite(phase_rate * spec.duration):
        raise InputDomainError(
            f"duration must give the yaw flap a finite phase, got {spec.duration}"
        )
    _check_count("seed", spec.seed, 0)

    rng = np.random.default_rng(spec.seed)
    n_frames = int(round(spec.duration / spec.step))
    t = _frame_times(n_frames, spec.step)
    times = np.array(t)
    if not (np.diff(times) > 0.0).all():
        raise InputDomainError(
            f"step {spec.step} is below the timestamp resolution: the frame "
            "times, rounded to 9 decimals, must strictly increase"
        )
    # The region edges are the lane markings; the objects keep to the
    # middle of a lane, or ramp from one middle to the next.
    edges = [b.mean for b in DEFAULT_BOUNDS.boundaries]
    width = edges[2] - edges[1]

    # Over the change, the lane changer's offset goes linearly from 0 to one
    # lane width, and the cut-in's from one lane width to 0.
    change_start = spec.duration / 2.0
    moving = (change_start < times) & (times < change_start + CHANGE_DURATION)
    crossed = np.where(times <= change_start, 0.0, width)
    crossed[moving] = width * (times[moving] - change_start) / CHANGE_DURATION

    # (id, arc length, path offset) of each object.
    r = OBJECT_RANGE
    v_lat = None
    yaw_true = yaw_extra = var_yaw_extra = 0.0
    if spec.kind == "straight_follow":
        objects = [("lead", r, 0.0), ("neighbor", 0.6 * r, width)]
    elif spec.kind == "adjacent_lane":
        objects = [("left", 0.8 * r, width), ("right", 1.2 * r, -width)]
    elif spec.kind == "target_lane_change":
        objects = [("changer", r, crossed)]
        v_lat = [width / CHANGE_DURATION if m else 0.0 for m in moving.tolist()]
    elif spec.kind == "host_curve":
        yaw_true = HOST_SPEED / CURVE_RADIUS
        objects = [("lead", r, 0.0), ("adjacent", 0.8 * r, -width)]
    else:  # noisy_yaw
        objects = [("cutin", 0.8 * r, width - crossed), ("far", 1.6 * r, width)]
        # A deterministic corruption on the measured yaw rate.
        yaw_extra = np.array([YAW_AMPLITUDE * math.sin(phase_rate * tk) for tk in t])
        var_yaw_extra = YAW_AMPLITUDE**2 / 2.0
    ids, along, offsets = zip(*objects)
    x = np.array(along)
    y = lateral = np.column_stack([np.broadcast_to(o, n_frames) for o in offsets])
    if spec.kind == "host_curve":
        # On the curve the path-relative construction is the ground-truth
        # oracle.
        phi = (x / CURVE_RADIUS).tolist()
        x = (CURVE_RADIUS - lateral) * [math.sin(angle) for angle in phi]
        y = CURVE_RADIUS - (CURVE_RADIUS - lateral) * [math.cos(angle) for angle in phi]

    # All the scenario's noise in one draw, in the order of one draw per
    # value: x and y of each object, then the host's v and yaw rate, frame
    # by frame.  Row k holds frame k.
    scales = [sigma_x, sigma_y] * len(ids) + [sigma_v, sigma_yaw]
    draws = rng.normal(0.0, np.tile(scales, n_frames)).reshape(n_frames, -1)
    x = np.maximum(x + draws[:, 0:-2:2], 0.01).ravel()
    y = (y + draws[:, 1:-2:2]).ravel()
    speed = np.maximum(HOST_SPEED + draws[:, -2], 0.0)
    yaw = yaw_true + yaw_extra + draws[:, -1]
    n = len(ids) * n_frames
    return Scenario(
        t=t,
        v=speed.tolist(),
        yaw_rate=yaw.tolist(),
        alpha=[0.0] * n_frames,
        var_v=[sigma_v**2] * n_frames,
        var_yaw=[sigma_yaw**2 + var_yaw_extra] * n_frames,
        bounds=[DEFAULT_BOUNDS] * n_frames,
        frame_of=np.repeat(np.arange(n_frames), len(ids)).tolist(),
        id=list(ids) * n_frames,
        x=x.tolist(),
        y=y.tolist(),
        var_x=[sigma_x**2] * n,
        var_y=[sigma_y**2] * n,
        v_lat=[None] * n if v_lat is None else v_lat,
        # A value exactly on an edge stays in the lower region, so the truth
        # flips on the first strict crossing.
        gt=np.searchsorted(edges, lateral, side="left").ravel().tolist(),
    )


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineConfig:
    """Configuration shared by both methods; each method reads its own knobs."""

    epsilon: float = 0.05
    eta_gain: float = 0.05
    sigma_nu: float = 0.1
    p_min: float = DEFAULT_P_MIN


def run_pipeline(
    scenario: Scenario,
    method: str = "discrete",
    config: PipelineConfig = PipelineConfig(),
) -> RunResult:
    """Run one filter method over a scenario.

    Per object: transform the measurement into a path-offset Gaussian, step
    that object's filter (created on first sight, dropped after
    `_engine.ABSENCE_TIMEOUT` = 1 s without detections), and assign by the
    gated median.  Objects are independent; their order within a frame does
    not affect any per-object output.  A ValueError names the out-of-range
    setting, or else the earliest frame that fails.
    """
    return filter_batch([scenario], method, config)[0]


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


def _path_indices(values: Sequence) -> np.ndarray | None:
    """`values` as an array, or None unless each is a Python or numpy
    integer (not a bool) in 0..N_PATHS - 1."""
    if all(issubclass(kind, (int, np.integer)) and kind is not bool
           for kind in set(map(type, values))):
        truth = np.array(values)
        if ((truth >= 0) & (truth < N_PATHS)).all():
            return truth
    return None


def compute_roc(result: RunResult, parameter_label: str = "") -> RocPoint:
    """Host-lane TP/FP rates at object-frame granularity.

    TP rate: of the object-frames truly on the host path, the fraction with
    an accepted host-path assignment.  FP rate: of the object-frames truly
    elsewhere, the fraction with an accepted host-path assignment.  Rejected
    assignments count as non-assignments on both sides.  Every ground truth
    must be an integer path index; the error names the first that is not.
    """
    return _roc_point(_on_host(result), result, parameter_label)


def _on_host(result: RunResult, sizes: Sequence[int] = ()) -> np.ndarray:
    """(N,) whether each object-frame of `result` truly lies on the host
    path; raises an InputDomainError naming the first ground truth that is
    not an integer path index.  `sizes` gives the object-frames of each
    pooled scenario (none: one scenario), and the error holds the index of
    the one at fault as its `scenario`, as the engine's errors do."""
    truth = _path_indices(result.ground_truth)
    if truth is None:
        k, gt = next((k, gt) for k, gt in enumerate(result.ground_truth)
                     if _path_indices([gt]) is None)
        fault = " has no ground truth" if gt is None else (
            f": ground truth must be an integer in 0..{N_PATHS - 1}, got {gt!r}")
        error = InputDomainError(f"object {result.object_id[k]!r} at t={result.t[k]}{fault}")
        raise _in_scenario(error, np.searchsorted(np.cumsum(sizes), k, side="right"))
    return truth == HOST_PATH_INDEX


def _roc_point(on_host: np.ndarray, result: RunResult, parameter_label: str) -> RocPoint:
    """`compute_roc` of `result`, given its `_on_host` mask."""
    assigned_host = result.accepted & (result.index == HOST_PATH_INDEX)
    tp_total = int(on_host.sum())
    fp_total = len(on_host) - tp_total
    tp_hits = int((assigned_host & on_host).sum())
    fp_hits = int((assigned_host & ~on_host).sum())
    tp_rate = tp_hits / tp_total if tp_total else None
    fp_rate = fp_hits / fp_total if fp_total else None
    return RocPoint(parameter_label, tp_rate, fp_rate, tp_total + fp_total)


EPSILON_GRID = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
SIGMA_NU_GRID = tuple(float(s) for s in np.geomspace(0.04, 0.4, 6))
# A sweep runs without the lateral-velocity drift, so that the swept
# parameter is the only thing that changes the transition model.
SWEEP_CONFIG = PipelineConfig(eta_gain=0.0)


def sweep_parameters(
    scenarios: Sequence[Scenario],
    method: str,
    grid: Sequence[float] | None = None,
    config: PipelineConfig = SWEEP_CONFIG,
) -> list[RocPoint]:
    """One RocPoint per grid value, pooling results over all given scenarios.

    Each scenario is filtered independently (fresh state); results are
    pooled per grid value.  The swept parameter is epsilon for the discrete
    method and sigma_nu for the continuous one; the default grids cover six
    decades of epsilon and 0.04..0.4 m/s of sigma_nu.  `config` gives the
    other settings, `SWEEP_CONFIG` by default.
    """
    parameter = "epsilon" if method == "discrete" else "sigma_nu"
    if grid is None:
        grid = EPSILON_GRID if method == "discrete" else SIGMA_NU_GRID
    grid = [float(value) for value in grid]
    scenarios = list(scenarios)
    results = filter_batch(scenarios, method, config, grid)
    # The results share one ground-truth list, checked once.
    on_host = _on_host(results[0], [len(scenario.id) for scenario in scenarios])
    # Distinct values that share a `:g` label are labelled by their repr.
    shared = Counter(f"{value:g}" for value in set(grid))
    labels = [repr(value) if shared[f"{value:g}"] > 1 else f"{value:g}" for value in grid]
    return [
        _roc_point(on_host, result, f"{parameter}={label}")
        for result, label in zip(results, labels)
    ]


def build_suite(
    kinds: Sequence[str] = SCENARIO_KINDS,
    seed: int = SynthSpec.seed,
    step: float = SynthSpec.step,
) -> dict[str, Scenario]:
    """The bundled synthetic suite: one scenario per kind, with the spec's
    defaults, except 30 s of `noisy_yaw`."""
    return {
        kind: generate_synthetic(
            SynthSpec(kind, 30.0 if kind == "noisy_yaw" else SynthSpec.duration, step, seed)
        )
        for kind in kinds
    }


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

RUN_CSV_COLUMNS = (
    "t", "object_id", "method", "assigned", "prob", "p0", "p1", "p2", "p3", "p4",
)
ROC_CSV_COLUMNS = ("param", "tp_rate", "fp_rate", "frames")


def write_run_csv(result: RunResult, out: TextIO) -> None:
    """Per-object-frame results; `assigned` is empty on rejected assignments.

    The bytes are those of `csv.writer(out, lineterminator="\n")`.  Rows go
    out `WRITE_BLOCK` at a time, as the `repr`s of their floats joined into
    lines; a block with an id that is no plain string, or that holds a
    character the writer may quote, goes through `csv.writer` itself.
    The `prob` cell is the row's p cell at `index`, which `probability`
    equals on every result `run_pipeline` returns.
    """
    out.write(",".join(RUN_CSV_COLUMNS) + "\n")
    for start in range(0, len(result), WRITE_BLOCK):
        rows = slice(start, start + WRITE_BLOCK)
        ids = result.object_id[rows]
        assigned = [
            str(i) if a else ""
            for i, a in zip(result.index[rows].tolist(), result.accepted[rows].tolist())
        ]
        columns = [list(map(repr, p)) for p in result.posteriors[rows].T.tolist()]
        lines = zip(
            list(map(repr, map(float, result.t[rows]))), ids,
            itertools.repeat(result.method), assigned,
            [columns[i][k] for k, i in enumerate(result.index[rows].tolist())],
            *columns,
        )
        if set(map(type, ids)) <= {str} and not any(c in "".join(ids) for c in ',"\r\n'):
            out.write("\n".join(map(",".join, lines)) + "\n")
        else:
            csv.writer(out, lineterminator="\n").writerows(lines)


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
