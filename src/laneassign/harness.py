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

The parser decodes `PARSE_BLOCK` lines at a time and checks the block by
column: one type test per record kind and per field, one count of the keys
per record kind, one array test per number column and one set per frame for
the ids.  A block that passes extends the columns; a block that fails is walked
again line by line, from the state the earlier blocks left, so that the
first failing line raises its own message.  `write_run_csv` writes
`WRITE_BLOCK` rows at a time, each column's `repr`s joined into lines.  The
blocks bound the records and strings alive at once.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from ._engine import METHODS, RunResult, filter_batch
from .estimator import DEFAULT_P_MIN
from .geometry import GaussianScalar, HostState, InputDomainError, ObjectMeasurement
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
    `HostState` and each object's in that of `ObjectMeasurement`.  The
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


def _check_keys(record: dict, schema: tuple, where: str) -> None:
    fields, allowed, required = schema
    if not isinstance(record, dict):
        raise ScenarioFormatError(f"{where} must be an object")
    if required <= record.keys() <= allowed:
        return
    for key in record:
        if key not in fields:
            raise ScenarioFormatError(f"unknown field {key!r} in {where}")
    for key, needed in fields.items():
        if needed and key not in record:
            raise ScenarioFormatError(f"missing field {key!r} in {where}")


def _number(record: dict, key: str, where: str) -> float:
    value = record[key]
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioFormatError(f"field {key!r} in {where} must be a number")
    try:
        return float(value)
    except OverflowError:
        # An integer beyond the float range reads as the float literal 1e400
        # does, as an infinity, which the domain checks reject.
        return math.inf if value > 0 else -math.inf


def _variance(record: dict, key: str, where: str) -> float:
    value = _number(record, key, where)
    if not math.isfinite(value) or value < 0.0:
        raise ScenarioFormatError(f"field {key!r} in {where} must be finite and >= 0")
    return value


def _parse_object(record: dict, scenario: Scenario) -> None:
    """Check one object record and append it to the object-frame columns."""
    _check_keys(record, _OBJECT_KEYS, "object")
    object_id = record["id"]
    if isinstance(object_id, bool) or not isinstance(object_id, (str, int)):
        raise ScenarioFormatError("field 'id' must be a string")
    v_lat = _number(record, "v_lat", "object") if "v_lat" in record else None
    gt = None
    if "gt" in record:
        gt = record["gt"]
        if isinstance(gt, bool) or not isinstance(gt, int) or not 0 <= gt < N_PATHS:
            raise ScenarioFormatError(f"field 'gt' must be an integer in 0..{N_PATHS - 1}")
    x = _number(record, "x", "object")
    y = _number(record, "y", "object")
    if not (0.0 < x < math.inf and math.isfinite(y)) or (
        v_lat is not None and not math.isfinite(v_lat)
    ):
        # ObjectMeasurement's domain, checked without building one; where
        # it fails, the constructor words the error.
        ObjectMeasurement(x, y, v_lat)
    var_x = _variance(record, "var_x", "object")
    var_y = _variance(record, "var_y", "object")
    scenario.id.append(str(object_id))
    scenario.x.append(x)
    scenario.y.append(y)
    scenario.var_x.append(var_x)
    scenario.var_y.append(var_y)
    scenario.v_lat.append(v_lat)
    scenario.gt.append(gt)


def _parse_bounds(records: list) -> BoundarySet:
    if not isinstance(records, list) or len(records) != 4:
        raise ScenarioFormatError("'bounds' must list exactly 4 entries")
    parsed = []
    for record in records:
        _check_keys(record, _BOUND_KEYS, "bounds entry")
        parsed.append(GaussianScalar(_number(record, "mu", "bounds entry"),
                                     _number(record, "sigma", "bounds entry")))
    return BoundarySet(tuple(parsed))


def _parse_frame(raw: str, scenario: Scenario) -> None:
    """Check one frame line and append it to the columns.  Errors carry no
    line number; `parse_scenario` adds it."""
    try:
        record = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        # Besides syntax errors (JSONDecodeError): integers longer than the
        # interpreter converts, and nesting deeper than it recurses.
        raise ScenarioFormatError(f"invalid JSON: {exc}") from exc
    _check_keys(record, _FRAME_KEYS, "frame")
    t = _number(record, "t", "frame")
    if scenario.t and t <= scenario.t[-1]:
        raise ScenarioFormatError(
            f"timestamps must strictly increase ({t} after {scenario.t[-1]})"
        )

    host_record = record["host"]
    _check_keys(host_record, _HOST_KEYS, "host")
    alpha = _number(host_record, "alpha", "host") if "alpha" in host_record else 0.0
    v = _number(host_record, "v", "host")
    yaw_rate = _number(host_record, "yaw_rate", "host")
    if not (0.0 <= v < math.inf and math.isfinite(yaw_rate)
            and abs(alpha) < math.pi / 2):
        # HostState's domain, checked without building one; where it fails,
        # the constructor words the error.
        HostState(v, yaw_rate, alpha)
    if not math.isfinite(t):
        raise ScenarioFormatError(f"timestamp must be finite, got {t}")

    object_records = record["objects"]
    if not isinstance(object_records, list):
        raise ScenarioFormatError("'objects' must be a list")
    first = len(scenario.id)
    for object_record in object_records:
        _parse_object(object_record, scenario)
    seen_ids = set()
    for object_id in scenario.id[first:]:
        if object_id in seen_ids:
            raise ScenarioFormatError(f"duplicate object id {object_id!r}")
        seen_ids.add(object_id)

    bounds = _parse_bounds(record["bounds"]) if "bounds" in record else None
    var_v = _variance(host_record, "var_v", "host")
    var_yaw = _variance(host_record, "var_yaw", "host")
    frame_index = len(scenario.t)
    scenario.t.append(t)
    scenario.v.append(v)
    scenario.yaw_rate.append(yaw_rate)
    scenario.alpha.append(alpha)
    scenario.var_v.append(var_v)
    scenario.var_yaw.append(var_yaw)
    scenario.bounds.append(bounds)
    scenario.frame_of.extend([frame_index] * (len(scenario.id) - first))


# Lines checked column by column at a time, and rows written at a time: a
# block bounds the decoded records, and the cell strings, alive at once.
PARSE_BLOCK = 64
WRITE_BLOCK = 256

# An optional field that a record leaves out.
_ABSENT = object()
_GT_VALUES = frozenset([*range(N_PATHS), _ABSENT])


def _columns(records: list, schema: tuple) -> dict | None:
    """The fields of `records` column by column, `_ABSENT` where a record
    leaves an optional field out; None unless each record is a dict that
    holds every required field of `schema` and no field it does not know."""
    fields, _, _ = schema
    if not set(map(type, records)) <= {dict}:
        return None
    columns, held = {}, 0
    for key, needed in fields.items():
        try:
            columns[key] = [record[key] for record in records]
            held += len(records)
        except KeyError:
            if needed:
                return None
            columns[key] = column = [record.get(key, _ABSENT) for record in records]
            held += len(records) - column.count(_ABSENT)
    # Every key a record holds is one of the fields counted.
    return columns if sum(map(len, records)) == held else None


def _floats(column: list, absent=None) -> list | None:
    """A column of numbers as floats, `absent` where a value is `_ABSENT`;
    None where a value is no number, or an integer lies beyond the float
    range (which `_number` reads as an infinity, and every field rejects)."""
    kinds = set(map(type, column))
    if kinds <= {float}:
        return column
    if not kinds <= {float, int, object}:  # object: the type of _ABSENT
        return None
    try:
        return [absent if value is _ABSENT else float(value) for value in column]
    except OverflowError:
        return None


def _extend(scenario: Scenario, records: list) -> bool:
    """Check the decoded frame lines of one block column by column and
    append them to the columns.  False, with the scenario unchanged, where
    a check fails.  The checks accept only what `_parse_frame` accepts, and
    give the values it gives."""
    frame = _columns(records, _FRAME_KEYS)
    if frame is None or not set(map(type, frame["objects"])) <= {list}:
        return False
    host = _columns(frame["host"], _HOST_KEYS)
    obj = _columns([o for objects in frame["objects"] for o in objects], _OBJECT_KEYS)
    if host is None or obj is None:
        return False
    floats = {
        "t": _floats(frame["t"]), "v": _floats(host["v"]),
        "yaw_rate": _floats(host["yaw_rate"]), "alpha": _floats(host["alpha"], 0.0),
        "var_v": _floats(host["var_v"]), "var_yaw": _floats(host["var_yaw"]),
        "x": _floats(obj["x"]), "y": _floats(obj["y"]), "var_x": _floats(obj["var_x"]),
        "var_y": _floats(obj["var_y"]), "v_lat": _floats(obj["v_lat"]),
    }
    ids, gt = obj["id"], obj["gt"]
    id_kinds, gt_kinds = set(map(type, ids)), set(map(type, gt))
    if (None in floats.values() or not id_kinds <= {str, int}
            or not gt_kinds <= {int, object} or not set(gt) <= _GT_VALUES):
        return False
    if id_kinds != {str}:
        ids = list(map(str, ids))
    counts = list(map(len, frame["objects"]))
    stop = 0
    for count in counts:
        start, stop = stop, stop + count
        if len(set(ids[start:stop])) < count:
            return False
    t, v, yaw_rate, alpha, var_v, var_yaw = np.array(
        [floats[name] for name in ("t", "v", "yaw_rate", "alpha", "var_v", "var_yaw")]
    )
    x, y, var_x, var_y = np.array([floats[name] for name in ("x", "y", "var_x", "var_y")])
    variances = np.concatenate([var_v, var_yaw, var_x, var_y])
    if not (
        np.isfinite(t).all()
        and (np.diff(t) > 0.0).all()
        and (not len(t) or not scenario.t or t[0] > scenario.t[-1])
        and ((0.0 <= v) & (v < math.inf)).all()
        and np.isfinite(yaw_rate).all()
        and (np.abs(alpha) < math.pi / 2).all()
        and ((0.0 < x) & (x < math.inf)).all()
        and np.isfinite(y).all()
        and ((0.0 <= variances) & (variances < math.inf)).all()
        and np.isfinite([u for u in floats["v_lat"] if u is not None]).all()
    ):
        return False
    try:
        bounds = [None if b is _ABSENT else _parse_bounds(b) for b in frame["bounds"]]
    except (ScenarioFormatError, InputDomainError):
        return False
    first = len(scenario.t)
    scenario.frame_of += itertools.chain.from_iterable(
        map(itertools.repeat, range(first, first + len(counts)), counts)
    )
    for name, column in floats.items():
        getattr(scenario, name).extend(column)
    scenario.bounds += bounds
    scenario.id += ids
    scenario.gt += [None if g is _ABSENT else g for g in gt] if object in gt_kinds else gt
    return True


def _parse_lines(lines: list, first: int, scenario: Scenario, unreadable=None) -> None:
    """Check and append the lines of one block, numbered from `first`:
    column by column where they all pass, else line by line up to the first
    that fails.  `unreadable` is the UnicodeDecodeError of the line after
    them, if the stream could not decode it.  The one place that adds a line
    number to an error."""
    try:
        records = [json.loads(raw) for raw in lines if raw.strip()]
    except (ValueError, RecursionError):
        records = None
    passed = records is not None and _extend(scenario, records)
    for line_no, raw in enumerate([] if passed else lines, start=first):
        if not raw.strip():
            continue
        try:
            _parse_frame(raw, scenario)
        except (ScenarioFormatError, InputDomainError) as exc:
            raise ScenarioFormatError(f"line {line_no}: {exc}") from exc
    if unreadable is not None:
        line_no = first + len(lines)
        raise ScenarioFormatError(f"line {line_no}: invalid UTF-8: {unreadable}") from unreadable


def parse_scenario(stream: str | Iterable[str]) -> Scenario:
    """Parse a JSON-lines scenario; blank lines are ignored.

    Raises ScenarioFormatError naming the offending field and 1-based line
    number on any schema violation, and on non-increasing timestamps.  A
    UnicodeDecodeError of the stream is reported at the line it was
    reading.  Lines are read and checked `PARSE_BLOCK` at a time.
    """
    if isinstance(stream, str):
        stream = stream.splitlines()
    scenario = Scenario()
    lines = iter(stream)
    first = 1
    while True:
        block, unreadable = [], None
        try:
            for raw in itertools.islice(lines, PARSE_BLOCK):
                block.append(raw)
        except UnicodeDecodeError as exc:
            unreadable = exc
        _parse_lines(block, first, scenario, unreadable)
        if len(block) < PARSE_BLOCK:
            return scenario
        first += PARSE_BLOCK


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


def write_scenario(scenario: Scenario, out: TextIO) -> None:
    """Write a scenario as scenario lines, which `parse_scenario` reads back."""
    objects = [[] for _ in scenario.t]
    for frame_index, object_id, x, y, var_x, var_y, v_lat, gt in zip(
        scenario.frame_of, scenario.id, scenario.x, scenario.y, scenario.var_x,
        scenario.var_y, scenario.v_lat, scenario.gt,
    ):
        record = {"id": object_id, "x": x, "y": y, "var_x": var_x, "var_y": var_y}
        if v_lat is not None:
            record["v_lat"] = v_lat
        if gt is not None:
            record["gt"] = gt
        objects[frame_index].append(record)
    for t, v, yaw_rate, var_v, var_yaw, alpha, bounds, frame_objects in zip(
        scenario.t, scenario.v, scenario.yaw_rate, scenario.var_v, scenario.var_yaw,
        scenario.alpha, scenario.bounds, objects,
    ):
        host = {"v": v, "yaw_rate": yaw_rate, "var_v": var_v, "var_yaw": var_yaw,
                "alpha": alpha}
        record = {"t": t, "host": host, "objects": frame_objects}
        if bounds is not None:
            record["bounds"] = [
                {"mu": b.mean, "sigma": b.std} for b in bounds.boundaries
            ]
        out.write(json.dumps(record))
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
    if spec.seed < 0:
        raise InputDomainError(f"seed must be >= 0, got {spec.seed}")

    rng = np.random.default_rng(spec.seed)
    n_frames = int(round(spec.duration / spec.step))
    t = [round(k * spec.step, 9) for k in range(n_frames)]
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
    truth = _path_indices(result.ground_truth)
    if truth is None:
        k, gt = next((k, gt) for k, gt in enumerate(result.ground_truth)
                     if _path_indices([gt]) is None)
        fault = " has no ground truth" if gt is None else (
            f": ground truth must be an integer in 0..{N_PATHS - 1}, got {gt!r}")
        raise InputDomainError(f"object {result.object_id[k]!r} at t={result.t[k]}{fault}")
    on_host = truth == HOST_PATH_INDEX
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
    grid = list(grid)
    results = filter_batch(list(scenarios), method, config, grid)
    return [
        compute_roc(result, f"{parameter}={value:g}")
        for result, value in zip(results, grid)
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
    """
    out.write(",".join(RUN_CSV_COLUMNS) + "\n")
    for start in range(0, len(result), WRITE_BLOCK):
        rows = slice(start, start + WRITE_BLOCK)
        ids = result.object_id[rows]
        assigned = [
            str(i) if a else ""
            for i, a in zip(result.index[rows].tolist(), result.accepted[rows].tolist())
        ]
        lines = zip(
            list(map(repr, map(float, result.t[rows]))), ids,
            itertools.repeat(result.method), assigned,
            list(map(repr, result.probability[rows].tolist())),
            *(list(map(repr, p)) for p in result.posteriors[rows].T.tolist()),
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
