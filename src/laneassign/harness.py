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

The format is one table, `_CHECKS`, with a row per check in the order in
which a line is checked; `write_scenario` takes its field names from it.
The parser decodes `PARSE_BLOCK` lines at a time and applies each row to a
whole column of the block.  Where checks fail, the error is the first that
a line-by-line parser would raise: that of the first failing line, with
its objects and bounds entries taken one at a time.  `write_run_csv` writes
`WRITE_BLOCK` rows at a time, each column's `repr`s joined into lines.  The
blocks bound the records and strings alive at once.
"""

from __future__ import annotations

import bisect
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

# Lines checked at a time, and rows written at a time: a block bounds the
# decoded records, and the cell strings, alive at once.
PARSE_BLOCK = 64
WRITE_BLOCK = 256

# An optional field that a record leaves out.
_ABSENT = object()


def _float(value) -> float:
    """A JSON number as a float.  An integer beyond the float range reads as
    the float literal 1e400 does, as an infinity, which the domains reject."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


# Value types: the Python types that a field's JSON value may have, the
# conversion of such a value, the stand-in for a value of another type, and
# the message for one (None: the message of the row).
_NUMBER = ((float, int), _float, math.nan, "field {field!r} in {kind} must be a number")
_STRING = ((str, int), str, "", "field {field!r} must be a string")
_INTEGER = ((int,), int, None, None)
_LIST = ((list,), list, [], None)
_RECORD = ((dict,), dict, {}, None)
_PATH_INDICES = frozenset([None, *range(N_PATHS)])
# The domain test and the message of a variance.
_VARIANCE = (lambda b, var: ~((0.0 <= var) & (var < math.inf)),
             "field {field!r} in {kind} must be finite and >= 0")


def _outside_host_state(block, _) -> np.ndarray:
    v, yaw_rate, alpha = (block.arrays[f] for f in ("v", "yaw_rate", "alpha"))
    return ~((0.0 <= v) & (v < math.inf) & np.isfinite(yaw_rate) & (np.abs(alpha) < math.pi / 2))


def _outside_object_measurement(block, _) -> np.ndarray:
    x, y, v_lat = (block.arrays[f] for f in ("x", "y", "v_lat"))
    lateral = np.isfinite(v_lat)
    if not lateral.all():  # NaN where v_lat is absent, which is inside the domain
        lateral |= [u is None for u in block.values["v_lat"]]
    return ~((0.0 < x) & (x < math.inf) & np.isfinite(y) & lateral)


def _first_repeat(block, k) -> str:
    seen = set()
    repeat = next(i for i in block.split("id")[k] if i in seen or seen.add(i))
    return f"duplicate object id {repeat!r}"


# The checks of the scenario format, in the order in which a line is checked.
# A row gives the kind of record, the field, whether the field is required,
# its value type (None where an earlier row converted the field), its domain
# test and the message where the test fails.  A test takes the block and the
# field's column, an array of floats for a number, and gives the mask of the
# kind's records that fail.  A message is a template over the field and the
# kind, or a function of the block and the record that words it, calling the
# constructor that words the error where there is one.  A kind's keys are
# checked at its first row.
_CHECKS = (
    ("frame", "t", True, _NUMBER, lambda b, t: t <= [b.last_t, *b.values["t"][:-1]],
     lambda b, k: "timestamps must strictly increase ({} after {})".format(
         b.values["t"][k], [b.last_t, *b.values["t"]][k])),
    ("frame", "host", True, _RECORD, None, "host must be an object"),
    ("host", "alpha", False, _NUMBER, None, None),
    ("host", "v", True, _NUMBER, None, None),
    ("host", "yaw_rate", True, _NUMBER, _outside_host_state,
     lambda b, k: HostState(*b.at(k, "v", "yaw_rate", "alpha"))),
    ("frame", "t", True, None, lambda b, t: ~np.isfinite(t),
     lambda b, k: f"timestamp must be finite, got {b.values['t'][k]}"),
    ("frame", "objects", True, _LIST, None, "'objects' must be a list"),
    ("object", "id", True, _STRING,
     lambda b, ids: "\r" in "".join(ids) and ["\r" in i for i in ids],
     "field 'id' must not hold a carriage return"),
    ("object", "v_lat", False, _NUMBER, None, None),
    ("object", "gt", False, _INTEGER,
     lambda b, gt: not set(gt) <= _PATH_INDICES and [g not in _PATH_INDICES for g in gt],
     f"field 'gt' must be an integer in 0..{N_PATHS - 1}"),
    ("object", "x", True, _NUMBER, None, None),
    ("object", "y", True, _NUMBER, _outside_object_measurement,
     lambda b, k: ObjectMeasurement(*b.at(k, "x", "y", "v_lat"))),
    ("object", "var_x", True, _NUMBER, *_VARIANCE),
    ("object", "var_y", True, _NUMBER, *_VARIANCE),
    ("frame", "objects", True, None,
     lambda b, _: [len(set(ids)) < len(ids) for ids in b.split("id")], _first_repeat),
    ("frame", "bounds", False, _LIST,
     lambda b, bounds: [e is not None and len(e) != 4 for e in bounds],
     "'bounds' must list exactly 4 entries"),
    ("bounds entry", "mu", True, _NUMBER, None, None),
    ("bounds entry", "sigma", True, _NUMBER, lambda b, sigma: ~(
        np.isfinite(b.arrays["mu"]) & np.isfinite(sigma) & (sigma >= 0.0)),
     lambda b, k: GaussianScalar(*b.at(k, "mu", "sigma"))),
    ("frame", "bounds", False, None,
     lambda b, _: [len(m) == 4 and not m[0] < m[1] < m[2] < m[3] for m in b.split("mu")],
     lambda b, k: BoundarySet(tuple(map(GaussianScalar, b.split("mu")[k],
                                        b.split("sigma")[k])))),
    ("host", "var_v", True, _NUMBER, *_VARIANCE),
    ("host", "var_yaw", True, _NUMBER, *_VARIANCE),
)
# Each kind's fields (name -> required), the required ones first; the
# writer writes them in this order.  An absent optional field reads as None,
# the heading offset as HostState's default, 0.
_FIELDS = {
    kind: {name: required for of, name, required, value_type, *_ in
           sorted(_CHECKS, key=lambda row: not row[2]) if of == kind and value_type}
    for kind in dict.fromkeys(row[0] for row in _CHECKS)
}
_DEFAULTS = {"alpha": 0.0}
# Rows in a run of one kind: a frame's records of that kind pass through the
# run one record at a time.
_RUNS = list(itertools.accumulate(
    (a[0] != b[0] for a, b in zip(_CHECKS, _CHECKS[1:])), initial=0))
# The frame field that holds a kind's records: one record, a list of them, or
# None where it is absent.
_HELD_IN = {"host": "host", "object": "objects", "bounds entry": "bounds"}


def _typed(column: list, value_type: tuple, absent) -> tuple[list, list | None]:
    """The values of `column` converted to `value_type`, `absent` where a
    record leaves the field out, with the mask of the values of another
    type, or None where there is none."""
    accepted, convert, stand_in, _ = value_type
    if set(map(type, column)) <= {accepted[0]}:
        return column, None
    bad = [type(value) not in accepted and value is not _ABSENT for value in column]
    return [absent if value is _ABSENT else stand_in if wrong else convert(value)
            for value, wrong in zip(column, bad)], bad


def _columns(records: list, fields: dict) -> tuple[dict, list | None]:
    """The fields of `records` column by column, `_ABSENT` where a record
    leaves one out, with the mask of the records that are no object or
    whose keys are not the kind's, or None where there is none."""
    if set(map(type, records)) <= {dict}:
        columns, held, complete = {}, 0, True
        for key, required in fields.items():
            try:
                columns[key] = [record[key] for record in records]
                held += len(records)
            except KeyError:
                columns[key] = column = [record.get(key, _ABSENT) for record in records]
                held += len(records) - column.count(_ABSENT)
                complete = complete and not required
        # Every key a record holds is one of the fields counted.
        if complete and sum(map(len, records)) == held:
            return columns, None
    required = {key for key, needed in fields.items() if needed}
    bad = [type(r) is not dict or not required <= r.keys() <= fields.keys() for r in records]
    records = [r if type(r) is dict else {} for r in records]
    return {key: [r.get(key, _ABSENT) for r in records] for key in fields}, bad


def _keys_message(record, fields: dict, kind: str) -> str:
    if type(record) is not dict:
        return f"{kind} must be an object"
    for key in record:
        if key not in fields:
            return f"unknown field {key!r} in {kind}"
    missing = next(key for key, needed in fields.items() if needed and key not in record)
    return f"missing field {missing!r} in {kind}"


class _Block:
    """The frame records of one block as the rows of `_CHECKS` see them:
    per kind, the records, and per field, its column over the records of
    its kind (and as an array of floats for a number, NaN where absent) and
    the index of each frame's first record."""

    def __init__(self, frames: list, last_t: float):
        self.frames = frames
        self.last_t = last_t  # the time of the frame before the block, NaN if none
        self.records, self.offsets, self.values, self.arrays = {}, {}, {}, {}

    def add(self, kind: str) -> list | None:
        """Take the records of `kind` and their fields; returns the mask of
        the records that are no object or whose keys are not the kind's."""
        held = [[r] for r in self.frames] if kind == "frame" else self.values[_HELD_IN[kind]]
        lists = [h if type(h) is list else [] if h is None else [h] for h in held]
        self.records[kind] = list(itertools.chain.from_iterable(lists))
        offsets = [0, *itertools.accumulate(map(len, lists))]
        self.offsets.update(dict.fromkeys(_FIELDS[kind], offsets))
        columns, bad = _columns(self.records[kind], _FIELDS[kind])
        self.values.update(columns)
        return bad

    def split(self, field: str) -> list:
        """The values of `field`, frame by frame."""
        offsets, values = self.offsets[field], self.values[field]
        return [values[i:j] for i, j in zip(offsets, offsets[1:])]

    def at(self, k: int, *fields: str) -> list:
        return [self.values[field][k] for field in fields]


def _check(frames: list, last_t: float) -> tuple[_Block, tuple | None]:
    """Apply `_CHECKS` to the decoded frame records of one block, each row
    to a whole column.  Returns the block, with None where every check
    passes, else the index of the frame that fails, the message and the
    constructor's error that words it (or None).  The check that fails is
    the first by frame, then by row, where the records of a kind pass
    through each run of its rows one record at a time."""
    block, failures = _Block(frames, last_t), []

    def note(bad, row, stage):
        if bad is not None and np.any(bad):
            k = int(np.argmax(bad))
            offsets = block.offsets[_CHECKS[row][1]]
            frame = bisect.bisect_right(offsets, k) - 1
            failures.append(((frame, _RUNS[row], k - offsets[frame], row, stage), k))

    for row, (kind, field, required, value_type, test, _) in enumerate(_CHECKS):
        if kind not in block.records:
            note(block.add(kind), row, 0)
        if value_type is not None:
            absent = value_type[2] if required else _DEFAULTS.get(field)
            block.values[field], bad = _typed(block.values[field], value_type, absent)
            if value_type is _NUMBER:
                block.arrays[field] = np.array(block.values[field], dtype=float)
            note(bad, row, 1)
        if test is not None:
            note(test(block, block.arrays.get(field, block.values[field])), row, 2)
    if not failures:
        return block, None
    (frame, *_, row, stage), k = min(failures)
    kind, field, _, value_type, _, message = _CHECKS[row]
    if stage == 0:
        return block, (frame, _keys_message(block.records[kind][k], _FIELDS[kind], kind), None)
    if stage == 1:
        message = value_type[3] or message
    if isinstance(message, str):
        return block, (frame, message.format(field=field, kind=kind), None)
    try:
        return block, (frame, message(block, k), None)
    except InputDomainError as exc:
        return block, (frame, str(exc), exc)


def _extend(scenario: Scenario, block: _Block) -> None:
    """Append the checked records of a block to the scenario's columns."""
    first = len(scenario.t)
    scenario.frame_of += np.repeat(
        np.arange(first, first + len(block.frames)), np.diff(block.offsets["id"])
    ).tolist()
    for name in ("t", *_FIELDS["host"], *_FIELDS["object"]):
        getattr(scenario, name).extend(block.values[name])
    scenario.bounds += [
        None if entries is None else BoundarySet(tuple(map(GaussianScalar, mu, sigma)))
        for entries, mu, sigma in zip(
            block.values["bounds"], block.split("mu"), block.split("sigma"))
    ]


def _parse_lines(lines: list, first: int, scenario: Scenario, unreadable=None) -> None:
    """Check and append the lines of one block, numbered from `first`.
    `unreadable` is the UnicodeDecodeError of the line after them, if the
    stream could not decode it.  The one place that adds a line number to
    an error."""
    frames, numbers, fault = [], [], None
    for line_no, raw in enumerate(lines, start=first):
        if not raw.strip():
            continue
        try:
            frames.append(json.loads(raw))
        except (ValueError, RecursionError) as exc:
            # Besides syntax errors (JSONDecodeError): integers longer than
            # the interpreter converts, and nesting deeper than it recurses.
            fault = line_no, f"invalid JSON: {exc}", exc
            break
        numbers.append(line_no)
    if unreadable is not None and fault is None:
        fault = first + len(lines), f"invalid UTF-8: {unreadable}", unreadable
    block, failed = _check(frames, scenario.t[-1] if scenario.t else math.nan)
    if failed is not None:
        fault = numbers[failed[0]], *failed[1:]
    if fault is not None:
        line_no, message, cause = fault
        raise ScenarioFormatError(f"line {line_no}: {message}") from cause
    _extend(scenario, block)


def parse_scenario(stream: str | Iterable[str]) -> Scenario:
    """Parse a JSON-lines scenario; blank lines are ignored.

    Raises ScenarioFormatError naming the offending field and 1-based line
    number on any schema violation, and on non-increasing timestamps.  A
    UnicodeDecodeError of the stream is reported at the line it was
    reading.  Text is split into lines as a file read with universal
    newlines is, at "\\n", "\\r" and "\\r\\n" only.  Lines are read and
    checked `PARSE_BLOCK` at a time.
    """
    if isinstance(stream, str):
        stream = stream.replace("\r\n", "\n").replace("\r", "\n").split("\n")
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


def _record(kind: str, values: Iterable) -> dict:
    """A record of `kind` with `values` in the order of its fields, leaving
    out those that are None."""
    return {field: value for field, value in zip(_FIELDS[kind], values) if value is not None}


def write_scenario(scenario: Scenario, out: TextIO) -> None:
    """Write a scenario as scenario lines, which `parse_scenario` reads back."""
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
        out.write(json.dumps(_record("frame", frame)) + "\n")


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
