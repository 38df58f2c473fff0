"""Tests for scenario I/O, synthesis, the pipeline, and ROC evaluation."""

import csv
import dataclasses
import importlib.util
import io
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scenario_builder import scenario_of

from laneassign import (
    DEFAULT_BOUNDS,
    HOST_PATH_INDEX,
    BoundarySet,
    GaussianScalar,
    HostState,
    InputDomainError,
    ObjectMeasurement,
    PipelineConfig,
    RunResult,
    Scenario,
    ScenarioFormatError,
    SynthSpec,
    build_suite,
    compute_roc,
    generate_synthetic,
    lane_occupancy,
    load_scenario,
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
    N_PATHS,
    RUN_CSV_COLUMNS,
    SCENARIO_KINDS,
    SIGMA_NU_GRID,
    _frame_times,
)


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
    assert parse_scenario("") == Scenario()
    assert parse_scenario("\n\n") == Scenario()


def test_parse_minimal_frame():
    scenario = parse_scenario(as_stream(minimal_frame_dict()))
    assert len(scenario) == 1
    assert scenario.t == [0.0]
    assert scenario.v == [25.0]
    assert scenario.alpha == [0.0]  # optional, defaulted
    assert scenario.bounds == [None]
    assert scenario.frame_of == [0]
    assert scenario.id == ["lead"]
    assert scenario.x == [50.0]
    assert scenario.v_lat == [None]
    assert scenario.gt == [None]


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
    scenario = parse_scenario(as_stream(d))
    assert scenario.alpha == [0.01]
    assert scenario.v_lat == [-0.4]
    assert scenario.gt == [2]
    (bounds,) = scenario.bounds
    assert bounds.boundaries[0].mean == -5.25


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


# The reference parser's helpers, kept here as the line-by-line parser had
# them, so that a fault in the parser under test is not on both sides of a
# comparison.


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


def _parse_bounds(records: list) -> BoundarySet:
    if not isinstance(records, list) or len(records) != 4:
        raise ScenarioFormatError("'bounds' must list exactly 4 entries")
    parsed = []
    for record in records:
        _check_keys(record, _BOUND_KEYS, "bounds entry")
        parsed.append(GaussianScalar(_number(record, "mu", "bounds entry"),
                                     _number(record, "sigma", "bounds entry")))
    return BoundarySet(tuple(parsed))


def _reference_parse_object(record):
    """One object record as the parser built it before it emitted columns,
    as a dict for `scenario_of`."""
    _check_keys(record, _OBJECT_KEYS, "object")
    object_id = record["id"]
    if isinstance(object_id, bool) or not isinstance(object_id, (str, int)):
        raise ScenarioFormatError("field 'id' must be a string")
    if isinstance(object_id, str) and "\r" in object_id:
        raise ScenarioFormatError("field 'id' must not hold a carriage return")
    v_lat = None
    if "v_lat" in record:
        v_lat = _number(record, "v_lat", "object")
    gt = None
    if "gt" in record:
        gt = record["gt"]
        if isinstance(gt, bool) or not isinstance(gt, int) or not 0 <= gt < N_PATHS:
            raise ScenarioFormatError(f"field 'gt' must be an integer in 0..{N_PATHS - 1}")
    measurement = ObjectMeasurement(
        x=_number(record, "x", "object"),
        y=_number(record, "y", "object"),
        lateral_velocity_input=v_lat,
    )
    return dict(
        id=str(object_id),
        x=measurement.x,
        y=measurement.y,
        v_lat=measurement.lateral_velocity_input,
        var_x=_variance(record, "var_x", "object"),
        var_y=_variance(record, "var_y", "object"),
        gt=gt,
    )


def _reference_parse_frame(raw, previous_t):
    """One frame line as the parser built it before it emitted columns, as a
    dict for `scenario_of`; `previous_t` is the time of the frame before."""
    try:
        record = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"invalid JSON: {exc}") from exc
    _check_keys(record, _FRAME_KEYS, "frame")
    t = _number(record, "t", "frame")
    if previous_t is not None and t <= previous_t:
        raise ScenarioFormatError(
            f"timestamps must strictly increase ({t} after {previous_t})"
        )
    host_record = record["host"]
    _check_keys(host_record, _HOST_KEYS, "host")
    alpha = 0.0
    if "alpha" in host_record:
        alpha = _number(host_record, "alpha", "host")
    host = HostState(
        v=_number(host_record, "v", "host"),
        yaw_rate=_number(host_record, "yaw_rate", "host"),
        alpha=alpha,
    )
    if not math.isfinite(t):
        raise ScenarioFormatError(f"timestamp must be finite, got {t}")
    object_records = record["objects"]
    if not isinstance(object_records, list):
        raise ScenarioFormatError("'objects' must be a list")
    objects = [_reference_parse_object(rec) for rec in object_records]
    seen_ids = set()
    for obj in objects:
        if obj["id"] in seen_ids:
            raise ScenarioFormatError(f"duplicate object id {obj['id']!r}")
        seen_ids.add(obj["id"])
    bounds = None
    if "bounds" in record:
        bounds = _parse_bounds(record["bounds"])
    host_values = dict(
        v=host.v,
        yaw_rate=host.yaw_rate,
        alpha=host.alpha,
        var_v=_variance(host_record, "var_v", "host"),
        var_yaw=_variance(host_record, "var_yaw", "host"),
    )
    return dict(t=t, host=host_values, objects=objects, bounds=bounds)


def _reference_parse(stream):
    """The dataclass-building parser that the column parser replaced: the
    reference for its scenarios and its error messages."""
    if isinstance(stream, str):
        stream = stream.splitlines()
    frames = []
    for line_no, raw in enumerate(stream, start=1):
        if not raw.strip():
            continue
        try:
            frames.append(_reference_parse_frame(raw, frames[-1]["t"] if frames else None))
        except (ScenarioFormatError, InputDomainError) as exc:
            raise ScenarioFormatError(f"line {line_no}: {exc}") from exc
    return scenario_of(frames)


# Lines in a block: scenarios of several blocks put faults and blank lines at
# and past the block edges, where a parser that reads ahead in blocks must
# still name each fault at its own line.
PARSE_BLOCK = 64


def _replay_generator():
    path = Path(__file__).resolve().parents[1] / "bench" / "replay_gen.py"
    spec = importlib.util.spec_from_file_location("replay_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _valid_scenario(name):
    """The text of one valid scenario: a suite kind, the benchmark's replay
    scenario of a seed, or a hand-written one with int ids, int numbers and
    optional fields."""
    if name in SCENARIO_KINDS:
        return _serialized(build_suite([name], seed=0)[name])
    if name.startswith("replay-"):
        records = _replay_generator().generate(int(name[len("replay-"):]))
        return "\n".join(json.dumps(r) for r in records) + "\n"
    if name == "blocks":
        # Int and float numbers, objects with and without the optional
        # fields, and frames with and without bounds in every block, with
        # blank lines across a block boundary.
        lines = [_fault(frame={"t": k}, object={"id": k % 3, "x": 10 + k % 7, "gt": 2})
                 if k % 2 else
                 _fault(frame={"t": k + 0.5}, drop_frame=["bounds"],
                        object={"id": "a", "v_lat": -k})
                 for k in range(2 * PARSE_BLOCK + 5)]
        lines[PARSE_BLOCK - 2:PARSE_BLOCK - 2] = ["", " ", "\t", ""]
        return "\n".join(lines)
    first = minimal_frame_dict(t=0)
    first["objects"] = [
        {"id": 1, "x": 50, "y": 0, "var_x": 0, "var_y": 1, "gt": 0},
        {"id": "2", "x": 1e-300, "y": -1.5, "var_x": 0.1, "var_y": 0.1, "v_lat": -0},
    ]
    second = minimal_frame_dict(t=0.5, objects=[])
    second["host"]["alpha"] = -1
    return "\n\n" + as_stream(first, second) + "\n  \n"


@pytest.mark.parametrize(
    "name",
    SCENARIO_KINDS + tuple(f"replay-{seed}" for seed in range(4)) + ("hand-written", "blocks"),
)
def test_parser_matches_the_dataclass_reference(name):
    text = _valid_scenario(name)
    scenario = parse_scenario(text)
    reference = _reference_parse(text)
    assert scenario == reference
    assert len(scenario) > 0
    # Equal is not enough: 1 == 1.0 and 1 == True.
    for column in dataclasses.fields(Scenario):
        got, expected = getattr(scenario, column.name), getattr(reference, column.name)
        assert list(map(type, got)) == list(map(type, expected)), column.name


def _fault(**changes):
    """One frame line, changed: `host`, `object` and `bound` update the first
    such record; `frame` updates the frame; `drop_*` removes keys."""
    frame = minimal_frame_dict()
    frame["bounds"] = [
        {"mu": -5.25, "sigma": 0.45}, {"mu": -1.75, "sigma": 0.3},
        {"mu": 1.75, "sigma": 0.3}, {"mu": 5.25, "sigma": 0.45},
    ]
    for where, record in (("frame", frame), ("host", frame["host"]),
                          ("object", frame["objects"][0]), ("bound", frame["bounds"][0])):
        record.update(changes.get(where, {}))
        for key in changes.get(f"drop_{where}", ()):
            del record[key]
    return json.dumps(frame)


GOOD = _fault()
FAULTS = {
    "bad json": "{not json",
    "truncated json": GOOD[:-1],
    "frame not an object": "[1, 2]",
    "unknown frame key": _fault(frame={"speed": 1.0}),
    "missing frame key": _fault(drop_frame=["host"]),
    "unknown host key": _fault(host={"curvature": 0.01}),
    "missing host key": _fault(drop_host=["var_yaw"]),
    "host not an object": _fault(frame={"host": [25.0]}),
    "unknown object key": _fault(object={"vx": 1.0}),
    "missing object key": _fault(drop_object=["var_x"]),
    "object not an object": _fault(frame={"objects": ["lead"]}),
    "objects not a list": _fault(frame={"objects": {"id": "lead"}}),
    "unknown bounds key": _fault(bound={"nu": 1.0}),
    "missing bounds key": _fault(drop_bound=["sigma"]),
    "bounds entry not an object": _fault(frame={"bounds": [1, 2, 3, 4]}),
    "bool number": _fault(host={"v": True}),
    "bool t": _fault(frame={"t": False}),
    "string number": _fault(object={"x": "50.0"}),
    "string bound": _fault(bound={"mu": "-5"}),
    "null number": _fault(object={"y": None}),
    "NaN variance": _fault(object={"var_x": math.nan}),
    "negative variance": _fault(object={"var_y": -0.1}),
    "negative host variance": _fault(host={"var_v": -1e-9}),
    "infinite host variance": _fault(host={"var_yaw": math.inf}),
    "gt too large": _fault(object={"gt": 5}),
    "gt negative": _fault(object={"gt": -1}),
    "gt bool": _fault(object={"gt": True}),
    "gt float": _fault(object={"gt": 2.0}),
    "gt null": _fault(object={"gt": None}),
    "id float": _fault(object={"id": 1.5}),
    "id bool": _fault(object={"id": False}),
    "id with a carriage return": _fault(object={"id": "c\rr", "gt": 9}),
    "object behind": _fault(object={"x": -5.0}),
    "object at zero": _fault(object={"x": 0}),
    "object x inf": _fault(object={"x": math.inf}),
    "object y nan": _fault(object={"y": math.nan}),
    "v_lat inf": _fault(object={"v_lat": -math.inf}),
    "negative speed": _fault(host={"v": -1.0}),
    "heading out of range": _fault(host={"alpha": 2.0}),
    "yaw rate nan": _fault(host={"yaw_rate": math.nan}),
    "bounds count": _fault(frame={"bounds": [{"mu": 0.0, "sigma": 0.1}] * 3}),
    "bounds not a list": _fault(frame={"bounds": {"mu": 0.0, "sigma": 0.1}}),
    "bounds not increasing": _fault(bound={"mu": 5.0}),
    "negative bound sigma": _fault(bound={"sigma": -0.3}),
    "t nan": _fault(frame={"t": math.nan}),
    "t inf": _fault(frame={"t": math.inf}),
    "t equal": GOOD + "\n" + GOOD,
    "t decreasing": _fault(frame={"t": 1.0}) + "\n" + _fault(frame={"t": 0.5}),
    "t nan after t": GOOD + "\n" + _fault(frame={"t": math.nan}),
    "duplicate ids": _fault(frame={"objects": [
        {"id": "a", "x": 50.0, "y": 0.1, "var_x": 0.04, "var_y": 0.04}] * 2}),
    "int and str ids": _fault(frame={"objects": [
        {"id": 1, "x": 50.0, "y": 0.1, "var_x": 0.04, "var_y": 0.04},
        {"id": "1", "x": 20.0, "y": 3.5, "var_x": 0.04, "var_y": 0.04}]}),
    "duplicate id before a bad object": _fault(frame={"objects": [
        {"id": "a", "x": 50.0, "y": 0.1, "var_x": 0.04, "var_y": 0.04},
        {"id": "a", "x": 50.0, "y": 0.1, "var_x": 0.04, "var_y": 0.04},
        {"id": "b", "x": 50.0, "y": 0.1, "var_x": -1.0, "var_y": 0.04}]}),
    "blank lines shift the line number": "\n  \n" + GOOD + "\n\n" + _fault(
        frame={"t": 1.0}, object={"gt": 9}),
    "two faults on one line": _fault(host={"var_v": -1.0}, object={"vx": 1.0}),
    "two faults in one object": _fault(object={"x": -1.0, "var_x": -1.0}),
    "host and time faults": _fault(frame={"t": math.nan}, host={"v": -1.0}),
    "faults on two lines": _fault(frame={"t": 0.0}) + "\n" + _fault(
        frame={"t": 1.0}, object={"gt": 7}) + "\n" + _fault(frame={"t": 2.0, "x": 1}),
    # Each object passes all of its checks before the next one starts.
    "late fault in one object, early fault in the next": _fault(frame={"objects": [
        {"id": "a", "x": 50.0, "y": 0.1, "var_x": 0.04, "var_y": -1.0},
        {"id": "b", "x": 30.0, "y": 3.5, "var_x": 0.04, "var_y": 0.04, "vx": 1.0}]}),
    "bad bounds entry and bad var_v": _fault(bound={"sigma": -0.3}, host={"var_v": -1.0}),
    "non-finite t and a bad second object": _fault(frame={"t": math.nan, "objects": [
        {"id": "a", "x": 50.0, "y": 0.1, "var_x": 0.04, "var_y": 0.04},
        {"id": "b", "x": -1.0, "y": 0.1, "var_x": 0.04, "var_y": 0.04}]}),
}


def _long_text(n_lines, changed):
    """`n_lines` good frame lines, the one on line k + 1 at t = k, with the
    lines that `changed` numbers (from 1) replaced by its text."""
    lines = [_fault(frame={"t": k}) for k in range(n_lines)]
    for line_no, text in changed.items():
        lines[line_no - 1] = text
    return "\n".join(lines)


# A fault near the edge of a block, or past the first one, is named at its
# own line.
B = PARSE_BLOCK
FAULTS.update({
    "fault on the first line of the second block": _long_text(
        2 * B, {B + 1: _fault(frame={"t": B}, object={"gt": 9})}),
    "fault on the last line of the first block": _long_text(
        2 * B, {B: _fault(frame={"t": B - 1}, host={"v": -1.0})}),
    "fault on the last line of the last block": _long_text(
        2 * B, {2 * B: _fault(frame={"t": 2 * B - 1}, object={"x": 0})}),
    "faults on the last and the first line of two blocks": _long_text(3 * B, {
        2 * B: _fault(frame={"t": 2 * B - 1}, object={"vx": 1.0}),
        2 * B + 1: _fault(frame={"t": 2 * B}, host={"v": None})}),
    "t decrease across a block boundary": _long_text(
        2 * B, {B + 1: _fault(frame={"t": B - 1.5})}),
    "t equal across a block boundary": _long_text(B + 1, {B + 1: _fault(frame={"t": B - 1})}),
    "duplicate id in the second block": _long_text(3 * B, {B + 7: _fault(frame={
        "t": B + 6, "objects": [
            {"id": "a", "x": 50.0, "y": 0.1, "var_x": 0.04, "var_y": 0.04},
            {"id": "b", "x": 30.0, "y": 3.5, "var_x": 0.04, "var_y": 0.04},
            {"id": "a", "x": 20.0, "y": 0.1, "var_x": 0.04, "var_y": 0.04}]})}),
    "bad line after blank lines across a block boundary": "\n".join(
        [_fault(frame={"t": k}) for k in range(B - 3)] + [""] * 6 + ["  ", "{not json"]),
    "invalid JSON in a later block": _long_text(2 * B + 2, {2 * B + 2: GOOD[:-1]}),
})


def _messages(text, tmp_path):
    """The error messages of `text` parsed as text, loaded from a file
    (without the path before them) and parsed as "\\n"-terminated lines."""
    path = tmp_path / "scenario.jsonl"
    path.write_text(text, encoding="utf-8")
    messages = []
    for parse, source in ((parse_scenario, text), (load_scenario, str(path)),
                          (parse_scenario, [line + "\n" for line in text.split("\n")])):
        with pytest.raises(ScenarioFormatError) as got:
            parse(source)
        messages.append(str(got.value).removeprefix(f"{path}: "))
    return messages


@pytest.mark.parametrize("name", list(FAULTS))
def test_parser_errors_match_the_dataclass_reference(name, tmp_path):
    text = FAULTS[name]
    with pytest.raises(ScenarioFormatError) as expected:
        _reference_parse(text)
    assert _messages(text, tmp_path) == [str(expected.value)] * 3


# Text that made the JSON decoder or the float conversion fail outside the
# parser's checks: integers too large for a float, integers longer than the
# interpreter converts, and nesting deeper than it recurses.
UNREADABLE = {
    "x beyond the float range": (
        GOOD.replace('"x": 50.0', '"x": 1' + "0" * 400),
        "line 1: object position must be finite, got (inf, 0.1)",
    ),
    "t beyond the float range": (
        GOOD.replace('"t": 0.0', '"t": -1' + "0" * 400),
        "line 1: timestamp must be finite, got -inf",
    ),
    "variance beyond the float range": (
        GOOD.replace('"var_y": 0.04', '"var_y": 1' + "0" * 400),
        "line 1: field 'var_y' in object must be finite and >= 0",
    ),
    "integer too long to convert": (
        GOOD.replace('"x": 50.0', '"x": ' + "1" * 4400),
        "line 1: invalid JSON: Exceeds the limit (4300 digits) for integer string conversion",
    ),
    "nesting too deep": (
        GOOD + "\n" + "[" * 100_000,
        "line 2: invalid JSON: maximum recursion depth exceeded",
    ),
}


@pytest.mark.parametrize("name", list(UNREADABLE))
def test_unreadable_numbers_and_nesting_name_the_line(name, tmp_path):
    text, message = UNREADABLE[name]
    messages = _messages(text, tmp_path)
    assert messages[0].startswith(message)
    assert messages == [messages[0]] * 3


@pytest.mark.parametrize("faulty", [GOOD[:-1], _fault(object={"x": 0})],
                         ids=["invalid JSON", "object at zero"])
def test_parsing_stops_at_the_failing_line(faulty):
    def lines():
        yield GOOD
        yield faulty
        pytest.fail("a line after the failing one was read")

    with pytest.raises(ScenarioFormatError, match="^line 2: "):
        parse_scenario(lines())


def test_round_trip_through_serialization():
    scenario = generate_synthetic(SynthSpec(kind="target_lane_change", duration=2.0))
    assert parse_scenario(_serialized(scenario)) == scenario


def test_numpy_scalars_round_trip_through_serialization():
    # The pipeline, compute_roc and sweep_parameters take numpy scalars, so
    # the writer does too, as their Python values.
    scenario = generate_synthetic(SynthSpec(kind="target_lane_change", duration=1.0))
    numpy = dataclasses.replace(
        scenario,
        t=[np.float64(t) for t in scenario.t],
        v=[np.float32(v) for v in scenario.v],
        x=[np.float32(x) for x in scenario.x],
        gt=[np.int64(gt) for gt in scenario.gt],
    )
    parsed = parse_scenario(_serialized(numpy))
    assert parsed == numpy
    assert {type(value) for value in (*parsed.v, *parsed.x)} == {float}
    assert {type(gt) for gt in parsed.gt} == {int}
    assert sweep_parameters([parsed], "discrete") == sweep_parameters([numpy], "discrete")


FINITE = dict(allow_nan=False, allow_infinity=False)


def _numbers(low, high):
    """Finite numbers in [low, high], int-valued ones written as ints too."""
    return st.one_of(st.integers(math.ceil(low), math.floor(high)),
                     st.floats(low, high, **FINITE))


@st.composite
def scenario_texts(draw):
    """Valid scenario text: int and str ids, int-valued numbers, optional
    `alpha`, `v_lat`, `gt` and `bounds`, frames without objects, and blank
    lines."""
    lines = []
    t = draw(_numbers(-1e6, 1e6))
    for _ in range(draw(st.integers(0, 5))):
        host = {"v": draw(_numbers(0.0, 100.0)), "yaw_rate": draw(_numbers(-2.0, 2.0)),
                "var_v": draw(_numbers(0.0, 4.0)), "var_yaw": draw(_numbers(0.0, 1e-2))}
        if draw(st.booleans()):
            host["alpha"] = draw(_numbers(-1.5, 1.5))
        # 1 and "1" would be one id in a frame.
        ids = draw(st.lists(st.one_of(st.integers(0, 3), st.sampled_from(["a", "lead", "0"])),
                            max_size=4, unique_by=str))
        objects = []
        for object_id in ids:
            obj = {"id": object_id,
                   "x": draw(st.one_of(st.integers(1, 200), st.floats(
                       0.0, 1e300, exclude_min=True, **FINITE))),
                   "y": draw(_numbers(-1e300, 1e300)),
                   "var_x": draw(_numbers(0.0, 1e300)), "var_y": draw(_numbers(0.0, 1.0))}
            if draw(st.booleans()):
                obj["v_lat"] = draw(_numbers(-10.0, 10.0))
            if draw(st.booleans()):
                obj["gt"] = draw(st.integers(0, 4))
            objects.append(obj)
        frame = {"t": t, "host": host, "objects": objects}
        if draw(st.booleans()):
            means = sorted(draw(st.lists(_numbers(-20.0, 20.0), min_size=4, max_size=4,
                                         unique_by=float)))
            frame["bounds"] = [{"mu": mu, "sigma": draw(_numbers(0.0, 2.0))} for mu in means]
        lines.append(json.dumps(frame))
        if draw(st.booleans()):
            lines.append(" ")
        t += draw(_numbers(1e-3, 100.0))
    return "\n".join(lines)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(text=scenario_texts())
def test_scenarios_round_trip_through_the_writer(text):
    scenario = parse_scenario(text)
    assert scenario == _reference_parse(text)
    written = _serialized(scenario)
    assert parse_scenario(written) == scenario
    assert _reference_parse(written) == scenario


# Values that a fault puts in place of a field's value: a null, a bool, a
# string, a list, non-finite numbers, and numbers out of range for a
# variance, a speed, a position, a heading or a ground truth.
BAD_VALUES = (None, True, "1", [1.0], math.nan, math.inf, -math.inf, -1.0, 9, 1e9)


def _records(frame, kind):
    """The records of one kind in a frame, where they are still objects."""
    found = {"frame": [frame], "host": [frame.get("host")],
             "object": frame.get("objects"), "bound": frame.get("bounds")}[kind]
    return [r for r in found if isinstance(r, dict)] if isinstance(found, list) else []


@st.composite
def faulty_scenario_texts(draw):
    """1-4 valid frame lines, each with every optional field, an int id and
    int numbers, and 0-3 faults on each: a value replaced by one of
    `BAD_VALUES`, a key dropped, an unknown key added, or the time of the
    frame before repeated or reversed."""
    lines = []
    for k in range(draw(st.integers(1, 4))):
        frame = json.loads(_fault(frame={"t": k}, host={"alpha": 0.01},
                                  object={"v_lat": -0.4, "gt": 2}))
        frame["objects"].append({"id": 7, "x": 20, "y": -3, "var_x": 1, "var_y": 0})
        for _ in range(draw(st.integers(0, 3))):
            fault = draw(st.sampled_from(["value", "drop", "unknown", "time"]))
            if fault == "time":
                if k:
                    frame["t"] = draw(st.sampled_from([k - 1, k - 1.5]))
                continue
            records = _records(frame, draw(st.sampled_from(["frame", "host", "object", "bound"])))
            if not records:
                continue
            record = draw(st.sampled_from(records))
            if fault == "unknown":
                record["extra"] = 0.0
            elif record:
                key = draw(st.sampled_from(sorted(record)))
                if fault == "drop":
                    del record[key]
                else:
                    record[key] = draw(st.sampled_from(BAD_VALUES))
        lines.append(json.dumps(frame))
        if draw(st.booleans()):
            lines.append("")
    return "\n".join(lines)


def _outcome(parse, text):
    """The scenario that `parse` reads from text, or its error message."""
    try:
        return parse(text)
    except ScenarioFormatError as exc:
        return str(exc)


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(text=faulty_scenario_texts())
def test_faulty_scenarios_fail_as_the_dataclass_reference_does(text):
    # The order of the checks on lines with several faults, beyond `FAULTS`.
    assert _outcome(parse_scenario, text) == _outcome(_reference_parse, text)


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


@pytest.mark.parametrize(
    "changes, message",
    [
        (dict(seed=-1), "seed must be >= 0, got -1"),
        (dict(step=0.0), "step must be positive, got 0.0"),
        (dict(step=-0.1), "step must be positive, got -0.1"),
        (dict(step=math.nan), "step must be positive, got nan"),
        (dict(step=math.inf), "step must be positive, got inf"),
        (dict(duration=0.01), "duration must cover at least one step"),
        (dict(duration=-1.0), "duration must cover at least one step"),
        (dict(duration=math.nan), "duration must be finite, got nan"),
        (dict(duration=math.inf), "duration must be finite, got inf"),
        (dict(duration=1e6), "step 0.05 over duration 1000000.0 gives more than 1000000 frames"),
        (dict(step=1e-300), "step 1e-300 over duration 2.0 gives more than 1000000 frames"),
        (dict(noise_scale=-1.0),
         "noise level sigma_x must be >= 0 with a finite square, got -0.2"),
        (dict(noise_scale=math.nan),
         "noise level sigma_x must be >= 0 with a finite square, got nan"),
        (dict(noise_scale=math.inf),
         "noise level sigma_x must be >= 0 with a finite square, got inf"),
        (dict(noise_scale=5e154),
         f"noise level sigma_v must be >= 0 with a finite square, got {0.3 * 5e154}"),
        (dict(duration=1.7e308, step=1e308),
         "duration must give the yaw flap a finite phase, got 1.7e+308"),
    ],
)
@pytest.mark.parametrize("kind", ["noisy_yaw", "host_curve"])
def test_synthetic_rejects_bad_shape_fields_by_name(kind, changes, message):
    # Every setting a caller can give is checked up front and named: numpy's
    # own seed and scale errors name no field, and an unchecked step or
    # duration would overflow the frame count or the yaw flap's phase.
    spec = dataclasses.replace(SynthSpec(kind, duration=2.0), **changes)
    with pytest.raises(InputDomainError) as excinfo:
        generate_synthetic(spec)
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "seed", [2.0, 1.5, np.float64(3.0), True, False, np.True_, "3", None], ids=repr
)
def test_synthetic_takes_only_an_integer_seed(seed):
    spec = SynthSpec("straight_follow", duration=1.0, seed=seed)
    with pytest.raises(InputDomainError) as excinfo:
        generate_synthetic(spec)
    assert str(excinfo.value) == f"seed must be an integer, got {seed!r}"


@pytest.mark.parametrize("seed", [np.int64(9), np.uint32(9), np.int8(9)], ids=repr)
def test_synthetic_takes_a_numpy_integer_seed(seed):
    assert generate_synthetic(SynthSpec("noisy_yaw", duration=2.0, seed=seed)) == (
        generate_synthetic(SynthSpec("noisy_yaw", duration=2.0, seed=9))
    )


@pytest.mark.parametrize("kind", SCENARIO_KINDS)
def test_synthetic_builds_a_ramp_only_where_a_lane_changes(kind):
    # Without noise an object's offset moves only over the 3 s lane change
    # from duration / 2, and only the lane changer and the cut-in make one,
    # by one lane width; every other object keeps its offset and its lane.
    scenario = generate_synthetic(SynthSpec(kind, duration=20.0, noise_scale=0.0))
    times = np.array(scenario.t)[scenario.frame_of]
    ids, y, gt = np.array(scenario.id), np.array(scenario.y), np.array(scenario.gt)
    changing = {"target_lane_change": "changer", "noisy_yaw": "cutin"}.get(kind)
    for object_id in dict.fromkeys(scenario.id):
        mine = ids == object_id
        t, offset, lane = times[mine], y[mine], gt[mine]
        if object_id != changing:
            assert len(set(offset)) == 1 and len(set(lane)) == 1, object_id
            continue
        before, after = offset[t <= 10.0], offset[t >= 13.0]
        assert len(set(before)) == 1 and len(set(after)) == 1
        assert abs(after[0] - before[0]) == pytest.approx(3.5)
        ramp = offset[(t > 10.0) & (t < 13.0)]
        assert len(ramp) == 59
        assert np.all(np.diff(np.concatenate([before[-1:], ramp, after[:1]])) != 0.0)
        assert len(set(lane)) == 2


@pytest.mark.parametrize("step", [1e-10, 6e-10, 9e-10])
def test_synthetic_rejects_a_step_below_the_timestamp_resolution(step):
    # Timestamps are rounded to 9 decimals, so such steps give frames that
    # share a timestamp, which the parser rejects.
    with pytest.raises(InputDomainError, match=rf"^step {step} is below the timestamp resolution"):
        generate_synthetic(SynthSpec("straight_follow", duration=1e-8, step=step))
    t = generate_synthetic(SynthSpec("straight_follow", duration=1e-8, step=1e-9)).t
    assert all(a < b for a, b in zip(t, t[1:]))


def test_synthetic_frame_grid():
    scenario = generate_synthetic(SynthSpec(kind="adjacent_lane", duration=1.0, step=0.1))
    assert len(scenario) == 10
    assert scenario.t == pytest.approx([0.1 * k for k in range(10)])
    assert scenario.frame_of == [k // 2 for k in range(20)]
    assert all(bounds is not None for bounds in scenario.bounds)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(step=st.one_of(
    st.floats(1e-10, 1e8),
    # Steps whose multiples lie on or near a half-way point of the 9th
    # decimal, or beyond 2**52 once scaled.
    st.sampled_from([5e-10, 1.5e-9, 2.5e-9, 1e7 + 0.1, 1e300]),
))
def test_synthetic_frame_times_are_rounded_to_9_decimals(step):
    assert _frame_times(300, step) == [round(k * step, 9) for k in range(300)]


def test_synthetic_straight_follow_truth():
    scenario = generate_synthetic(
        SynthSpec(kind="straight_follow", duration=2.0, noise_scale=0.0)
    )
    assert scenario.id == ["lead", "neighbor"] * 40
    assert scenario.gt == [HOST_PATH_INDEX, HOST_PATH_INDEX + 1] * 40
    assert scenario.y[0::2] == [0.0] * 40  # noiseless
    assert scenario.y[1::2] == pytest.approx([3.5] * 40)


def test_synthetic_lane_change_crosses_on_schedule():
    # The 3 s ramp starts at duration / 2 and crosses the half-width
    # boundary halfway through; truth must flip on the first frame strictly
    # past the crossing.
    spec = SynthSpec(kind="target_lane_change", duration=20.0, noise_scale=0.0)
    scenario = generate_synthetic(spec)
    crossing = 10.0 + 3.0 / 2.0
    assert scenario.frame_of == list(range(len(scenario)))  # one object a frame
    for t, gt in zip(scenario.t, scenario.gt):
        if t <= crossing + 1e-12:
            assert gt == HOST_PATH_INDEX, t
        elif t > crossing + spec.step:
            assert gt == HOST_PATH_INDEX + 1, t


def test_synthetic_lane_change_emits_lateral_velocity():
    spec = SynthSpec(kind="target_lane_change", duration=20.0, noise_scale=0.0)
    scenario = generate_synthetic(spec)
    by_t = dict(zip(scenario.t, scenario.v_lat))
    assert by_t[5.0] == 0.0
    assert by_t[11.0] == pytest.approx(3.5 / 3.0)
    assert by_t[15.0] == 0.0


def test_synthetic_host_curve_objects_on_arc():
    spec = SynthSpec(kind="host_curve", duration=2.0, noise_scale=0.0)
    scenario = generate_synthetic(spec)
    assert scenario.yaw_rate == pytest.approx([25.0 / 500.0] * len(scenario))
    expected = {"lead": 0.0, "adjacent": -3.5}
    for k, object_id in enumerate(scenario.id):
        alpha = scenario.alpha[scenario.frame_of[k]]
        z = transform_to_path(_inputs(scenario, k, exact=True), alpha)
        assert z.mean == pytest.approx(expected[object_id], abs=1e-9)


def _inputs(scenario, k, exact=False):
    """The transform inputs of object-frame k, without variances if exact."""
    from laneassign import InputVector

    f = scenario.frame_of[k]
    variances = [scenario.var_v[f], scenario.var_yaw[f], scenario.var_x[k], scenario.var_y[k]]
    return InputVector(
        np.array([scenario.v[f], scenario.yaw_rate[f], scenario.x[k], scenario.y[k]]),
        np.diag([0.0] * 4 if exact else variances),
    )


def test_synthetic_noisy_yaw_reports_flap_power():
    # One full flap period (0.25 Hz -> 4 s) so both extremes are visited.
    spec = SynthSpec(kind="noisy_yaw", duration=4.0)
    scenario = generate_synthetic(spec)
    base = SynthSpec(kind="straight_follow", duration=4.0)
    base_var = generate_synthetic(base).var_yaw[0]
    # Reported variance includes the mean-square power of the yaw flap.
    assert scenario.var_yaw[0] == pytest.approx(base_var + 0.03**2 / 2.0)
    yaw = scenario.yaw_rate
    assert max(yaw) > 0.02
    assert min(yaw) < -0.02


def _ramp(t, start, duration, y0, y1):
    """The reference's offset ramp, scalar, with no division where the
    change is instant."""
    if t <= start:
        return y0
    if t >= start + duration:
        return y1
    return y0 + (y1 - y0) * (t - start) / duration


def _reference_synthetic(spec):
    """The generator as one scalar draw per noise value, frame by frame: the
    reference that `generate_synthetic`'s single draw must reproduce."""
    rng = np.random.default_rng(spec.seed)
    half = 1.75
    width = 3.5
    change_start, change_duration = spec.duration / 2.0, 3.0
    radius, yaw_amplitude, r = 500.0, 0.03, 50.0
    sigma_x, sigma_y, sigma_v, sigma_yaw = (
        level * spec.noise_scale for level in (0.2, 0.2, 0.3, 0.005)
    )
    bounds = BoundarySet(
        tuple(
            GaussianScalar(mean, factor * 0.3)
            for mean, factor in ((-3.0 * half, 1.5), (-half, 1.0), (half, 1.0),
                                 (3.0 * half, 1.5))
        )
    )
    frames = []
    for k in range(int(round(spec.duration / spec.step))):
        t = round(k * spec.step, 9)
        yaw_true = yaw_extra = var_yaw_extra = 0.0
        if spec.kind == "host_curve":
            yaw_true = 25.0 / radius
        elif spec.kind == "noisy_yaw":
            yaw_extra = yaw_amplitude * math.sin(2.0 * math.pi * 0.25 * t)
            var_yaw_extra = yaw_amplitude**2 / 2.0
        if spec.kind == "straight_follow":
            truth = [("lead", r, 0.0, None), ("neighbor", 0.6 * r, width, None)]
        elif spec.kind == "adjacent_lane":
            truth = [("left", 0.8 * r, width, None), ("right", 1.2 * r, -width, None)]
        elif spec.kind == "target_lane_change":
            lateral = _ramp(t, change_start, change_duration, 0.0, width)
            in_ramp = change_start < t < change_start + change_duration
            v_lat = width / change_duration if in_ramp else 0.0
            truth = [("changer", r, lateral, v_lat)]
        elif spec.kind == "host_curve":
            truth = [("lead", r, 0.0, None), ("adjacent", 0.8 * r, -width, None)]
        else:
            lateral = _ramp(t, change_start, change_duration, width, 0.0)
            truth = [("cutin", 0.8 * r, lateral, None), ("far", 1.6 * r, width, None)]
        objects = []
        for object_id, x_true, lateral_true, v_lat in truth:
            x_cart, y_cart = x_true, lateral_true
            if spec.kind == "host_curve":
                phi = x_true / radius
                x_cart = (radius - lateral_true) * math.sin(phi)
                y_cart = radius - (radius - lateral_true) * math.cos(phi)
            x_meas = max(x_cart + rng.normal(0.0, sigma_x), 0.01)
            y_meas = y_cart + rng.normal(0.0, sigma_y)
            edges = (-3.0 * half, -half, half, 3.0 * half)
            measurement = ObjectMeasurement(x_meas, y_meas, v_lat)
            objects.append(dict(
                id=object_id,
                x=measurement.x,
                y=measurement.y,
                v_lat=measurement.lateral_velocity_input,
                var_x=sigma_x**2,
                var_y=sigma_y**2,
                gt=int(np.searchsorted(edges, lateral_true, side="left")),
            ))
        v_meas = max(25.0 + rng.normal(0.0, sigma_v), 0.0)
        yaw_meas = yaw_true + yaw_extra + rng.normal(0.0, sigma_yaw)
        host = HostState(v_meas, yaw_meas, 0.0)
        frames.append(dict(
            t=t,
            host=dict(v=host.v, yaw_rate=host.yaw_rate, alpha=host.alpha,
                      var_v=sigma_v**2, var_yaw=sigma_yaw**2 + var_yaw_extra),
            objects=objects,
            bounds=bounds,
        ))
    return scenario_of(frames)


def _serialized(scenario):
    out = io.StringIO()
    write_scenario(scenario, out)
    return out.getvalue()


@pytest.mark.parametrize("kind", SCENARIO_KINDS)
def test_synthetic_matches_the_per_draw_reference(kind):
    for seed, scale, step in itertools.product((0, 7, 12), (0.0, 1.0, 2.5), (0.05, 0.1)):
        spec = SynthSpec(kind, duration=6.0, step=step, seed=seed, noise_scale=scale)
        scenario = generate_synthetic(spec)
        reference = _reference_synthetic(spec)
        assert scenario == reference, spec
        # repr round-trips every float, so equal text is equal bits
        assert _serialized(scenario) == _serialized(reference), spec


@st.composite
def synth_specs(draw):
    """Any kind and seed, at most 200 frames of any step above the timestamp
    resolution, and no noise or up to a million times the default."""
    step = draw(st.floats(1e-6, 1e6))
    return SynthSpec(
        kind=draw(st.sampled_from(SCENARIO_KINDS)),
        duration=draw(st.floats(step, 200.0 * step)),
        step=step,
        seed=draw(st.integers(min_value=0)),
        noise_scale=draw(st.one_of(st.just(0.0), st.floats(0.0, 1e6))),
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(spec=synth_specs())
def test_synthetic_scenarios_keep_the_contract(spec):
    _assert_keeps_the_contract(generate_synthetic(spec))


@pytest.mark.parametrize(
    "changes",
    [
        # The largest noise scale whose levels all have a finite square.
        dict(noise_scale=4.4e154),
        # A step at the timestamp resolution.
        dict(duration=2e-7, step=1e-9),
        # One frame of the largest step.
        dict(duration=1e300, step=1e300),
        # The longest duration whose yaw flap phase is finite.
        dict(duration=1e308, step=1e306),
    ],
    ids=["largest_noise", "smallest_step", "largest_step", "longest_duration"],
)
@pytest.mark.parametrize("kind", SCENARIO_KINDS)
def test_synthetic_scenarios_keep_the_contract_at_the_domain_edges(kind, changes):
    # Past the ranges the property test draws from, up to the limits the
    # spec checks allow.
    _assert_keeps_the_contract(generate_synthetic(SynthSpec(kind, **changes)))


def _assert_keeps_the_contract(scenario):
    values = [scenario.x, scenario.y, scenario.v, scenario.yaw_rate,
              scenario.var_x, scenario.var_y, scenario.var_v, scenario.var_yaw]
    assert all(np.isfinite(column).all() for column in values)
    # The Scenario contract: finite, strictly increasing frame times, ids
    # unique within a frame, and host and objects within their domains.
    assert all(math.isfinite(t) for t in scenario.t)
    assert all(a < b for a, b in zip(scenario.t, scenario.t[1:]))
    for f, (v, yaw_rate, alpha) in enumerate(zip(scenario.v, scenario.yaw_rate, scenario.alpha)):
        HostState(v, yaw_rate, alpha)
        objects = [k for k, frame_index in enumerate(scenario.frame_of) if frame_index == f]
        assert len({scenario.id[k] for k in objects}) == len(objects)
    for x, y, v_lat in zip(scenario.x, scenario.y, scenario.v_lat):
        ObjectMeasurement(x, y, v_lat)
    assert parse_scenario(_serialized(scenario)) == scenario


def test_synthetic_noise_errors_match_the_reference():
    # The generator rejects the noise levels the reference fails on, up
    # front and by name: the reference's errors came from numpy's sampler,
    # from the frame it built, or (a square that overflows) from `**`.
    for scale, reference_error, match in (
        (-1.0, ValueError, "scale < 0"),
        (math.nan, InputDomainError, r"object position must be finite, got \(nan, nan\)"),
        (math.inf, InputDomainError, "object position must be finite"),
    ):
        spec = SynthSpec("straight_follow", duration=1.0, noise_scale=scale)
        with pytest.raises(reference_error, match=match):
            _reference_synthetic(spec)
        with pytest.raises(
            InputDomainError,
            match=r"^noise level sigma_x must be >= 0 with a finite square, got ",
        ):
            generate_synthetic(spec)


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
        assert region == int(np.searchsorted(edges, lateral, side="left")), lateral
    # The generator itself: without noise, the lane changer's offset is
    # exactly the edge 1.75 at t = 11.5 (the ramp runs over 10..13 s), so
    # its truth is still the host path there and the left lane one step on.
    scenario = generate_synthetic(
        SynthSpec("target_lane_change", noise_scale=0.0)
    )
    by_t = {t: k for k, t in enumerate(scenario.t)}  # one object a frame
    assert scenario.y[by_t[11.5]] == 1.75
    assert scenario.gt[by_t[11.5]] == 2
    assert scenario.gt[by_t[11.55]] == 3


def test_build_suite_covers_all_kinds():
    suite = build_suite()
    assert set(suite) == set(SCENARIO_KINDS)
    assert all(len(scenario) > 0 for scenario in suite.values())


def test_the_suite_lanes_are_the_one_default_layout():
    # The engine scores each distinct layout object once, so the generator
    # hands every frame the one `DEFAULT_BOUNDS`, not a copy.
    for scenario in build_suite().values():
        assert all(bounds is DEFAULT_BOUNDS for bounds in scenario.bounds)


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


def test_pipeline_rejects_unknown_method():
    scenario = generate_synthetic(SynthSpec(kind="straight_follow", duration=0.5))
    with pytest.raises(InputDomainError):
        run_pipeline(scenario, method="magic")


def test_pipeline_straight_follow_assigns_host():
    scenario = generate_synthetic(
        SynthSpec(kind="straight_follow", duration=5.0, noise_scale=0.0)
    )
    for method in ("discrete", "continuous"):
        result = run_pipeline(scenario, method=method)
        lead = (np.array(result.object_id) == "lead") & (np.array(result.t) > 0.5)
        accepted_host = result.accepted & (result.index == HOST_PATH_INDEX)
        assert np.mean(accepted_host[lead]) > 0.99, method


def test_pipeline_first_step_semantics():
    scenario = generate_synthetic(
        SynthSpec(kind="straight_follow", duration=0.05, noise_scale=0.0)
    )
    assert len(scenario) == 1
    lead = scenario.id.index("lead")
    z = transform_to_path(_inputs(scenario, lead), scenario.alpha[0])
    want = lane_occupancy(z, scenario.bounds[0])
    for method in ("discrete", "continuous"):
        result = run_pipeline(scenario, method=method)
        got = result.posteriors[result.object_id.index("lead")]
        np.testing.assert_allclose(got, want.probs, atol=1e-12)


def test_pipeline_object_order_does_not_matter():
    scenario = generate_synthetic(SynthSpec(kind="adjacent_lane", duration=2.0, seed=3))
    frames = [json.loads(line) for line in _serialized(scenario).splitlines()]
    for frame in frames:
        frame["objects"].reverse()
    swapped = parse_scenario(as_stream(*frames))
    assert swapped.id != scenario.id

    def rows(result):
        return sorted(
            zip(result.t, result.object_id, result.posteriors.tolist(),
                result.index.tolist(), result.probability.tolist(),
                result.accepted.tolist())
        )

    a = run_pipeline(scenario, method="discrete")
    b = run_pipeline(swapped, method="discrete")
    assert rows(a) == rows(b)


def test_pipeline_drops_stale_tracks():
    # Same object seen at t=0 and t=0.05, then a reappearance after a gap
    # longer than the absence timeout: the filter must restart from scratch.
    frames = [minimal_frame_dict(t) for t in (0.0, 0.05, 5.0)]
    result = run_pipeline(scenario_of(frames), method="discrete")
    lead = [k for k, oid in enumerate(result.object_id) if oid == "lead"]
    first, reappeared = lead[0], lead[-1]
    assert result.t[reappeared] == 5.0
    np.testing.assert_allclose(
        result.posteriors[reappeared], result.posteriors[first], atol=1e-15
    )


def test_pipeline_keeps_fresh_tracks():
    scenario = generate_synthetic(
        SynthSpec(kind="straight_follow", duration=0.15, noise_scale=0.0)
    )
    result = run_pipeline(scenario, method="discrete")
    lead = result.posteriors[np.array(result.object_id) == "lead", HOST_PATH_INDEX]
    # Posterior sharpens step over step while the track persists.
    assert lead[1] >= lead[0]
    assert lead[2] >= lead[1]


def test_pipeline_wraps_errors_with_frame_context():
    stuck = scenario_of([minimal_frame_dict(0.0)] * 2)  # same timestamp twice
    with pytest.raises(InputDomainError, match=r"frame 1 \(t=0\.0\)"):
        run_pipeline(stuck, method="continuous")


# ---------------------------------------------------------------------------
# ROC evaluation
# ---------------------------------------------------------------------------


def result_stub(rows):
    """A discrete RunResult of (ground truth, index, accepted) rows at t=0,
    each with mass 0.9 at its index."""
    ground_truth = [gt for gt, _, _ in rows]
    index = np.array([i for _, i, _ in rows], dtype=int)
    posteriors = np.full((len(rows), 5), 0.025)
    posteriors[np.arange(len(rows)), index] = 0.9
    return RunResult(
        "discrete", [0.0] * len(rows), ["o"] * len(rows), ground_truth, index,
        np.full(len(rows), 0.9), np.array([a for _, _, a in rows], dtype=bool),
        posteriors,
    )


def test_compute_roc_counts():
    result = result_stub([
        (2, 2, True),   # TP
        (2, 2, False),  # miss (gate)
        (2, 3, True),   # miss (wrong index)
        (3, 2, True),   # FP
        (3, 3, True),   # correct rejection
        (0, 2, False),  # correct rejection (gate)
    ])
    point = compute_roc(result, "demo")
    assert point.parameter_label == "demo"
    assert point.tp_rate == pytest.approx(1.0 / 3.0)
    assert point.fp_rate == pytest.approx(1.0 / 3.0)
    assert point.frames_evaluated == 6


def test_compute_roc_undefined_rates_are_none():
    point = compute_roc(result_stub([(2, 2, True)]))
    assert point.tp_rate == 1.0
    assert point.fp_rate is None
    point = compute_roc(result_stub([(3, 3, True)]))
    assert point.tp_rate is None
    assert point.fp_rate == 0.0
    assert compute_roc(result_stub([])).frames_evaluated == 0


def test_compute_roc_requires_ground_truth():
    result = result_stub([(2, 2, True), (None, 2, True)])
    with pytest.raises(InputDomainError, match=r"^object 'o' at t=0.0 has no ground truth$"):
        compute_roc(result)


@pytest.mark.parametrize("gt", ["2", 2.7, True, 7, -1])
def test_compute_roc_rejects_a_ground_truth_that_is_no_path_index(gt):
    # The parser rejects each of these; in a hand-built result they would
    # count as host path ("2", 2.7) or as another path (True, 7, -1).
    message = f"object 'o' at t=0.0: ground truth must be an integer in 0..4, got {gt!r}"
    for rows in ([(gt, 2, True)], [(2, 2, True), (gt, 2, True)]):
        with pytest.raises(InputDomainError) as got:
            compute_roc(result_stub(rows))
        assert str(got.value) == message


@pytest.mark.parametrize("gt, fault", [
    (None, " has no ground truth"),
    (7, ": ground truth must be an integer in 0..4, got 7"),
])
@pytest.mark.parametrize("method", ["discrete", "continuous"])
def test_sweep_rejects_a_ground_truth_with_the_message_of_compute_roc(method, gt, fault):
    # The sweep checks the ground truth once for all grid values.
    frames = [minimal_frame_dict(0.0), minimal_frame_dict(0.05)]
    frames[0]["objects"][0]["gt"] = 2
    frames[1]["objects"][0]["gt"] = gt
    scenario = scenario_of(frames)
    with pytest.raises(InputDomainError) as roc:
        compute_roc(run_pipeline(scenario, method))
    with pytest.raises(InputDomainError) as sweep:
        sweep_parameters([scenario], method)
    assert str(sweep.value) == str(roc.value) == f"object 'lead' at t=0.05{fault}"


def test_compute_roc_takes_numpy_integers():
    point = compute_roc(result_stub([(np.int64(2), 2, True), (np.int64(3), 2, False)]))
    assert (point.tp_rate, point.fp_rate, point.frames_evaluated) == (1.0, 0.0, 2)


def test_sweep_single_point_matches_direct_run():
    scenario = generate_synthetic(SynthSpec(kind="straight_follow", duration=1.0))
    points = sweep_parameters([scenario], method="discrete", grid=(0.05,))
    want = compute_roc(
        run_pipeline(scenario, "discrete", PipelineConfig(epsilon=0.05)), "epsilon=0.05"
    )
    assert points[0] == want


@pytest.mark.parametrize(
    "grid", [["0.1", "1e-3"], [np.float64(0.1), np.float64(1e-3)]], ids=["strings", "numpy"]
)
def test_sweep_runs_and_labels_the_float_of_each_grid_value(grid):
    scenario = generate_synthetic(SynthSpec(kind="target_lane_change", duration=2.0))
    assert sweep_parameters([scenario], "discrete", grid) == (
        sweep_parameters([scenario], "discrete", [0.1, 1e-3])
    )


def test_sweep_default_grids():
    scenario = generate_synthetic(SynthSpec(kind="straight_follow", duration=1.0))
    eps_points = sweep_parameters([scenario], method="discrete")
    assert [p.parameter_label for p in eps_points] == [
        f"epsilon={v:g}" for v in EPSILON_GRID
    ]
    nu_points = sweep_parameters([scenario], method="continuous")
    assert [p.parameter_label for p in nu_points] == [
        f"sigma_nu={v:g}" for v in SIGMA_NU_GRID
    ]
    for p in eps_points + nu_points:
        assert p.tp_rate is None or 0.0 <= p.tp_rate <= 1.0
        assert p.fp_rate is None or 0.0 <= p.fp_rate <= 1.0


def test_sweep_labels_distinct_values_of_one_short_label_by_their_repr():
    # 1.0000001e-3 and 1.0000002e-3 both print as 0.001 with `:g`; a value
    # whose short label is its own, repeated or not, keeps it.
    scenario = generate_synthetic(SynthSpec(kind="straight_follow", duration=1.0))
    grid = [1.0000001e-3, 0.123456789, 1.0000002e-3, 0.123456789, 1e-4]
    assert [p.parameter_label for p in sweep_parameters([scenario], "discrete", grid)] == [
        "epsilon=0.0010000001", "epsilon=0.123457", "epsilon=0.0010000002",
        "epsilon=0.123457", "epsilon=0.0001",
    ]


def test_sweep_accepts_multiple_scenarios():
    a = generate_synthetic(SynthSpec(kind="straight_follow", duration=1.0))
    b = generate_synthetic(SynthSpec(kind="adjacent_lane", duration=1.0))
    merged = sweep_parameters([a, b], method="discrete", grid=(0.05,))
    assert merged[0].frames_evaluated == (
        sweep_parameters([a], method="discrete", grid=(0.05,))[0].frames_evaluated
        + sweep_parameters([b], method="discrete", grid=(0.05,))[0].frames_evaluated
    )


def test_sweep_names_the_failing_scenario_of_a_generator():
    # The scenarios are read once, so a generator's error names the same
    # scenario as a list's: the second, whose ground truth is missing.
    complete = generate_synthetic(SynthSpec(kind="straight_follow", duration=0.5))
    missing = dataclasses.replace(complete, gt=[None] * len(complete.gt))
    for scenarios in ([complete, missing], (s for s in [complete, missing])):
        with pytest.raises(InputDomainError, match="has no ground truth$") as got:
            sweep_parameters(scenarios, "discrete")
        assert got.value.scenario == 1


def test_sweep_rejects_empty_grid():
    scenario = generate_synthetic(SynthSpec(kind="straight_follow", duration=0.5))
    with pytest.raises(InputDomainError):
        sweep_parameters([scenario], method="discrete", grid=())


def test_zero_noise_adjacent_lane_has_no_false_positives():
    # Objects that never enter the host lane, measured without noise, must
    # never be assigned to it, whatever the parameters.
    scenario = generate_synthetic(
        SynthSpec(kind="adjacent_lane", duration=3.0, noise_scale=0.0)
    )
    for method, grid in (("discrete", (0.1, 0.01)), ("continuous", (0.05, 0.4))):
        for point in sweep_parameters([scenario], method=method, grid=grid):
            assert point.fp_rate == 0.0, method
            assert point.tp_rate is None  # nothing is ever truly in-lane


# ---------------------------------------------------------------------------
# CSV writers
# ---------------------------------------------------------------------------


def test_write_run_csv():
    result = dataclasses.replace(
        result_stub([(2, 2, True), (3, 3, False)]), t=[0.1, 0.2], object_id=["a", "b"]
    )
    buffer = io.StringIO()
    write_run_csv(result, buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "t,object_id,method,assigned,prob,p0,p1,p2,p3,p4"
    first = lines[1].split(",")
    assert first[:4] == ["0.1", "a", "discrete", "2"]
    second = lines[2].split(",")
    assert second[3] == ""  # rejected assignment leaves the column empty
    assert float(second[4]) == pytest.approx(0.9)


def _csv_writer_bytes(result):
    """What `csv.writer` wrote for a run: the reference of `write_run_csv`."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(RUN_CSV_COLUMNS)
    writer.writerows(
        zip(
            [repr(float(t)) for t in result.t],
            result.object_id,
            itertools.repeat(result.method),
            [i if a else "" for i, a in zip(result.index.tolist(), result.accepted.tolist())],
            result.probability.tolist(),
            *result.posteriors.T.tolist(),
        )
    )
    return buffer.getvalue().encode()


# Ids the csv writer quotes or might, and ones it leaves alone.
AWKWARD_IDS = ("a,b", 'q"t', "n\nl", "c\rr", "\r\n", '"', ",", "", " lead", "é✓", "plain")


@st.composite
def run_results(draw):
    """A run of 0, 1 or about WRITE_BLOCK rows: ids from `AWKWARD_IDS`, any
    text, ints or None, times as floats or ints, random posteriors."""
    from laneassign.harness import WRITE_BLOCK

    n = draw(st.sampled_from([0, 1, 2, WRITE_BLOCK - 1, WRITE_BLOCK, WRITE_BLOCK + 1]))
    pool = draw(st.lists(st.one_of(st.sampled_from(AWKWARD_IDS), st.text(max_size=4),
                                   st.integers(), st.none()), min_size=1, max_size=6))
    plain = draw(st.booleans())  # only plain string ids, the common case
    ids = ["s%d" % k for k in range(n)] if plain else [pool[k % len(pool)] for k in range(n)]
    times = draw(st.lists(st.one_of(st.floats(), st.integers(-10**6, 10**6)),
                          min_size=1, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    posteriors = rng.dirichlet(np.ones(N_PATHS), size=n)
    index = rng.integers(0, N_PATHS, size=n)
    return RunResult(
        draw(st.sampled_from(["discrete", "continuous"])),
        [times[k % len(times)] for k in range(n)], ids, [None] * n, index,
        posteriors[np.arange(n), index], rng.random(n) < 0.7, posteriors,
    )


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(result=run_results())
def test_write_run_csv_writes_the_csv_writer_bytes(result):
    buffer = io.StringIO()
    write_run_csv(result, buffer)
    assert buffer.getvalue().encode() == _csv_writer_bytes(result)


@pytest.mark.parametrize("method", ["discrete", "continuous"])
def test_write_run_csv_takes_prob_from_the_p_cell_at_the_index(method):
    # The `prob` cell is the row's p cell at `index`; `_csv_writer_bytes`
    # writes `probability` itself.
    result = run_pipeline(parse_scenario(_valid_scenario("replay-1")), method=method)
    rows = np.arange(len(result))
    assert len(result) > 5000
    np.testing.assert_array_equal(result.probability, result.posteriors[rows, result.index])
    buffer = io.StringIO()
    write_run_csv(result, buffer)
    assert buffer.getvalue().encode() == _csv_writer_bytes(result)


@pytest.mark.parametrize("object_id", AWKWARD_IDS + (7, None))
def test_write_run_csv_writes_each_id_as_the_csv_writer_does(object_id):
    # Each id alone among plain ones, so that no other id decides the block.
    result = dataclasses.replace(
        result_stub([(2, 2, True), (3, 3, False), (0, 0, True)]),
        t=[0.1, 0.2, 3], object_id=["a", object_id, "b"],
    )
    buffer = io.StringIO()
    write_run_csv(result, buffer)
    assert buffer.getvalue().encode() == _csv_writer_bytes(result)


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
