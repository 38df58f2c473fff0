"""Self-tests of the tracer and of the output checks."""

import importlib

import numpy as np
import pytest

import checks
import replay_gen
from checks import OutputCheck
from laneassign import cli
from tracing import TRACED, Tracer, _resolve, layer_metrics


def _attributes():
    """(owner, attribute, current object) of every traced attribute."""
    found = []
    for module_name, path, _ in TRACED:
        owner, attribute = _resolve(importlib.import_module(f"laneassign.{module_name}"), path)
        found.append((owner, attribute, owner.__dict__[attribute]))
    return found


def _traced(tracer, argv):
    tracer.install()
    tracer.begin_cycle()
    try:
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    tracer.end_cycle()


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    path = tmp_path_factory.mktemp("replay") / "scenario.jsonl"
    replay_gen.write(4, str(path), n_frames=40)
    return path


@pytest.mark.parametrize("method", ["discrete", "continuous"])
def test_traced_output_equals_untraced(tmp_path, scenario, method):
    plain, traced = tmp_path / "plain.csv", tmp_path / "traced.csv"
    argv = ["run", "--scenario", str(scenario), "--method", method, "--out"]
    assert cli.main(argv + [str(plain)]) == 0
    tracer = Tracer()
    _traced(tracer, argv + [str(traced)])
    assert checks.digest(plain) == checks.digest(traced)
    assert tracer.missing == []
    assert len(tracer.start) > 0


def test_wrapped_attributes_are_the_originals_afterwards(tmp_path, scenario):
    before = _attributes()
    tracer = Tracer()
    tracer.install()
    assert all(owner.__dict__[attribute] is not obj for owner, attribute, obj in before)
    tracer.uninstall()
    _traced(Tracer(), ["run", "--scenario", str(scenario), "--out", str(tmp_path / "o.csv")])
    assert all(owner.__dict__[attribute] is obj for owner, attribute, obj in before)


def test_sweep_counts_one_transform_and_assignment_per_grid_point_and_object_frame(tmp_path):
    # straight_follow: 400 frames with two objects each.
    tracer = Tracer()
    _traced(tracer, ["sweep", "--method", "discrete", "--suite", "straight_follow",
                     "--grid", "0.1,0.01,0.001", "--out", str(tmp_path / "roc.csv")])
    metrics = layer_metrics(tracer)
    assert metrics["geometry.transform_to_path.calls"] == 3 * 800
    assert metrics["estimator.assign.calls"] == 3 * 800
    assert metrics["discrete_filter.build_transition_matrix.distinct_ratio"] == 3 / 2400


def test_self_time_excludes_children(tmp_path, scenario):
    tracer = Tracer()
    _traced(tracer, ["run", "--scenario", str(scenario), "--method", "continuous",
                     "--out", str(tmp_path / "o.csv")])
    spans = tracer.spans()
    assert (spans["self_ns"] >= 0).all()
    assert (spans["self_ns"] <= spans["duration_ns"]).all()
    roots = spans["parent"] == -1
    assert tracer.names[spans["name_id"][roots][0]] == "cli.main"
    # Each root span covers the whole tree below it.
    assert spans["duration_ns"][roots].sum() >= spans["self_ns"].sum() * 0.999
    assert np.all(spans["invocation"] == -1)


def _run_csv(tmp_path, scenario):
    out = tmp_path / "run.csv"
    assert cli.main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
    return out, checks.scenario_keys(scenario)


def test_output_check_counts_mismatched_and_inconsistent_rows(tmp_path, scenario):
    out, keys = _run_csv(tmp_path, scenario)
    check = OutputCheck("run", None, keys, "discrete")
    assert check(out, 0) == 0
    lines = out.read_text().splitlines()
    row = lines[5].split(",")
    row[5] = repr(float(row[5]) + 1e-9)  # p0 off by more than the tolerance
    lines[5] = ",".join(row)
    accepted = next(i for i in range(6, len(lines)) if lines[i].split(",")[3])
    row = lines[accepted].split(",")
    row[3] = ""  # rejected although prob >= p_min
    lines[accepted] = ",".join(row)
    out.write_text("\n".join(lines) + "\n")
    assert check(out, 0) == 2
    assert check(out, 2) == len(keys)


def test_output_check_of_mc_rejects_skipped_points(tmp_path):
    out = tmp_path / "mc.csv"
    assert cli.main(["mc-validate", "--samples", "200", "--out", str(out)]) == 0
    check = OutputCheck("mc")
    assert check(out, 0) == 0
    lines = out.read_text().splitlines()
    lines[1] = ",".join(lines[1].split(",")[:8] + ["", "skipped"])
    out.write_text("\n".join(lines) + "\n")
    assert check(out, 0) == 1
