"""End-to-end tests of the command line interface."""

import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from laneassign import (
    Assignment,
    GridSpec,
    HostState,
    PathPosterior,
    SynthSpec,
    build_suite,
    generate_synthetic,
    load_scenario,
    mc_validate,
    parse_scenario,
    run_pipeline,
    sweep_parameters,
    write_mc_csv,
    write_roc_csv,
    write_run_csv,
    write_scenario,
)
from laneassign import harness
from laneassign.cli import build_parser, main
from laneassign.harness import SCENARIO_KINDS, SWEEP_CONFIG


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def write_minimal_scenario(path, n_frames=5, objects=1):
    frames = []
    for k in range(n_frames):
        frames.append(
            {
                "t": 0.1 * k,
                "host": {"v": 25.0, "yaw_rate": 0.0, "var_v": 0.25, "var_yaw": 1e-4},
                "objects": [
                    {
                        "id": "lead",
                        "x": 50.0,
                        "y": 0.1,
                        "var_x": 0.04,
                        "var_y": 0.04,
                        "gt": 2,
                    }
                ][:objects],
            }
        )
    path.write_text("\n".join(json.dumps(f) for f in frames) + "\n")


def test_synth_writes_parseable_scenario(tmp_path):
    out = tmp_path / "scenario.jsonl"
    code = main(["synth", "--kind", "target_lane_change", "--duration", "2.0",
                 "--out", str(out)])
    assert code == 0
    scenario = parse_scenario(out.read_text())
    assert len(scenario) == 40
    assert scenario.id[0] == "changer"


def test_synth_noise_scale_zero_is_noiseless(tmp_path):
    out = tmp_path / "clean.jsonl"
    assert main(["synth", "--kind", "straight_follow", "--duration", "1.0",
                 "--noise-scale", "0", "--out", str(out)]) == 0
    assert all(y in (0.0, 3.5) for y in parse_scenario(out.read_text()).y)


@pytest.mark.parametrize("duration", ["inf", "nan"])
def test_synth_rejects_a_non_finite_duration(tmp_path, capsys, duration):
    out = tmp_path / "scenario.jsonl"
    assert main(["synth", "--kind", "straight_follow", "--duration", duration,
                 "--out", str(out)]) == 2
    error = capsys.readouterr().err
    assert error == f"error: duration must be finite, got {duration}\n"


@pytest.mark.parametrize(
    "scale, level", [("-1", "-0.2"), ("nan", "nan"), ("inf", "inf"), ("1e200", "2e+199")]
)
def test_synth_rejects_bad_noise_levels(tmp_path, capsys, scale, level):
    # Negative, non-finite, and finite but with a square that overflows.
    out = tmp_path / "scenario.jsonl"
    assert main(["synth", "--kind", "host_curve", f"--noise-scale={scale}",
                 "--out", str(out)]) == 2
    error = capsys.readouterr().err
    assert error == (
        f"error: noise level sigma_x must be >= 0 with a finite square, got {level}\n"
    )


@pytest.mark.parametrize("kind", ["straight_follow", "noisy_yaw"])
def test_synth_names_the_duration_where_the_yaw_flap_phase_overflows(tmp_path, capsys, kind):
    # Two frames, but 2 pi 0.25 Hz times the duration is past the largest
    # float; every kind takes the same durations.
    argv = ["synth", "--kind", kind, "--step", "1e308", "--out", str(tmp_path / "s.jsonl")]
    assert main(argv + ["--duration", "1.1e308"]) == 0
    assert main(argv + ["--duration", "1.7e308"]) == 2
    assert capsys.readouterr().err == (
        "error: duration must give the yaw flap a finite phase, got 1.7e+308\n"
    )


@pytest.mark.parametrize("step", ["1e-300", "1e-9"])
def test_synth_rejects_too_many_frames(tmp_path, capsys, step):
    # 1e-300 overflowed the frame count; 1e-9 asks for 10^9 frames.
    tracemalloc.start()
    try:
        code = main(["synth", "--kind", "straight_follow", "--step", step,
                     "--duration", "1", "--out", str(tmp_path / "s.jsonl")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 10**6  # failed before allocating the frames
    assert capsys.readouterr().err == (
        f"error: step {float(step)} over duration 1.0 gives more than 1000000 frames\n"
    )


def test_synth_rejects_a_step_below_the_timestamp_resolution(tmp_path, capsys):
    # Rounded to 9 decimals, the first frames would all lie at t = 0.0, and
    # `run` would reject the file.
    code = main(["synth", "--kind", "straight_follow", "--step", "1e-10",
                 "--duration", "1e-9", "--out", str(tmp_path / "s.jsonl")])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "error: step 1e-10 is below the timestamp resolution"
    )


def test_run_produces_assignment_csv(tmp_path):
    scenario = tmp_path / "s.jsonl"
    write_minimal_scenario(scenario)
    out = tmp_path / "run.csv"
    code = main(["run", "--scenario", str(scenario), "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    assert rows[0] == ["t", "object_id", "method", "assigned", "prob",
                       "p0", "p1", "p2", "p3", "p4"]
    assert len(rows) == 6
    assert rows[1][1] == "lead"
    assert rows[1][2] == "discrete"
    probs = [float(p) for p in rows[-1][5:]]
    assert sum(probs) == pytest.approx(1.0)
    assert rows[-1][3] == "2"  # converged on the host path


@pytest.mark.parametrize("method", ["discrete", "continuous"])
@pytest.mark.parametrize("kind", SCENARIO_KINDS)
def test_run_csv_is_the_library_csv(tmp_path, kind, method):
    # `run` is `run_pipeline` over `load_scenario`, written by `write_run_csv`:
    # the file it writes and the library's CSV must be the same bytes.
    scenario, out = tmp_path / "s.jsonl", tmp_path / "run.csv"
    with open(scenario, "w", encoding="utf-8") as handle:
        write_scenario(build_suite([kind], seed=0)[kind], handle)
    assert main(["run", "--scenario", str(scenario), "--method", method,
                 "--out", str(out)]) == 0
    expected = io.StringIO(newline="")
    write_run_csv(run_pipeline(parse_scenario(scenario.read_text()), method), expected)
    assert out.read_bytes() == expected.getvalue().encode()


def test_run_quotes_ids_as_csv_writer_does(tmp_path):
    ids = ["a,b", 'q"t', "n\nl", " lead", ""]
    quoted = ['"a,b"', '"q""t"', '"n\nl"', " lead", ""]
    scenario, out = tmp_path / "s.jsonl", tmp_path / "run.csv"
    write_minimal_scenario(scenario, n_frames=1)
    frame = json.loads(scenario.read_text())
    frame["objects"] = [dict(frame["objects"][0], id=i, x=20.0 + k) for k, i in enumerate(ids)]
    scenario.write_text(json.dumps(frame) + "\n")
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
    text = out.read_bytes().decode()
    for cell in quoted:
        assert f"\n0.0,{cell},discrete," in text
    assert [row[1] for row in read_csv(out)[1:]] == ids


def test_run_rejects_an_id_with_a_carriage_return(tmp_path, capsys):
    # The csv writer of Python 3.11 leaves a lone \r unquoted (it quotes the
    # line terminator, not \r), so the run CSV of such an id would not read
    # back.
    scenario, out = tmp_path / "s.jsonl", tmp_path / "run.csv"
    write_minimal_scenario(scenario, n_frames=2)
    first, second = scenario.read_text().splitlines()
    scenario.write_text(first + "\n" + second.replace('"lead"', '"c\\rr"') + "\n")
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {scenario}: line 2: field 'id' must not hold a carriage return\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("separator", ["\u2028", "\u0085"])
def test_text_file_and_run_read_the_same_ids(tmp_path, separator):
    # JSON allows these characters raw in a string; only "\n", "\r" and
    # "\r\n" end a line, in a file and in text alike.
    scenario, out = tmp_path / "s.jsonl", tmp_path / "run.csv"
    write_minimal_scenario(scenario, n_frames=2)
    text = scenario.read_text().replace('"lead"', f'"a{separator}b"')
    scenario.write_text(text, encoding="utf-8")
    ids = [f"a{separator}b"] * 2
    assert parse_scenario(text).id == ids
    assert load_scenario(str(scenario)).id == ids
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
    assert [row[1] for row in read_csv(out)[1:]] == ids


def count_constructions(monkeypatch):
    """The class names of the per-object and per-frame values built from
    here on, and "_check_object" for each per-object check of the parser."""
    calls = []
    for cls in (HostState, PathPosterior, Assignment):
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            calls.append(_name)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)

    def counting_check(*args, _check=harness._check_object):
        calls.append("_check_object")
        _check(*args)

    monkeypatch.setattr(harness, "_check_object", counting_check)
    return calls


@pytest.mark.parametrize("method", ["discrete", "continuous"])
def test_run_builds_no_per_object_objects(tmp_path, monkeypatch, method):
    # `run` stays columnar from file to CSV: no object of these classes is
    # built and no object is checked on its own, whatever the number of
    # object-frames.
    scenario = tmp_path / "s.jsonl"
    with open(scenario, "w", encoding="utf-8") as handle:
        write_scenario(generate_synthetic(SynthSpec("noisy_yaw", duration=2.0)), handle)
    calls = count_constructions(monkeypatch)
    assert main(["run", "--scenario", str(scenario), "--method", method,
                 "--out", str(tmp_path / "run.csv")]) == 0
    assert calls == []
    harness._check_object(1.0, 0.0, None)  # the count works
    assert calls == ["_check_object"]


def write_synth_files(tmp_path):
    """Two generated scenarios as files; both hold a `lead`, whose tracks
    must stay apart."""
    paths = []
    for kind, seed in (("straight_follow", 3), ("host_curve", 5)):
        path = tmp_path / f"{kind}.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            write_scenario(generate_synthetic(SynthSpec(kind, duration=8.0, seed=seed)), handle)
        paths.append(path)
    return paths


@pytest.mark.parametrize("source", ["suite", "files"])
@pytest.mark.parametrize("method", ["discrete", "continuous"])
def test_sweep_csv_is_the_library_csv(tmp_path, method, source):
    # `sweep` is `sweep_parameters` over `build_suite` or `load_scenario`:
    # the file it writes and the library's CSV must be the same bytes.
    out = tmp_path / "roc.csv"
    argv = ["sweep", "--method", method, "--out", str(out)]
    if source == "suite":
        scenarios = list(build_suite().values())
    else:
        paths = write_synth_files(tmp_path)
        argv += ["--scenario", *map(str, paths)]
        scenarios = [parse_scenario(path.read_text()) for path in paths]
    assert main(argv) == 0
    expected = io.StringIO(newline="")
    write_roc_csv(sweep_parameters(scenarios, method), expected)
    assert out.read_bytes() == expected.getvalue().encode()


@pytest.mark.parametrize("method", ["discrete", "continuous"])
def test_sweep_flags_replace_the_library_sweep_settings(tmp_path, method):
    # A typed filter flag replaces that one setting of SWEEP_CONFIG.
    out = tmp_path / "roc.csv"
    argv = ["sweep", "--method", method, "--suite", "target_lane_change",
            "--eta-gain", "0.5", "--p-min", "0.4", "--out", str(out)]
    assert main(argv) == 0
    config = dataclasses.replace(SWEEP_CONFIG, eta_gain=0.5, p_min=0.4)
    expected = io.StringIO(newline="")
    write_roc_csv(sweep_parameters(
        list(build_suite(["target_lane_change"]).values()), method, config=config
    ), expected)
    assert out.read_bytes() == expected.getvalue().encode()


def run_library(scenario_path):
    return write_run_csv, run_pipeline(load_scenario(scenario_path))


def synth_library(_):
    return write_scenario, generate_synthetic(SynthSpec("target_lane_change"))


def mc_library(_):
    return write_mc_csv, mc_validate(GridSpec(1, 1, 1, 2))


@pytest.mark.parametrize(
    "argv, library",
    [
        (["run", "--scenario", "{scenario}"], run_library),
        (["synth", "--kind", "target_lane_change"], synth_library),
        (["mc-validate", "--x-steps", "1", "--bearing-steps", "1", "--v-steps", "1",
          "--yaw-steps", "2"], mc_library),
    ],
    ids=["run", "synth", "mc-validate"],
)
def test_a_command_without_optional_flags_is_the_library_call(tmp_path, argv, library):
    # The command line states no default of its own: left out, a setting
    # takes the library's default.  The lane change reports v_lat, so the
    # run reads eta_gain.
    scenario = tmp_path / "s.jsonl"
    with open(scenario, "w", encoding="utf-8") as handle:
        write_scenario(generate_synthetic(SynthSpec("target_lane_change")), handle)
    out = tmp_path / "out"
    assert main([arg.format(scenario=scenario) for arg in argv] + ["--out", str(out)]) == 0
    write, value = library(scenario)
    expected = io.StringIO(newline="")
    write(value, expected)
    assert out.read_bytes() == expected.getvalue().encode()


@pytest.mark.parametrize(
    "argv, given",
    [
        (["run", "--scenario", "s.jsonl"], {"scenario", "out"}),
        (["sweep", "--method", "discrete"], {"method", "out"}),
        (["synth", "--kind", "host_curve"], {"kind", "out"}),
        (["mc-validate"], {"out"}),
    ],
)
def test_the_parser_fills_in_no_library_setting(argv, given):
    args = vars(build_parser().parse_args(argv))
    assert args.keys() - {"command", "func"} == given


@pytest.mark.parametrize("source", ["suite", "files"])
@pytest.mark.parametrize("method", ["discrete", "continuous"])
def test_sweep_builds_no_per_object_objects(tmp_path, monkeypatch, method, source):
    # Like `run`, `sweep` stays columnar from the generator or the files to
    # the CSV.
    argv = ["sweep", "--method", method, "--out", str(tmp_path / "roc.csv")]
    if source == "files":
        argv += ["--scenario", *map(str, write_synth_files(tmp_path))]
    calls = count_constructions(monkeypatch)
    assert main(argv) == 0
    assert calls == []
    HostState(25.0, 0.0)  # the count works
    assert calls == ["HostState"]


@pytest.mark.parametrize("kind", SCENARIO_KINDS)
def test_synth_builds_no_per_object_objects(tmp_path, monkeypatch, kind):
    # `synth` writes the generator's columns as they are.
    calls = count_constructions(monkeypatch)
    assert main(["synth", "--kind", kind, "--duration", "2.0",
                 "--out", str(tmp_path / "s.jsonl")]) == 0
    assert calls == []


def test_run_continuous_method(tmp_path):
    scenario = tmp_path / "s.jsonl"
    write_minimal_scenario(scenario)
    out = tmp_path / "run.csv"
    assert main(["run", "--scenario", str(scenario), "--method", "continuous",
                 "--out", str(out)]) == 0
    rows = read_csv(out)
    assert all(r[2] == "continuous" for r in rows[1:])


def test_sweep_over_file_scenario(tmp_path):
    scenario = tmp_path / "s.jsonl"
    write_minimal_scenario(scenario, n_frames=20)
    out = tmp_path / "roc.csv"
    code = main(["sweep", "--method", "discrete", "--scenario", str(scenario),
                 "--grid", "0.1,0.01", "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    assert rows[0] == ["param", "tp_rate", "fp_rate", "frames"]
    assert [r[0] for r in rows[1:]] == ["epsilon=0.1", "epsilon=0.01"]
    for row in rows[1:]:
        assert row[1] == "" or 0.0 <= float(row[1]) <= 1.0
        assert row[2] == "" or 0.0 <= float(row[2]) <= 1.0


def test_sweep_scenario_flag_needs_a_path(tmp_path):
    # A bare --scenario would otherwise sweep the bundled suite.
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--method", "discrete", "--scenario",
              "--out", str(tmp_path / "roc.csv")])
    assert excinfo.value.code == 2
    assert not (tmp_path / "roc.csv").exists()


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--seed", "5", "--step", "0.1", "--suite", "host_curve"], "--suite, --seed, --step"),
        (["--step", "0.1"], "--step"),
        (["--suite", "host_curve"], "--suite"),
        (["--suite", "all"], "--suite"),
    ],
)
def test_sweep_rejects_suite_flags_next_to_scenario_files(tmp_path, capsys, flags, named):
    # They select and generate the bundled suite, which the files replace.
    scenario = tmp_path / "s.jsonl"
    write_minimal_scenario(scenario)
    out = tmp_path / "roc.csv"
    code = main(["sweep", "--method", "discrete", "--scenario", str(scenario), *flags,
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {named}: only for the bundled suite, not with --scenario\n"
    )
    assert not out.exists()


def test_sweep_builtin_suite_is_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["sweep", "--method", "continuous", "--suite", "adjacent_lane",
            "--grid", "0.1,0.2"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("flag", ["--epsilon", "--sigma-nu"])
def test_sweep_rejects_the_run_only_parameter_flags(tmp_path, flag):
    # The swept parameter comes from --grid.
    scenario = tmp_path / "s.jsonl"
    write_minimal_scenario(scenario)
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--method", "discrete", "--scenario", str(scenario),
              flag, "0.1"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize(
    "method, flag", [("discrete", "--epsilon"), ("continuous", "--sigma-nu")]
)
def test_run_parameter_flags_change_the_output(tmp_path, method, flag):
    scenario = tmp_path / "s.jsonl"
    write_minimal_scenario(scenario)
    default, changed = tmp_path / "default.csv", tmp_path / "changed.csv"
    args = ["run", "--scenario", str(scenario), "--method", method]
    assert main(args + ["--out", str(default)]) == 0
    assert main(args + [flag, "0.2", "--out", str(changed)]) == 0
    assert read_csv(changed) != read_csv(default)


def test_mc_validate_csv(tmp_path):
    out = tmp_path / "mc.csv"
    code = main(["mc-validate", "--samples", "200", "--x-steps", "2",
                 "--bearing-steps", "1", "--v-steps", "2", "--yaw-steps", "1",
                 "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    assert rows[0] == ["x", "y", "v", "yaw_rate", "var_x", "var_y",
                       "var_v", "var_yaw", "hellinger", "status"]
    assert len(rows) == 5
    assert all(r[-1] in ("ok", "skipped") for r in rows[1:])


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--x-steps", "-3"], "x_steps must be >= 1, got -3"),
        (["--x-steps", "0"], "x_steps must be >= 1, got 0"),
        (["--bearing-steps", "0"], "bearing_steps must be >= 1, got 0"),
        (["--v-steps", "0"], "v_steps must be >= 1, got 0"),
        (["--yaw-steps", "-1"], "yaw_steps must be >= 1, got -1"),
        (["--seed", "-1"], "seed must be >= 0, got -1"),
    ],
)
def test_mc_validate_names_the_out_of_range_flag(tmp_path, capsys, flags, message):
    out = tmp_path / "mc.csv"
    assert main(["mc-validate", "--samples", "10", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--x-steps", "100000", "--bearing-steps", "100000"],
         "the grid must have at most 1000000 points, got 10000000000"),
        (["--samples", "100000000000"], "samples must be <= 1000000, got 100000000000"),
        (["--bins", "1000000000000"], "bins must be <= 100000, got 1000000000000"),
    ],
)
def test_mc_validate_rejects_work_beyond_its_caps(tmp_path, capsys, flags, message):
    # Unchecked, 10^10 points never finish, and the draws and bins run out
    # of memory.
    out = tmp_path / "mc.csv"
    one_point = ["--x-steps", "1", "--bearing-steps", "1", "--v-steps", "1", "--yaw-steps", "1"]
    tracemalloc.start()
    try:
        code = main(["mc-validate", "--samples", "2", *one_point, *flags, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 10**6  # failed before allocating the points, draws or bins
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_error_exit_code_on_malformed_scenario(tmp_path, capsys):
    scenario = tmp_path / "bad.jsonl"
    scenario.write_text('{"t": 0.0, "host": {"v": 25.0}}\n')
    assert main(["run", "--scenario", str(scenario)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "line 1" in err


def test_error_exit_code_on_missing_file(tmp_path):
    assert main(["run", "--scenario", str(tmp_path / "nope.jsonl")]) == 2


def test_error_exit_code_on_bad_parameter(tmp_path):
    scenario = tmp_path / "s.jsonl"
    write_minimal_scenario(scenario)
    assert main(["run", "--scenario", str(scenario), "--p-min", "2.0"]) == 2


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--p-min", "2"], "p_min must lie in [0, 1], got 2.0"),
        (["--epsilon", "nan"], "epsilon must be finite, got nan"),
        (["--method", "continuous", "--sigma-nu", "0"],
         "sigma_nu must be finite and > 0, got 0.0"),
        (["--eta-gain", "inf"], "eta_gain must be finite, got inf"),
    ],
)
@pytest.mark.parametrize("objects", [0, 1])
def test_run_names_the_out_of_range_setting(tmp_path, capsys, flags, message, objects):
    # Checked before filtering: a scenario without objects fails too, and
    # the message names the flag's setting, not a frame or a derived value.
    scenario = tmp_path / "s.jsonl"
    write_minimal_scenario(scenario, objects=objects)
    assert main(["run", "--scenario", str(scenario), *flags]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "x, next_line, line",
    [("1" + "0" * 400, "", 1), ("1" * 4400, "", 1), ("50.0", "[" * 100_000, 2)],
)
def test_unreadable_scenario_lines_exit_2(tmp_path, capsys, x, next_line, line):
    # A float overflow, an integer too long to convert and nesting too deep
    # to decode each name their file and line instead of ending in a
    # traceback.
    scenario = tmp_path / "s.jsonl"
    write_minimal_scenario(scenario, n_frames=1)
    text = scenario.read_text().replace('"x": 50.0', f'"x": {x}')
    scenario.write_text(text + next_line)
    assert main(["run", "--scenario", str(scenario)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {scenario}: line {line}: ")


def test_sweep_names_the_scenario_file_that_fails_to_parse(tmp_path, capsys):
    good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
    write_minimal_scenario(good)
    write_minimal_scenario(bad, n_frames=1)
    bad.write_text(bad.read_text().replace('"x": 50.0', '"x": -40.0'))
    assert main(["sweep", "--method", "discrete", "--scenario", str(good), str(bad)]) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: line 1: objects must be ahead of the host, got x=-40.0\n"
    )


@pytest.mark.parametrize(
    "lines, message",
    [
        ([b"\xff\xfe"], "line 2: invalid UTF-8: 'utf-8' codec can't decode byte 0xff "
         "in position 0: invalid start byte"),
        # Inside a string that the JSON decoder would take.
        ([b'{"t": 1.0, "host": {}, "objects": [{"id": "\xe9"}]}'],
         "line 2: invalid UTF-8: 'utf-8' codec can't decode byte 0xe9 in position 43: "
         "invalid continuation byte"),
        # A fault on an earlier line of the block is named first.
        ([b'{"t": 0.0}', b"\xff"], "line 2: missing field 'host' in frame"),
        # After a valid line with a non-ASCII id.
        ([b""] * 70 + [json.dumps({
            "t": 1.0, "host": {"v": 25.0, "yaw_rate": 0.0, "var_v": 0.25, "var_yaw": 1e-4},
            "objects": [{"id": "\u00e9", "x": 50.0, "y": 0.1, "var_x": 0.04, "var_y": 0.04}],
        }, ensure_ascii=False).encode(), b"\xc3"],
         "line 73: invalid UTF-8: 'utf-8' codec can't decode byte 0xc3 in position 0: "
         "invalid continuation byte"),
    ],
    ids=["bytes", "in a string", "after a fault", "in a later block"],
)
def test_invalid_utf8_names_its_line(tmp_path, capsys, lines, message):
    scenario = tmp_path / "s.jsonl"
    write_minimal_scenario(scenario, n_frames=1)
    scenario.write_bytes(scenario.read_bytes() + b"\n".join(lines) + b"\n")
    assert main(["run", "--scenario", str(scenario)]) == 2
    assert capsys.readouterr().err == f"error: {scenario}: {message}\n"


def write_huge_object_scenario(path, var=0.04, position=1e300, alpha=0.0):
    """One frame whose object lies at x = y = `position`, by default 1e300,
    where the offset overflows; the parser takes it.  The gradient terms
    overflow, so the first-order variance, their sum, is +inf."""
    write_minimal_scenario(path, n_frames=1)
    frame = json.loads(path.read_text())
    frame["host"]["alpha"] = alpha
    frame["objects"][0].update(x=position, y=position, var_x=var, var_y=var)
    path.write_text(json.dumps(frame) + "\n")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("method", ["discrete", "continuous"])
@pytest.mark.parametrize(
    "position, alpha",
    [(1e300, 0.0), (1.7e308, 0.3)],
    # At 1.7e308 with a heading offset, x cos(alpha) + y sin(alpha) overflows.
    ids=["1e300", "1.7e308 with a heading offset"],
)
def test_an_overflowing_offset_is_an_error_without_warnings(
    tmp_path, capsys, method, position, alpha
):
    # Under the "error" filter a numpy RuntimeWarning would end the command
    # in a traceback; the user sees the domain error and exit code 2 only.
    scenario = tmp_path / "huge.jsonl"
    write_huge_object_scenario(scenario, position=position, alpha=alpha)
    assert main(["run", "--scenario", str(scenario), "--method", method]) == 2
    assert capsys.readouterr().err == (
        "error: frame 0 (t=0.0): std must be finite and >= 0, got inf\n"
    )


@pytest.mark.parametrize("order", ["good first", "bad first"])
def test_sweep_names_the_scenario_file_that_fails_in_the_engine(tmp_path, capsys, order):
    good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
    write_minimal_scenario(good)
    write_huge_object_scenario(bad, var=1e300)
    paths = [good, bad] if order == "good first" else [bad, good]
    argv = ["sweep", "--method", "discrete", "--scenario", *map(str, paths)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: frame 0 (t=0.0): std must be finite and >= 0, got inf\n"
    )


@pytest.mark.parametrize("order", ["good first", "bad first"])
def test_sweep_names_the_scenario_file_without_ground_truth(tmp_path, capsys, order):
    good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
    write_minimal_scenario(good)
    write_minimal_scenario(bad)
    frames = [json.loads(line) for line in bad.read_text().splitlines()]
    for frame in frames:
        del frame["objects"][0]["gt"]
    bad.write_text("".join(json.dumps(frame) + "\n" for frame in frames))
    paths = [good, bad] if order == "good first" else [bad, good]
    argv = ["sweep", "--method", "discrete", "--scenario", *map(str, paths)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: object 'lead' at t=0.0 has no ground truth\n"
    )


def test_error_exit_code_on_bad_grid(tmp_path, capsys):
    scenario = tmp_path / "s.jsonl"
    write_minimal_scenario(scenario)
    assert main(["sweep", "--method", "discrete", "--scenario", str(scenario),
                 "--grid", "0.1,abc"]) == 2
    assert capsys.readouterr().err == (
        "error: --grid '0.1,abc': could not convert string to float: 'abc'\n"
    )


@pytest.mark.parametrize("grid", ["", ","])
def test_a_grid_flag_without_values_is_an_error(tmp_path, capsys, grid):
    # Only a left-out --grid gives the default grid.
    assert main(["sweep", "--method", "discrete", "--suite", "straight_follow",
                 "--grid", grid, "--out", str(tmp_path / "roc.csv")]) == 2
    assert capsys.readouterr().err == "error: parameter grid must be nonempty\n"


def test_argparse_rejects_unknown_choice(tmp_path):
    scenario = tmp_path / "s.jsonl"
    write_minimal_scenario(scenario)
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--scenario", str(scenario), "--method", "psychic"])
    assert excinfo.value.code == 2


def test_stdout_output(capsys):
    assert main(["synth", "--kind", "straight_follow", "--duration", "0.2",
                 "--out", "-"]) == 0
    out = capsys.readouterr().out
    assert len(parse_scenario(out)) == 4


def test_the_module_runs_as_a_script(tmp_path):
    # `python -m laneassign.cli`, as the README offers it.  The child finds
    # the package through PYTHONPATH, which pytest's `pythonpath` setting
    # does not reach.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}

    def cli(*args):
        return subprocess.run([sys.executable, "-m", "laneassign.cli", *args],
                              env=env, capture_output=True, text=True, timeout=60)

    done = cli("synth", "--kind", "straight_follow", "--duration", "0.1")
    assert done.returncode == 0
    assert len(parse_scenario(done.stdout)) == 2
    done = cli("run", "--scenario", str(tmp_path / "missing.jsonl"))
    assert done.returncode == 2
    assert done.stderr.startswith("error: ")


def loaded_by_importing_the_cli(*packages):
    """The modules of `packages` that a fresh `import laneassign.cli` loads."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = ("import sys, laneassign.cli; print(sorted(m for m in sys.modules "
             "for p in sys.argv[1:] if m == p or m.startswith(p + '.')))")
    done = subprocess.run([sys.executable, "-c", probe, *packages],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_importing_the_cli_loads_no_scipy():
    # Phi is the package's own port; a fresh interpreter that imports the
    # command line loads numpy and nothing of scipy.
    assert loaded_by_importing_the_cli("scipy") == "[]"


def test_importing_the_cli_loads_neither_the_thread_pool_nor_the_logger():
    # Only mc-validate starts a thread and only a posterior reset warns;
    # `run` and `sweep` load neither module.
    assert loaded_by_importing_the_cli("concurrent.futures", "logging") == "[]"
