"""End-to-end tests of the command line interface."""

import csv
import json

import pytest

from laneassign import parse_scenario
from laneassign.cli import main


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def write_minimal_scenario(path, n_frames=5):
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
                ],
            }
        )
    path.write_text("\n".join(json.dumps(f) for f in frames) + "\n")


def test_synth_writes_parseable_scenario(tmp_path):
    out = tmp_path / "scenario.jsonl"
    code = main(["synth", "--kind", "target_lane_change", "--duration", "2.0",
                 "--out", str(out)])
    assert code == 0
    frames = parse_scenario(out.read_text())
    assert len(frames) == 40
    assert frames[0].objects[0].object_id == "changer"


def test_synth_noise_scale_zero_is_noiseless(tmp_path):
    out = tmp_path / "clean.jsonl"
    assert main(["synth", "--kind", "straight_follow", "--duration", "1.0",
                 "--noise-scale", "0", "--out", str(out)]) == 0
    frames = parse_scenario(out.read_text())
    assert all(o.measurement.y in (0.0, 3.5) for f in frames for o in f.objects)


@pytest.mark.parametrize("duration", ["inf", "nan"])
def test_synth_rejects_a_non_finite_duration(tmp_path, capsys, duration):
    out = tmp_path / "scenario.jsonl"
    assert main(["synth", "--kind", "straight_follow", "--duration", duration,
                 "--out", str(out)]) == 2
    error = capsys.readouterr().err
    assert error == f"error: duration must be finite, got {duration}\n"


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


def test_error_exit_code_on_bad_grid(tmp_path):
    scenario = tmp_path / "s.jsonl"
    write_minimal_scenario(scenario)
    assert main(["sweep", "--method", "discrete", "--scenario", str(scenario),
                 "--grid", "0.1,abc"]) == 2


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
    frames = parse_scenario(out)
    assert len(frames) == 4
