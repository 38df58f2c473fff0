"""The replay scenario generator: deterministic, parseable, recording-like."""

import json
from collections import defaultdict

import pytest

import replay_gen
from laneassign.harness import parse_scenario

SEEDS = (0, 1, 7)


@pytest.fixture(scope="module", params=SEEDS)
def frames(request):
    return replay_gen.generate(request.param)


def test_same_seed_gives_identical_bytes(tmp_path):
    first, second, other = tmp_path / "a.jsonl", tmp_path / "b.jsonl", tmp_path / "c.jsonl"
    replay_gen.write(5, str(first))
    replay_gen.write(5, str(second))
    replay_gen.write(6, str(other))
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes() != other.read_bytes()


def test_parser_accepts_the_scenario(tmp_path):
    path = tmp_path / "s.jsonl"
    counts = replay_gen.write(2, str(path))
    parsed = parse_scenario(path.read_text())
    assert len(parsed) == counts["frames"] == replay_gen.N_FRAMES
    assert sum(len(f.objects) for f in parsed) == counts["object_frames"]


def test_every_object_has_v_lat_and_gt(frames):
    for frame in frames:
        for obj in frame["objects"]:
            assert isinstance(obj["v_lat"], float)
            assert obj["gt"] in range(5)


def test_tens_of_objects_per_frame(frames):
    sizes = [len(frame["objects"]) for frame in frames]
    assert min(sizes) >= 10
    assert sum(sizes) / len(sizes) >= 20


def test_all_five_regions_and_lane_changes(frames):
    regions = defaultdict(set)
    for frame in frames:
        for obj in frame["objects"]:
            regions[obj["id"]].add(obj["gt"])
    assert set().union(*regions.values()) == set(range(5))
    assert any(len(seen) > 1 for seen in regions.values())


def test_gap_longer_than_absence_timeout_and_new_ids(frames):
    seen = defaultdict(list)
    for frame in frames:
        for obj in frame["objects"]:
            seen[obj["id"]].append(frame["t"])
    gaps = [b - a for times in seen.values() for a, b in zip(times, times[1:])]
    assert max(gaps) > replay_gen.ABSENCE_TIMEOUT
    assert len(seen) > replay_gen.N_SLOTS


def test_jittered_period_varying_yaw_and_partial_bounds(frames):
    periods = [b["t"] - a["t"] for a, b in zip(frames, frames[1:])]
    assert all(0.039 <= p <= 0.061 for p in periods)
    assert len(set(periods)) > len(periods) // 2
    yaw = [frame["host"]["yaw_rate"] for frame in frames]
    assert max(yaw) - min(yaw) > 0.02
    with_bounds = sum("bounds" in frame for frame in frames)
    assert 0 < with_bounds < len(frames)


def test_scenario_is_json_lines(tmp_path):
    path = tmp_path / "s.jsonl"
    replay_gen.write(3, str(path))
    lines = path.read_text().splitlines()
    assert all(isinstance(json.loads(line), dict) for line in lines)
