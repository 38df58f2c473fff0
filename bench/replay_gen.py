"""Seeded generator of the recording-like scenario that the `replay` workload runs.

The scenario imitates a logged drive rather than the bundled synthetic suite:

* the frame period is jittered around 50 ms;
* 32 object slots give tens of objects per frame, spread over all five path
  regions, some of them changing lanes, every one with `v_lat` and `gt`;
* objects drop out for short gaps (the track survives) and for gaps longer
  than the pipeline's `absence_timeout` (the track is dropped), and slots
  come back under new ids, so tracks are created and dropped throughout;
* the host's speed and yaw rate vary, and objects sit on the host's current
  arc, so the ground truth is the constructed lateral offset;
* lane-marking `bounds` are present on some frames and absent on others.

Only the standard library's `random.Random` is used, so a seed gives the same
bytes on every run.  The output is plain JSON lines that
`laneassign.harness.parse_scenario` accepts.
"""

from __future__ import annotations

import json
import math
import random

FRAME_PERIOD = 0.05
FRAME_JITTER = 0.01
N_FRAMES = 250
N_SLOTS = 32
LANE_WIDTH = 3.5
HALF_WIDTH = LANE_WIDTH / 2.0
# Region edges of the default layout; index = number of edges below the offset.
REGION_EDGES = (-3.0 * HALF_WIDTH, -HALF_WIDTH, HALF_WIDTH, 3.0 * HALF_WIDTH)
ABSENCE_TIMEOUT = 1.0  # the pipeline default; longer gaps drop the track
RANGE_LIMITS = (8.0, 110.0)
SIGMA_V = 0.3
SIGMA_YAW = 0.005
SIGMA_V_LAT = 0.15


def region(lateral: float) -> int:
    """Path index of a true lateral offset under the default layout."""
    return sum(lateral > edge for edge in REGION_EDGES)


class _Slot:
    """One object slot: an object that comes and goes, possibly under new ids."""

    def __init__(self, rng: random.Random, index: int):
        self.index = index
        self.generation = 0
        self.lane = index % 5 - 2  # round-robin start covers all five regions
        self.lateral = self.lane * LANE_WIDTH
        self.range = rng.uniform(*RANGE_LIMITS)
        self.range_rate = rng.uniform(-3.0, 3.0)
        self.change: tuple[float, float, float, float] | None = None
        self.present_until = rng.uniform(2.0, 10.0)
        self.absent_until = -1.0
        self.next_gap: float | None = None  # forced length of the next gap
        self.keep_id = True  # whether the object returns under its old id

    @property
    def object_id(self) -> str:
        return f"s{self.index}g{self.generation}"


def _place_on_arc(along: float, lateral: float, curvature: float) -> tuple[float, float]:
    """Host-frame position of a point `lateral` left of the arc at arc length `along`."""
    if abs(curvature) < 1e-12:
        return along, lateral
    radius = 1.0 / curvature
    phi = along / radius
    return (radius - lateral) * math.sin(phi), radius - (radius - lateral) * math.cos(phi)


def generate(seed: int, n_frames: int = N_FRAMES) -> list[dict]:
    """The scenario for `seed` as a list of frame records."""
    rng = random.Random(seed)
    slots = [_Slot(rng, i) for i in range(N_SLOTS)]
    # Fixed events, so every seed has them: slot 0 drops out for longer than
    # the absence timeout and returns under its old id; slot 1 changes lanes.
    slots[0].present_until = 2.0
    slots[0].next_gap = 1.5 * ABSENCE_TIMEOUT
    slots[1].change = (1.0, 3.0, slots[1].lateral, slots[1].lateral + LANE_WIDTH)
    slots[1].lane += 1

    speed_phase = rng.uniform(0.0, 2.0 * math.pi)
    yaw_phases = (rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 2.0 * math.pi))
    bounds_visible_until = rng.uniform(2.0, 5.0)
    bounds_hidden_until = -1.0

    frames = []
    t = 0.0
    dt = FRAME_PERIOD
    for k in range(n_frames):
        if k:
            dt = FRAME_PERIOD + rng.uniform(-FRAME_JITTER, FRAME_JITTER)
            t = round(t + dt, 6)
        v_true = 22.0 + 4.0 * math.sin(2.0 * math.pi * t / 20.0 + speed_phase)
        yaw_true = 0.03 * math.sin(2.0 * math.pi * t / 12.0 + yaw_phases[0]) + 0.01 * math.sin(
            2.0 * math.pi * t / 3.0 + yaw_phases[1]
        )
        curvature = yaw_true / v_true

        objects = []
        for slot in slots:
            if t < slot.absent_until:
                continue
            if slot.absent_until >= 0.0:
                if not slot.keep_id:
                    slot.generation += 1
                    slot.range = rng.uniform(*RANGE_LIMITS)
                slot.absent_until = -1.0
                slot.present_until = t + rng.uniform(3.0, 12.0)
            if t >= slot.present_until:
                if slot.next_gap is not None:
                    gap, slot.next_gap, slot.keep_id = slot.next_gap, None, True
                elif rng.random() < 0.5:
                    # Longer than the absence timeout: the track is dropped,
                    # and most slots come back as a new object.
                    gap = rng.uniform(1.2, 3.0)
                    slot.keep_id = rng.random() < 0.3
                else:
                    gap, slot.keep_id = rng.uniform(0.1, 0.8), True
                slot.absent_until = t + gap
                slot.change = None
                slot.lateral = slot.lane * LANE_WIDTH
                continue

            slot.range += slot.range_rate * dt
            if not RANGE_LIMITS[0] <= slot.range <= RANGE_LIMITS[1]:
                slot.range_rate = -slot.range_rate
                slot.range = min(max(slot.range, RANGE_LIMITS[0]), RANGE_LIMITS[1])

            v_lat = 0.0
            if slot.change is None and rng.random() < 0.01:
                target = slot.lane + rng.choice((-1, 1))
                if -3 <= target <= 3:
                    duration = rng.uniform(2.0, 4.0)
                    slot.change = (t, duration, slot.lane * LANE_WIDTH, target * LANE_WIDTH)
                    slot.lane = target
            if slot.change is not None:
                start, duration, origin, goal = slot.change
                progress = (t - start) / duration
                if progress >= 1.0:
                    slot.change = None
                    slot.lateral = goal
                elif progress > 0.0:
                    slot.lateral = origin + (goal - origin) * progress
                    v_lat = (goal - origin) / duration

            x_true, y_true = _place_on_arc(slot.range, slot.lateral, curvature)
            sigma = 0.15 + 0.002 * slot.range
            objects.append(
                {
                    "id": slot.object_id,
                    "x": x_true + rng.gauss(0.0, sigma),
                    "y": y_true + rng.gauss(0.0, sigma),
                    "var_x": sigma * sigma,
                    "var_y": sigma * sigma,
                    "v_lat": v_lat + rng.gauss(0.0, SIGMA_V_LAT),
                    "gt": region(slot.lateral),
                }
            )

        record = {
            "t": t,
            "host": {
                "v": max(v_true + rng.gauss(0.0, SIGMA_V), 0.0),
                "yaw_rate": yaw_true + rng.gauss(0.0, SIGMA_YAW),
                "var_v": SIGMA_V * SIGMA_V,
                "var_yaw": SIGMA_YAW * SIGMA_YAW,
            },
            "objects": objects,
        }
        if t >= bounds_hidden_until:
            if t < bounds_visible_until:
                record["bounds"] = [
                    {"mu": edge + rng.gauss(0.0, 0.05), "sigma": 0.45 if i in (0, 3) else 0.3}
                    for i, edge in enumerate(REGION_EDGES)
                ]
            else:
                bounds_hidden_until = t + rng.uniform(0.5, 2.0)
                bounds_visible_until = bounds_hidden_until + rng.uniform(2.0, 5.0)
        frames.append(record)
    return frames


def write(seed: int, path: str, n_frames: int = N_FRAMES) -> dict:
    """Write the scenario for `seed` to `path`; return its frame and object-frame counts."""
    frames = generate(seed, n_frames)
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        for record in frames:
            out.write(json.dumps(record))
            out.write("\n")
    return {
        "frames": len(frames),
        "object_frames": sum(len(record["objects"]) for record in frames),
    }

