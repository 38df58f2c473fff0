#!/usr/bin/env python3
"""Both filters watching the same lane change, frame by frame.

A target starts in the host lane and merges into the left lane between
t=10 s and t=13 s.  The demo runs the discrete index filter and the
continuous offset filter over the same noisy measurements and prints the
assigned path around the maneuver, then shows how feeding the measured
lateral velocity into the discrete filter's drift term speeds up the
hand-over.
"""

from laneassign import (
    PipelineConfig,
    SynthSpec,
    generate_synthetic,
    run_pipeline,
)


def crossing_frame(result, from_index=2, to_index=3):
    """First time the accepted assignment switches from from_index to to_index."""
    previous = None
    for t, index, accepted in zip(result.t, result.index, result.accepted):
        if not accepted:
            continue
        if previous == from_index and index == to_index:
            return t
        previous = index
    return None


def print_timeline(result, t_lo, t_hi, label):
    print(f"--- {label} ---")
    print(f"{'t':>6} {'gt':>3} {'assigned':>9} {'p(host)':>8} {'p(left)':>8}")
    for t, truth, index, accepted, probs in zip(
        result.t, result.ground_truth, result.index, result.accepted, result.posteriors
    ):
        if not (t_lo <= t <= t_hi):
            continue
        if (round(t * 100)) % 50:  # print every 0.5 s
            continue
        assigned = index if accepted else "-"
        print(
            f"{t:>6.2f} {truth:>3} {assigned!s:>9} "
            f"{probs[2]:>8.3f} {probs[3]:>8.3f}"
        )
    print()


def main():
    scenario = generate_synthetic(SynthSpec(kind="target_lane_change", seed=4))
    truth_crossing = 11.5  # construction: ramp from t=10 crosses the edge here

    runs = {}
    for method in ("discrete", "continuous"):
        runs[method] = run_pipeline(scenario, method=method)
        print_timeline(runs[method], 9.0, 15.0, f"{method} filter")

    print(f"true boundary crossing:            t = {truth_crossing:.2f} s")
    for method, result in runs.items():
        t = crossing_frame(result)
        lag = t - truth_crossing
        print(f"{method:>10} hand-over to left lane: t = {t:.2f} s  (lag {lag:+.2f} s)")

    # The lane changer's lateral velocity is part of the synthetic
    # measurements; a nonzero drift gain turns it into a transition bias.
    print()
    print("discrete hand-over vs drift gain (lateral velocity as control input)")
    for gain in (0.0, 0.05, 0.2, 0.5):
        result = run_pipeline(
            scenario, method="discrete", config=PipelineConfig(eta_gain=gain)
        )
        t = crossing_frame(result)
        print(f"  eta gain {gain:>4}: hand-over at t = {t:.2f} s")


if __name__ == "__main__":
    main()
