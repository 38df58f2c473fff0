"""Command line interface.

Subcommands:
  run          run one filter method over a scenario file, emit per-frame CSV
  sweep        ROC over a parameter grid (epsilon or sigma_nu), emit CSV
  synth        generate a synthetic scenario file
  mc-validate  score the uncertainty propagation on a grid, emit CSV

Exit code 0 on success, 2 on validation errors (bad files, bad parameters).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext

from .geometry import GridSpec, mc_validate, write_mc_csv
from .harness import (
    METHODS,
    SCENARIO_KINDS,
    PipelineConfig,
    SynthSpec,
    build_suite,
    generate_synthetic,
    load_scenario,
    run_pipeline,
    sweep_parameters,
    write_roc_csv,
    write_run_csv,
    write_scenario,
)


def _out_stream(path: str):
    if path == "-":
        return nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


def _add_filter_flags(parser: argparse.ArgumentParser, eta_gain_default: float) -> None:
    """The flags `run` and `sweep` share; `sweep` takes its swept parameter
    from --grid."""
    parser.add_argument(
        "--eta-gain", type=float, default=eta_gain_default,
        help="discrete method only: drift gain applied to the lateral-velocity "
        "input; the continuous method drifts by the raw v_lat "
        f"(default {eta_gain_default})",
    )
    parser.add_argument(
        "--p-min", type=float, default=0.3,
        help="acceptance threshold on the median index probability (default 0.3)",
    )


def _cmd_run(args: argparse.Namespace) -> int:
    config = PipelineConfig(args.epsilon, args.eta_gain, args.sigma_nu, args.p_min)
    result = run_pipeline(load_scenario(args.scenario), args.method, config)
    with _out_stream(args.out) as out:
        write_run_csv(result, out)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.scenario:
        scenarios = [load_scenario(path) for path in args.scenario]
    else:
        kinds = SCENARIO_KINDS if args.suite == "all" else (args.suite,)
        scenarios = list(build_suite(kinds, seed=args.seed, step=args.step).values())
    grid = None
    if args.grid:
        grid = [float(part) for part in args.grid.split(",") if part.strip()]
    config = PipelineConfig(eta_gain=args.eta_gain, p_min=args.p_min)
    points = sweep_parameters(scenarios, args.method, grid, config)
    with _out_stream(args.out) as out:
        write_roc_csv(points, out)
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    spec = SynthSpec(args.kind, args.duration, args.step, args.seed, args.noise_scale)
    scenario = generate_synthetic(spec)
    with _out_stream(args.out) as out:
        write_scenario(scenario, out)
    return 0


def _cmd_mc_validate(args: argparse.Namespace) -> int:
    grid = GridSpec(
        x_steps=args.x_steps,
        bearing_steps=args.bearing_steps,
        v_steps=args.v_steps,
        yaw_steps=args.yaw_steps,
    )
    results = mc_validate(grid, samples=args.samples, bins=args.bins, seed=args.seed)
    with _out_stream(args.out) as out:
        write_mc_csv(results, out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="laneassign",
        description="Probabilistic path assignment filters and their harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one method over a scenario file")
    run.add_argument("--scenario", required=True, help="scenario JSONL file")
    run.add_argument(
        "--method", choices=METHODS, default="discrete",
        help="filter method (default discrete)",
    )
    run.add_argument(
        "--epsilon", type=float, default=0.05,
        help="discrete method only: neighbor-transition rate (default 0.05)",
    )
    run.add_argument(
        "--sigma-nu", type=float, default=0.1,
        help="continuous method only: process noise in m/s (default 0.1)",
    )
    _add_filter_flags(run, eta_gain_default=0.05)
    run.add_argument("--out", default="-", help="output CSV path, '-' for stdout")
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser("sweep", help="ROC over a parameter grid")
    sweep.add_argument(
        "--method", choices=METHODS, required=True,
        help="method to sweep: discrete sweeps epsilon, continuous sigma_nu",
    )
    sweep.add_argument(
        "--scenario", nargs="+", default=None,
        help="scenario files to pool; omit to use the bundled synthetic suite",
    )
    sweep.add_argument(
        "--suite", choices=SCENARIO_KINDS + ("all",), default="all",
        help="bundled suite selection when no scenario files are given",
    )
    sweep.add_argument(
        "--grid", default=None,
        help="comma-separated parameter values overriding the default grid",
    )
    # Sweeps run without the lateral-velocity drift by default so the swept
    # parameter is the only thing that changes the transition model.
    _add_filter_flags(sweep, eta_gain_default=0.0)
    sweep.add_argument("--seed", type=int, default=0, help="suite generation seed")
    sweep.add_argument(
        "--step", type=float, default=0.05, help="suite frame period in s"
    )
    sweep.add_argument("--out", default="-", help="output CSV path, '-' for stdout")
    sweep.set_defaults(func=_cmd_sweep)

    synth = sub.add_parser("synth", help="generate a synthetic scenario")
    synth.add_argument("--kind", choices=SCENARIO_KINDS, required=True)
    synth.add_argument("--duration", type=float, default=20.0, help="seconds")
    synth.add_argument("--step", type=float, default=0.05, help="frame period in s")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument(
        "--noise-scale", type=float, default=1.0,
        help="scale factor on all measurement noise levels (0 disables noise)",
    )
    synth.add_argument("--out", default="-", help="output JSONL path, '-' for stdout")
    synth.set_defaults(func=_cmd_synth)

    mc = sub.add_parser(
        "mc-validate", help="Monte-Carlo check of the uncertainty propagation"
    )
    mc.add_argument("--samples", type=int, default=5000, help="draws per grid point")
    mc.add_argument("--bins", type=int, default=100, help="histogram bins")
    mc.add_argument("--seed", type=int, default=0)
    mc.add_argument("--x-steps", type=int, default=8)
    mc.add_argument("--bearing-steps", type=int, default=4)
    mc.add_argument("--v-steps", type=int, default=4)
    mc.add_argument("--yaw-steps", type=int, default=4)
    mc.add_argument("--out", default="-", help="output CSV path, '-' for stdout")
    mc.set_defaults(func=_cmd_mc_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
