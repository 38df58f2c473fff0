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
from dataclasses import replace

from .geometry import GridSpec, mc_validate, write_mc_csv
from .harness import (
    METHODS,
    SCENARIO_KINDS,
    SWEEP_CONFIG,
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


def _given(args: argparse.Namespace, *names: str) -> dict:
    """The flags among `names` that the command line sets; the library
    applies its own defaults to the others."""
    return {name: getattr(args, name) for name in names if name in args}


def _add_filter_flags(parser: argparse.ArgumentParser) -> None:
    """The flags `run` and `sweep` share; `sweep` takes its swept parameter
    from --grid."""
    parser.add_argument(
        "--eta-gain", type=float,
        help="discrete method only: drift gain applied to the lateral-velocity "
        "input; the continuous method drifts by the raw v_lat",
    )
    parser.add_argument(
        "--p-min", type=float,
        help="acceptance threshold on the median index probability",
    )


def _cmd_run(args: argparse.Namespace) -> int:
    config = PipelineConfig(**_given(args, "epsilon", "eta_gain", "sigma_nu", "p_min"))
    scenario = load_scenario(args.scenario)
    result = run_pipeline(scenario, config=config, **_given(args, "method"))
    with _out_stream(args.out) as out:
        write_run_csv(result, out)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if "scenario" in args:
        scenarios = [load_scenario(path) for path in args.scenario]
    else:
        kinds = SCENARIO_KINDS if args.suite == "all" else (args.suite,)
        scenarios = list(build_suite(kinds, **_given(args, "seed", "step")).values())
    grid = None
    if "grid" in args:
        try:
            grid = [float(part) for part in args.grid.split(",") if part.strip()]
        except ValueError as exc:
            raise ValueError(f"--grid {args.grid!r}: {exc}") from None
    config = replace(SWEEP_CONFIG, **_given(args, "eta_gain", "p_min"))
    points = sweep_parameters(scenarios, args.method, grid, config)
    with _out_stream(args.out) as out:
        write_roc_csv(points, out)
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    spec = SynthSpec(args.kind, **_given(args, "duration", "step", "seed", "noise_scale"))
    scenario = generate_synthetic(spec)
    with _out_stream(args.out) as out:
        write_scenario(scenario, out)
    return 0


def _cmd_mc_validate(args: argparse.Namespace) -> int:
    grid = GridSpec(**_given(args, "x_steps", "bearing_steps", "v_steps", "yaw_steps"))
    results = mc_validate(grid, **_given(args, "samples", "bins", "seed"))
    with _out_stream(args.out) as out:
        write_mc_csv(results, out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The parser of the four subcommands.  An optional flag left out is
    absent from the parsed namespace, so the library's default applies."""
    parser = argparse.ArgumentParser(
        prog="laneassign",
        description="Probabilistic path assignment filters and their harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, **kwargs) -> argparse.ArgumentParser:
        return sub.add_parser(name, argument_default=argparse.SUPPRESS, **kwargs)

    run = add_command("run", help="run one method over a scenario file")
    run.add_argument("--scenario", required=True, help="scenario JSONL file")
    run.add_argument("--method", choices=METHODS, help="filter method")
    run.add_argument(
        "--epsilon", type=float,
        help="discrete method only: neighbor-transition rate",
    )
    run.add_argument(
        "--sigma-nu", type=float,
        help="continuous method only: process noise in m/s",
    )
    _add_filter_flags(run)
    run.add_argument("--out", default="-", help="output CSV path, '-' for stdout")
    run.set_defaults(func=_cmd_run)

    sweep = add_command("sweep", help="ROC over a parameter grid")
    sweep.add_argument(
        "--method", choices=METHODS, required=True,
        help="method to sweep: discrete sweeps epsilon, continuous sigma_nu",
    )
    sweep.add_argument(
        "--scenario", nargs="+",
        help="scenario files to pool; omit to use the bundled synthetic suite",
    )
    sweep.add_argument(
        "--suite", choices=SCENARIO_KINDS + ("all",), default="all",
        help="bundled suite selection when no scenario files are given",
    )
    sweep.add_argument(
        "--grid", help="comma-separated parameter values overriding the default grid",
    )
    _add_filter_flags(sweep)
    sweep.add_argument("--seed", type=int, help="suite generation seed")
    sweep.add_argument("--step", type=float, help="suite frame period in s")
    sweep.add_argument("--out", default="-", help="output CSV path, '-' for stdout")
    sweep.set_defaults(func=_cmd_sweep)

    synth = add_command("synth", help="generate a synthetic scenario")
    synth.add_argument("--kind", choices=SCENARIO_KINDS, required=True)
    synth.add_argument("--duration", type=float, help="seconds")
    synth.add_argument("--step", type=float, help="frame period in s")
    synth.add_argument("--seed", type=int)
    synth.add_argument(
        "--noise-scale", type=float,
        help="scale factor on all measurement noise levels (0 disables noise)",
    )
    synth.add_argument("--out", default="-", help="output JSONL path, '-' for stdout")
    synth.set_defaults(func=_cmd_synth)

    mc = add_command(
        "mc-validate", help="Monte-Carlo check of the uncertainty propagation"
    )
    mc.add_argument("--samples", type=int, help="draws per grid point")
    mc.add_argument("--bins", type=int, help="histogram bins")
    mc.add_argument("--seed", type=int)
    for axis in ("x", "bearing", "v", "yaw"):
        mc.add_argument(f"--{axis}-steps", type=int, help=f"grid points along {axis}")
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
