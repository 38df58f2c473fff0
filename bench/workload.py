"""One benchmark workload in its own process: a closed loop of CLI commands.

`run.py` starts this script in a fresh interpreter with the checkout's `src`
first on PYTHONPATH and BLAS/OpenMP pools set to one thread.  It calls
`laneassign.cli.main([...])` in-process, one command at a time, each starting
after the previous one returned.  A cycle is the workload's commands in order:

    replay       run --method discrete, run --method continuous  (scenario file)
    sweep        sweep --method discrete, sweep --method continuous  (bundled suite)
    mc_validate  mc-validate  (default grid and sample count)

The first cycle runs on the reference input (seed 0; for `sweep`, the
`noisy_yaw` kind of the suite) and is compared with the outputs
recorded in `reference/`; it also warms the process up and is not timed.  The measured cycles then run on the inputs of `--seed` until
`--seconds` have passed.  With `--trace 1` untraced and traced cycles
alternate; the traced ones give the per-layer metrics and the tracing
overhead.  The result is written to WORK/result.json.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import checks
from checks import MC_GRID_POINTS, QUANTUM, SUITE_OBJECT_FRAMES, SWEEP_GRID_POINTS, OutputCheck
from tracing import Tracer, layer_metrics

REFERENCE_SEED = 0
# The sweep's reference cycle runs one kind of the suite, the one with the
# corrupted yaw rate, with the default grids: a whole-suite sweep would add
# eight seconds to every run.
REFERENCE_SUITE = "noisy_yaw"
REFERENCE_SUITE_FRAMES = 1200
METHODS = ("discrete", "continuous")
WORKLOADS = ("replay", "sweep", "mc_validate")


@dataclass
class Command:
    name: str
    argv: list[str]
    out: Path
    check: OutputCheck
    items: int  # object-frames (times grid points for sweep), or grid points


def scenario_path(work: Path, seed: int) -> Path:
    return work / f"scenario-{seed}.jsonl"


def build_cycle(workload: str, seed: int, work: Path) -> list[Command]:
    """The commands of one cycle on the inputs of `seed`, with their checks."""
    reference = seed == REFERENCE_SEED
    tag = "ref" if reference else "run"
    if workload == "mc_validate":
        out = work / f"mc-{tag}.csv"
        baseline = checks.load_csv_reference("mc_validate.csv.gz") if reference else None
        return [
            Command(
                "mc_validate",
                ["mc-validate", "--seed", str(seed), "--out", str(out)],
                out,
                OutputCheck("mc", baseline),
                MC_GRID_POINTS,
            )
        ]
    cycle = []
    for method in METHODS:
        out = work / f"{workload}-{method}-{tag}.csv"
        if workload == "replay":
            scenario = scenario_path(work, seed)
            recorded_on = checks.reference_manifest()["replay_scenario_sha256"]
            if reference and checks.digest(scenario) != recorded_on:
                raise RuntimeError("the replay references were recorded on another scenario")
            keys = checks.scenario_keys(scenario)
            argv = ["run", "--scenario", str(scenario), "--method", method]
            if reference:
                check = OutputCheck(
                    "run", checks.load_run_reference(method), keys, method,
                    tol=checks.FLOAT_TOL + QUANTUM / 2,
                )
            else:
                check = OutputCheck("run", None, keys, method)
            items = len(keys)
        elif reference:
            argv = ["sweep", "--method", method, "--seed", str(seed), "--suite", REFERENCE_SUITE]
            baseline = checks.load_csv_reference(f"sweep_{method}.csv")
            check = OutputCheck("roc", baseline, suite_frames=REFERENCE_SUITE_FRAMES)
            items = SWEEP_GRID_POINTS * REFERENCE_SUITE_FRAMES
        else:
            argv = ["sweep", "--method", method, "--seed", str(seed)]
            check = OutputCheck("roc")
            items = SWEEP_GRID_POINTS * SUITE_OBJECT_FRAMES
        cycle.append(Command(method, argv + ["--out", str(out)], out, check, items))
    return cycle


class Ledger:
    """Operations attempted and failed over the whole run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0


def _call(cli, argv) -> int | None:
    try:
        return cli.main(argv)
    except Exception:  # a crash of the program is a failed command, not a crashed benchmark
        traceback.print_exc(file=sys.stderr)
        return None


def run_cycle(cli, cycle: list[Command], ledger: Ledger, tracer: Tracer | None = None):
    """Run one cycle; return (command name, seconds, output digest) per command."""
    record = []
    for command in cycle:
        if tracer is not None:
            tracer.invocation += 1
        start = time.perf_counter()
        exit_code = _call(cli, command.argv)
        seconds = time.perf_counter() - start
        ledger.attempted += command.check.attempted
        ledger.failed += command.check(command.out, exit_code)
        record.append((command.name, seconds, command.check.last_digest))
    return record


def traced_cycle(cli, cycle, ledger, tracer: Tracer):
    """Run one cycle with the tracer installed; report whether every attribute came back."""
    tracer.install()
    wrapped = tracer.originals()
    tracer.begin_cycle()
    try:
        record = run_cycle(cli, cycle, ledger, tracer)
    finally:
        tracer.uninstall()
    tracer.end_cycle()
    restored = all(owner.__dict__[attribute] is original for owner, attribute, original in wrapped)
    return record, restored


def _us_per_item(records, cycle, name=None) -> list[float]:
    """Microseconds per item of each cycle, or of one command in each cycle."""
    items = cycle[0].items
    return [
        1e6 * sum(s for n, s, _ in record if name in (None, n)) / items
        for record in records
    ]


def _versions() -> dict:
    versions = {"python": platform.python_version()}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    return versions


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path, root: Path) -> dict:
    import laneassign
    from laneassign import cli

    source = Path(laneassign.__file__).resolve()
    if (root / "src").resolve() not in source.parents:
        raise RuntimeError(f"laneassign imported from {source}, not from {root / 'src'}")

    ledger = Ledger()
    reference_record = run_cycle(cli, build_cycle(workload, REFERENCE_SEED, work), ledger)
    cycle = build_cycle(workload, seed, work)
    tracer = Tracer() if trace else None
    untraced, traced = [], []
    restored = True
    deadline = time.perf_counter() + seconds
    while True:
        if tracer is not None and len(traced) < len(untraced):
            record, ok = traced_cycle(cli, cycle, ledger, tracer)
            traced.append(record)
            restored = restored and ok
        else:
            untraced.append(run_cycle(cli, cycle, ledger))
        if time.perf_counter() >= deadline and (tracer is None or traced):
            break

    runs = [entry for record in untraced + traced for entry in record]
    digests = {c.name: {d for name, _, d in runs if name == c.name} for c in cycle}
    result = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "items_per_command": cycle[0].items,
        "reference_cycle_s": sum(s for _, s, _ in reference_record),
        "cycle_us_per_item": _us_per_item(untraced, cycle),
        "command_us_per_item": {c.name: _us_per_item(untraced, cycle, c.name) for c in cycle},
        "self_checks": {"outputs_identical_across_cycles": all(len(d) == 1 for d in digests.values())},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": _versions(),
    }
    if tracer is not None:
        result["self_checks"]["attributes_restored"] = restored
        result["traced_cycle_us_per_item"] = _us_per_item(traced, cycle)
        result["per_layer"] = per_layer(tracer, result)
        result["not_wrapped"] = tracer.missing
        tracer.save(work / "spans.npz")
    return result


def per_layer(tracer: Tracer, result: dict) -> dict:
    metrics = layer_metrics(tracer)
    metrics["trace.overhead_ratio"] = statistics.median(
        result["traced_cycle_us_per_item"]
    ) / statistics.median(result["cycle_us_per_item"])
    commands = {name: statistics.median(v) for name, v in result["command_us_per_item"].items()}
    # The untraced per-command figures of this run, by the CLI method they time.
    metrics["cli.discrete.us_per_object_frame"] = commands.get("discrete", 0.0)
    metrics["cli.continuous.us_per_object_frame"] = commands.get("continuous", 0.0)
    metrics["cli.mc_validate.ms_per_point"] = commands.get("mc_validate", 0.0) / 1e3
    return metrics


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--root", type=Path, required=True)
    args = parser.parse_args()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.work, args.root)
    (args.work / "result.json").write_text(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
