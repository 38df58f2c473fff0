"""Benchmark of the laneassign CLI, end to end or traced layer by layer.

Run from the root of a checkout:

    python3 bench/run.py --workload replay --seed 1 --seconds 20 --trace 0

Workloads (see bench/README.md): `replay` runs `laneassign run` with both
methods on a recording-like scenario generated from the seed, `sweep` runs
`laneassign sweep` with both methods on the bundled suite, and `mc_validate`
runs `laneassign mc-validate`.

The script measures set-up time in fresh interpreters, generates the inputs,
then runs the workload in one fresh single-threaded process
(`bench/workload.py`) and waits for it.  It prints one line per metric and,
as its last line, a JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics
with `--trace 1`.  Scratch files go to `.bench_work/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import replay_gen  # noqa: E402
from workload import REFERENCE_SEED, WORKLOADS, scenario_path  # noqa: E402

SETUP_PROBES = 7
TIME_LIMIT_S = 170.0  # the whole call, set-up probes included
THREAD_POOL_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import laneassign.cli\n"
    "print(time.perf_counter() - start)\n"
)
UNITS = {"us_per_item": "us", "setup_s": "s", "peak_rss_mb": "MB"}
COUNT_SUFFIXES = ("calls", "clamped", "resets", "skipped", "filters_created")


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if name.endswith(COUNT_SUFFIXES):
        return "count"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith(("_ms", ".ms", "ms_per_point")):
        return "ms"
    return "us"


class BenchmarkError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    for name in THREAD_POOL_VARS:
        env[name] = "1"
    return env


def cpu_steal_s() -> float | None:
    """Steal time of all CPUs from /proc/stat, in seconds."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def measure_setup(env: dict, root: Path, deadline: float) -> list[float]:
    """Seconds to import laneassign.cli, once per fresh interpreter."""
    times = []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE],
            cwd=root, env=env, capture_output=True, text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
        if probe.returncode != 0:
            raise BenchmarkError(f"importing laneassign.cli failed:\n{probe.stderr}")
        times.append(float(probe.stdout.strip()))
    return times


def tail(values: list[float]) -> tuple[float, float] | None:
    """Highest of p99.9/p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    ordered = sorted(values)
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(ordered) * (1.0 - q / 100.0) >= 10.0:
            return q, ordered[max(math.ceil(q / 100.0 * len(ordered)), 1) - 1]
    return None


def describe(name: str, values: list[float], unit: str) -> str:
    line = f"{name}: median {statistics.median(values):.6g} {unit}, n={len(values)}"
    spot = tail(values)
    if spot is None:
        return line + ", no percentile has ten samples beyond it"
    return line + f", p{spot[0]:g} {spot[1]:.6g} {unit}"


def run_benchmark(args, root: Path) -> dict:
    started = time.monotonic()
    deadline = started + TIME_LIMIT_S
    if not (root / "src" / "laneassign" / "cli.py").is_file():
        raise BenchmarkError(
            f"{root} holds no src/laneassign/cli.py; run from the root of a checkout"
        )
    work = root / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env(root)
    environment = {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
    }
    steal_before = cpu_steal_s()

    setup = [] if args.trace else measure_setup(env, root, deadline)
    if args.workload == "replay":
        for seed in {REFERENCE_SEED, args.seed}:
            replay_gen.write(seed, str(scenario_path(work, seed)))

    command = [
        sys.executable, str(BENCH_DIR / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work", str(work), "--root", str(root),
    ]
    try:
        child = subprocess.run(
            command, cwd=root, env=env, stdout=sys.stderr,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"workload process exceeded {TIME_LIMIT_S:g} s") from exc
    if child.returncode != 0:
        raise BenchmarkError(f"workload process exited with {child.returncode}")
    result = json.loads((work / "result.json").read_text())

    steal_after = cpu_steal_s()
    environment.update(result.pop("versions"))
    environment["steal_s"] = (
        None if steal_before is None or steal_after is None else steal_after - steal_before
    )
    result["environment"] = environment
    result["setup_s"] = setup
    result["wall_s"] = time.monotonic() - started
    return result


def report(args, result: dict) -> dict:
    """Print the detail lines and return the final JSON object."""
    samples = {"us_per_item": result["cycle_us_per_item"]}
    if result["setup_s"]:
        samples["setup_s"] = result["setup_s"]
    for name, values in samples.items():
        print(describe(name, values, UNITS[name]))
    per_command = result["command_us_per_item"]
    if args.workload == "mc_validate":
        print(describe("mc_ms_per_point", [v / 1e3 for v in per_command["mc_validate"]], "ms"))
    else:
        for method in ("discrete", "continuous"):
            print(describe(f"{method}_us_per_object_frame", per_command[method], "us"))
    print(f"peak_rss_mb: {result['peak_rss_mb']:.6g} MB")
    print(f"items per command: {result['items_per_command']}")
    print(f"self checks: {json.dumps(result['self_checks'])}")
    print(f"environment: {json.dumps(result['environment'])}")

    if args.trace:
        metrics = {
            name: {"value": value, "unit": layer_unit(name)} for name, value in result["per_layer"].items()
        }
        for name, value in result["per_layer"].items():
            print(f"{name}: {value:.6g}")
    else:
        metrics = {
            "us_per_item": statistics.median(result["cycle_us_per_item"]),
            "setup_s": statistics.median(result["setup_s"]),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in metrics.items()}
    return {
        "correct": result["failed"] == 0 and all(result["self_checks"].values()),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = Path.cwd()
    try:
        result = run_benchmark(args, root)
    except (BenchmarkError, OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    final = report(args, result)
    (root / ".bench_work" / args.workload / "report.json").write_text(
        json.dumps({"result": result, "final": final}, indent=1)
    )
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
