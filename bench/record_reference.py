"""Record the reference outputs that the benchmark's output checks compare with.

Run from the root of a checkout, on the commit whose outputs are the reference:

    PYTHONPATH=src python3 bench/record_reference.py

It runs every workload's commands on the reference input (seed 0) and writes
`bench/reference/`:

* replay_<method>.csv.gz  one line per object-frame of the replay scenario:
  `assigned`, then `prob` and p0..p4 each stored as round(p / 1e-13);
* sweep_<method>.csv      the ROC CSV of the suite's `noisy_yaw`
  kind, verbatim;
* mc_validate.csv.gz      the MC CSV of the default grid, verbatim;
* manifest.json           the seed and the digest of the replay scenario.

Re-record only in a change that states and justifies a change of outputs.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import replay_gen  # noqa: E402
from checks import QUANTUM, REFERENCE_DIR, digest, read_rows  # noqa: E402
from workload import METHODS, REFERENCE_SEED, REFERENCE_SUITE  # noqa: E402

from laneassign import cli  # noqa: E402


def _write_gzip(path: Path, text: str) -> None:
    # mtime 0 keeps the bytes the same for the same content.
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as out:
        out.write(text.encode("utf-8"))


def _run(argv: list[str]) -> None:
    if cli.main(argv) != 0:
        raise SystemExit(f"laneassign {' '.join(argv)} failed")


def main() -> None:
    work = Path.cwd() / ".bench_work" / "record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    seed = str(REFERENCE_SEED)

    scenario = work / "scenario.jsonl"
    counts = replay_gen.write(REFERENCE_SEED, str(scenario))
    for method in METHODS:
        out = work / f"replay-{method}.csv"
        _run(["run", "--scenario", str(scenario), "--method", method, "--out", str(out)])
        lines = io.StringIO()
        writer = csv.writer(lines, lineterminator="\n")
        for row in read_rows(out):
            writer.writerow([row[3]] + [round(float(p) / QUANTUM) for p in row[4:]])
        _write_gzip(REFERENCE_DIR / f"replay_{method}.csv.gz", lines.getvalue())

        _run(["sweep", "--method", method, "--seed", seed, "--suite", REFERENCE_SUITE,
              "--out", str(REFERENCE_DIR / f"sweep_{method}.csv")])

    out = work / "mc.csv"
    _run(["mc-validate", "--seed", seed, "--out", str(out)])
    _write_gzip(REFERENCE_DIR / "mc_validate.csv.gz", out.read_text(encoding="utf-8"))

    manifest = {
        "seed": REFERENCE_SEED,
        "replay_scenario_sha256": digest(scenario),
        "replay_frames": counts["frames"],
        "replay_object_frames": counts["object_frames"],
        "quantum": QUANTUM,
    }
    (REFERENCE_DIR / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    print(json.dumps(manifest))


if __name__ == "__main__":
    main()
