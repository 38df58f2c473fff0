"""Output checks of the CLI commands the benchmark runs.

Every output is compared with a baseline and checked for invariants; each
row that differs or breaks an invariant is one failed operation.

* `run` CSVs (one row per object-frame): `t`, `object_id`, `method` and
  `assigned` must match exactly and the probabilities within `FLOAT_TOL`; the
  posterior must sum to 1 within 1e-9 with no negative entry, and a row is
  accepted exactly when `prob >= p_min`.
* ROC CSVs (one row per grid point): labels, rates and `frames` must match
  exactly; rates lie in [0, 1] and every grid point evaluates the whole suite
  (4,000 object-frames at any seed).
* MC CSVs (one row per grid point): grid values and `status` must match
  exactly and the Hellinger distance within `FLOAT_TOL`; it lies in [0, 1]
  and a `skipped` point is a failure.

The baseline is the reference recorded in `reference/` when the input is the
reference input, and otherwise the first output of the same command in the
run, so every later pass must reproduce it.  A non-zero exit fails every row
of its command.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import json
import math
from pathlib import Path

FLOAT_TOL = 1e-12
SUM_TOL = 1e-9
P_MIN = 0.3  # the CLI's default acceptance gate
# The replay references store each probability as round(p / QUANTUM).
QUANTUM = 1e-13
SWEEP_GRID_POINTS = 6  # default grid of either method
SUITE_OBJECT_FRAMES = 4000  # object-frames of the bundled suite at any seed
MC_GRID_POINTS = 512  # default 8 x 4 x 4 x 4 grid
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def digest(path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def read_rows(path) -> list[list[str]] | None:
    """Data rows of a CSV file, or None if it is missing."""
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            return list(csv.reader(handle))[1:]
    except OSError:
        return None


def _floats(cells) -> list[float] | None:
    try:
        values = [float(cell) for cell in cells]
    except ValueError:
        return None
    return values if all(math.isfinite(v) for v in values) else None


def _close(values, expected, tol: float) -> bool:
    return all(abs(a - b) <= tol for a, b in zip(values, expected))


# -- run CSV ---------------------------------------------------------------


def scenario_keys(path) -> list[tuple[str, str]]:
    """(t, object_id) of every object-frame of a scenario, as `run` writes them."""
    keys = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                frame = json.loads(line)
                t = repr(float(frame["t"]))
                keys.extend((t, str(obj["id"])) for obj in frame["objects"])
    return keys


def _run_row_ok(row, key, method, base, tol) -> bool:
    if len(row) != 10 or (row[0], row[1]) != key or row[2] != method:
        return False
    values = _floats(row[4:])
    if values is None:
        return False
    prob, posterior = values[0], values[1:]
    if abs(sum(posterior) - 1.0) > SUM_TOL or min(posterior) < 0.0:
        return False
    if row[3] not in ("", "0", "1", "2", "3", "4") or (row[3] != "") != (prob >= P_MIN):
        return False
    return base is None or (row[3] == base[0] and _close(values, base[1], tol))


def _run_baseline(rows) -> list[tuple[str, list[float]]]:
    return [(row[3], _floats(row[4:]) or []) for row in rows]


def load_run_reference(method: str) -> list[tuple[str, list[float]]]:
    with gzip.open(REFERENCE_DIR / f"replay_{method}.csv.gz", "rt", encoding="utf-8") as handle:
        return [
            (row[0], [int(q) * QUANTUM for q in row[1:]])
            for row in csv.reader(handle)
        ]


# -- ROC and MC CSVs -------------------------------------------------------


def _rate_ok(cell: str) -> bool:
    if cell == "":
        return True
    value = _floats([cell])
    return value is not None and 0.0 <= value[0] <= 1.0


def _roc_row_ok(row, base, frames) -> bool:
    if len(row) != 4 or row[3] != str(frames):
        return False
    if not (_rate_ok(row[1]) and _rate_ok(row[2])):
        return False
    if base is None:
        return True
    rates = [None if cell == "" else float(cell) for cell in row[1:3]]
    base_rates = [None if cell == "" else float(cell) for cell in base[1:3]]
    return row[0] == base[0] and rates == base_rates and row[3] == base[3]


def _mc_row_ok(row, base, tol) -> bool:
    if len(row) != 10 or row[9] != "ok":
        return False
    values = _floats(row[:9])
    if values is None or not 0.0 <= values[8] <= 1.0:
        return False
    if base is None:
        return True
    return row[:8] == base[:8] and row[9] == base[9] and _close(values[8:9], [float(base[8])], tol)


def reference_manifest() -> dict:
    return json.loads((REFERENCE_DIR / "manifest.json").read_text(encoding="utf-8"))


def load_csv_reference(name: str) -> list[list[str]]:
    path = REFERENCE_DIR / name
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt", encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))[1:]


# -- per-command checker ---------------------------------------------------


class OutputCheck:
    """Checks the successive outputs of one command on one input.

    kind is "run", "roc" or "mc".  `baseline` holds reference rows; when it is
    None the first output becomes the baseline.  Outputs with the same bytes
    as one already checked reuse its result.
    """

    def __init__(
        self, kind: str, baseline=None, keys=None, method=None, tol=FLOAT_TOL,
        suite_frames=SUITE_OBJECT_FRAMES,
    ):
        self.kind = kind
        self.suite_frames = suite_frames
        self.baseline = baseline
        self.keys = keys
        self.method = method
        self.tol = tol
        self.attempted = {"run": len(keys or ()), "roc": SWEEP_GRID_POINTS, "mc": MC_GRID_POINTS}[kind]
        self._results: dict[str, int] = {}
        self.last_digest: str | None = None

    def __call__(self, path, exit_code) -> int:
        """Failed rows of the output at `path`; all rows if the command failed."""
        self.last_digest = None
        if exit_code != 0:
            return self.attempted
        try:
            self.last_digest = digest(path)
        except OSError:
            return self.attempted
        if self.last_digest not in self._results:
            self._results[self.last_digest] = self._failed_rows(read_rows(path))
        return self._results[self.last_digest]

    def _failed_rows(self, rows) -> int:
        if rows is None or len(rows) != self.attempted:
            return self.attempted
        bases = self.baseline or [None] * len(rows)
        if self.kind == "run":
            ok = [
                _run_row_ok(row, key, self.method, base, self.tol)
                for row, key, base in zip(rows, self.keys, bases)
            ]
        elif self.kind == "roc":
            ok = [_roc_row_ok(row, base, self.suite_frames) for row, base in zip(rows, bases)]
        else:
            ok = [_mc_row_ok(row, base, self.tol) for row, base in zip(rows, bases)]
        if self.baseline is None:
            self.baseline = _run_baseline(rows) if self.kind == "run" else rows
        return ok.count(False)
