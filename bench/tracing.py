"""Outside-in tracing of the laneassign CLI.

`Tracer.install()` replaces each traced function at the module attribute its
caller looks it up by (`cli.load_scenario`, `harness.transform_to_path`,
`DiscretePathFilter.step`, ...) with a wrapper that records a span: name,
start, end, parent span and CLI-invocation id.  `Tracer.uninstall()` puts the
original objects back.  Spans stay in memory in flat arrays until `save()`
writes them out, and `layer_metrics()` derives counts, self times and
percentiles from them.  No file of the package is changed.

Functions called several times per object-frame from inside a traced function
(`likelihood.std_normal_cdf`, the private helpers) are not wrapped: their
cost stays in the self time of their caller, and wrapping them would multiply
the tracing overhead.
"""

from __future__ import annotations

import importlib
import math
import time
from array import array

import numpy as np

# (module of the caller, attribute the caller looks up, span name).  A
# function imported into another module is wrapped where that module looks it
# up, under the name of the module that defines it.
TRACED = (
    ("cli", "main", "cli.main"),
    ("cli", "load_scenario", "harness.load_scenario"),
    ("cli", "run_pipeline", "harness.run_pipeline"),
    ("cli", "write_run_csv", "harness.write_run_csv"),
    ("cli", "build_suite", "harness.build_suite"),
    ("cli", "sweep_parameters", "harness.sweep_parameters"),
    ("cli", "write_roc_csv", "harness.write_roc_csv"),
    ("cli", "mc_validate", "geometry.mc_validate"),
    ("cli", "write_mc_csv", "geometry.write_mc_csv"),
    ("harness", "parse_scenario", "harness.parse_scenario"),
    ("harness", "run_pipeline", "harness.run_pipeline"),
    ("harness", "compute_roc", "harness.compute_roc"),
    ("harness", "generate_synthetic", "harness.generate_synthetic"),
    ("harness", "extrapolate_boundaries", "likelihood.extrapolate_boundaries"),
    ("harness", "transform_to_path", "geometry.transform_to_path"),
    ("harness", "assign", "estimator.assign"),
    ("geometry", "transform_to_path", "geometry.transform_to_path"),
    ("geometry", "lateral_path_offset", "geometry.lateral_path_offset"),
    ("geometry", "jacobian_lateral_offset", "geometry.jacobian_lateral_offset"),
    ("geometry", "hellinger_distance", "geometry.hellinger_distance"),
    ("discrete_filter", "DiscretePathFilter.__init__", "discrete_filter.init"),
    ("discrete_filter", "DiscretePathFilter.step", "discrete_filter.step"),
    ("discrete_filter", "build_transition_matrix", "discrete_filter.build_transition_matrix"),
    ("discrete_filter", "clamp_params", "discrete_filter.clamp_params"),
    ("discrete_filter", "predict", "discrete_filter.predict"),
    ("discrete_filter", "lane_occupancy", "likelihood.lane_occupancy"),
    ("continuous_filter", "ContinuousPathFilter.__init__", "continuous_filter.init"),
    ("continuous_filter", "ContinuousPathFilter.step", "continuous_filter.step"),
    ("continuous_filter", "kf_init", "continuous_filter.kf_init"),
    ("continuous_filter", "kf_predict", "continuous_filter.kf_predict"),
    ("continuous_filter", "kf_update", "continuous_filter.kf_update"),
    ("continuous_filter", "discretize_posterior", "continuous_filter.discretize_posterior"),
    ("continuous_filter", "lane_occupancy", "likelihood.lane_occupancy"),
    ("estimator", "median_index", "estimator.median_index"),
)


def _size(value) -> float:
    try:
        return float(len(value))
    except TypeError:
        return math.nan


def _observe_size_of_result(tracer, args, result):
    return _size(result)


def _observe_rows_written(tracer, args, result):
    return _size(args[0]) if args else math.nan


def _observe_roc(tracer, args, result):
    return float(getattr(result, "frames_evaluated", math.nan))


def _observe_mc(tracer, args, result):
    tracer.counters["mc_skipped"] += sum(getattr(r, "status", "ok") != "ok" for r in result)
    return _size(result)


def _observe_matrix(tracer, args, result):
    params = args[0]
    tracer.transition_pairs.add((params.epsilon, params.eta))
    tracer.counters["clamped"] += bool(getattr(result, "clamped", False))
    return math.nan


def _observe_filter_created(tracer, args, result):
    tracer.filters.append(args[0])
    return math.nan


# Extra facts recorded per span; the value returned lands in the span's `aux`.
OBSERVERS = {
    "harness.load_scenario": _observe_size_of_result,  # frames read
    "harness.run_pipeline": _observe_size_of_result,  # object-frames
    "harness.write_run_csv": _observe_rows_written,
    "harness.compute_roc": _observe_roc,
    "geometry.mc_validate": _observe_mc,  # grid points
    "discrete_filter.build_transition_matrix": _observe_matrix,
    "discrete_filter.init": _observe_filter_created,
    "continuous_filter.init": _observe_filter_created,
}


def _resolve(module, path: str):
    """(owner, attribute) for a dotted path such as `DiscretePathFilter.step`."""
    owner = module
    *parents, attribute = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attribute


class Tracer:
    """Span recorder for one process; install around the calls to trace."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.invocation_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.aux = array("d")
        self._stack = [-1]
        self.invocation = -1
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.cycles: list[dict] = []
        self._reset_cycle()

    def _reset_cycle(self) -> None:
        self.counters = {"mc_skipped": 0, "clamped": 0}
        self.transition_pairs: set[tuple[float, float]] = set()
        self.filters: list[object] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, original, name: str):
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        observe = OBSERVERS.get(name)
        stack = self._stack
        now = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            index = len(tracer.start)
            tracer.name_id.append(name_id)
            tracer.parent.append(stack[-1])
            tracer.invocation_id.append(tracer.invocation)
            tracer.start.append(0)
            tracer.end.append(0)
            tracer.aux.append(math.nan)
            stack.append(index)
            start = now()
            try:
                result = original(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                tracer.start[index] = start
                tracer.end[index] = end
            if observe is not None:
                tracer.aux[index] = observe(tracer, args, result)
            return result

        traced.__wrapped__ = original
        return traced

    def install(self) -> None:
        """Wrap every traced attribute; attributes a version lacks are listed in `missing`."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for module_name, path, name in TRACED:
            module = importlib.import_module(f"laneassign.{module_name}")
            try:
                owner, attribute = _resolve(module, path)
                original = owner.__dict__[attribute]
            except (AttributeError, KeyError):
                self.missing.append(f"{module_name}.{path}")
                continue
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, name))

    def uninstall(self) -> None:
        """Put every original object back, in reverse order of wrapping."""
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def originals(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, original) for every attribute wrapped by the last install."""
        return list(self._saved)

    # -- cycles -----------------------------------------------------------

    def begin_cycle(self) -> None:
        self._reset_cycle()

    def end_cycle(self) -> None:
        """Close one traced closed-loop cycle and keep its counters."""
        self.cycles.append(
            {
                "mc_skipped": self.counters["mc_skipped"],
                "clamped": self.counters["clamped"],
                "distinct_transition_pairs": len(self.transition_pairs),
                "filters_created": len(self.filters),
                "resets": sum(getattr(f, "resets", 0) for f in self.filters),
            }
        )
        self._reset_cycle()

    # -- output -----------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """The recorded spans as arrays, plus each span's self time in ns."""
        # Copies, so that the arrays can still grow afterwards.
        start = np.frombuffer(self.start, dtype=np.int64).copy()
        end = np.frombuffer(self.end, dtype=np.int64).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        duration = end - start
        has_parent = parent >= 0
        children = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": parent,
            "invocation": np.frombuffer(self.invocation_id, dtype=np.int32).copy(),
            "start_ns": start,
            "end_ns": end,
            "duration_ns": duration,
            "self_ns": duration - children,
            "aux": np.frombuffer(self.aux, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.spans())


def _percentile(values: np.ndarray, q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if values.size == 0:
        return 0.0
    ordered = np.sort(values)
    rank = max(int(math.ceil(q / 100.0 * ordered.size)), 1)
    return float(ordered[rank - 1])


def _median(values: np.ndarray) -> float:
    return float(np.median(values)) if values.size else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of the traced cycles.

    Counts are per traced cycle; times are medians or percentiles over the
    spans of all traced cycles.  A layer the workload never calls reads 0.
    """
    spans = tracer.spans()
    cycles = max(len(tracer.cycles), 1)
    ids = {name: i for i, name in enumerate(tracer.names)}

    def select(name: str) -> np.ndarray:
        return spans["name_id"] == ids.get(name, -1)

    def us(field: str, name: str) -> np.ndarray:
        return spans[field][select(name)] / 1e3

    def per_item(field: str, name: str) -> np.ndarray:
        """Microseconds per item, where the observer recorded the item count."""
        mask = select(name)
        items = spans["aux"][mask]
        ok = items > 0
        return spans[field][mask][ok] / 1e3 / items[ok]

    def calls(name: str) -> float:
        return float(np.count_nonzero(select(name))) / cycles

    def per_cycle(key: str) -> float:
        return sum(c[key] for c in tracer.cycles) / cycles

    builds = calls("discrete_filter.build_transition_matrix")
    distinct = per_cycle("distinct_transition_pairs")
    return {
        "cli.main.self_ms": _median(us("self_ns", "cli.main")) / 1e3,
        "harness.load_scenario.us_per_frame": _median(
            per_item("duration_ns", "harness.load_scenario")
        ),
        "harness.write_run_csv.us_per_row": _median(
            per_item("duration_ns", "harness.write_run_csv")
        ),
        "harness.run_pipeline.self_us_per_object_frame": _median(
            per_item("self_ns", "harness.run_pipeline")
        ),
        "harness.filters_created": per_cycle("filters_created"),
        "harness.compute_roc.us_per_object_frame": _median(
            per_item("duration_ns", "harness.compute_roc")
        ),
        "harness.build_suite.ms": _median(us("duration_ns", "harness.build_suite")) / 1e3,
        "geometry.transform_to_path.calls": calls("geometry.transform_to_path"),
        "geometry.transform_to_path.self_us.p50": _percentile(
            us("self_ns", "geometry.transform_to_path"), 50
        ),
        "geometry.transform_to_path.self_us.p99": _percentile(
            us("self_ns", "geometry.transform_to_path"), 99
        ),
        "geometry.mc_validate.self_us_per_point": _median(
            per_item("self_ns", "geometry.mc_validate")
        ),
        "geometry.hellinger_distance.us.p50": _percentile(
            us("duration_ns", "geometry.hellinger_distance"), 50
        ),
        "geometry.mc_validate.skipped": per_cycle("mc_skipped"),
        "likelihood.lane_occupancy.calls": calls("likelihood.lane_occupancy"),
        "likelihood.lane_occupancy.us.p50": _percentile(
            us("duration_ns", "likelihood.lane_occupancy"), 50
        ),
        "likelihood.lane_occupancy.us.p99": _percentile(
            us("duration_ns", "likelihood.lane_occupancy"), 99
        ),
        "discrete_filter.step.self_us.p50": _percentile(
            us("self_ns", "discrete_filter.step"), 50
        ),
        "discrete_filter.step.self_us.p99": _percentile(
            us("self_ns", "discrete_filter.step"), 99
        ),
        "discrete_filter.build_transition_matrix.calls": builds,
        "discrete_filter.build_transition_matrix.us.p50": _percentile(
            us("duration_ns", "discrete_filter.build_transition_matrix"), 50
        ),
        "discrete_filter.build_transition_matrix.distinct_ratio": (
            distinct / builds if builds else 0.0
        ),
        "discrete_filter.build_transition_matrix.clamped": per_cycle("clamped"),
        "discrete_filter.resets": per_cycle("resets"),
        "continuous_filter.step.self_us.p50": _percentile(
            us("self_ns", "continuous_filter.step"), 50
        ),
        "continuous_filter.step.self_us.p99": _percentile(
            us("self_ns", "continuous_filter.step"), 99
        ),
        "continuous_filter.kf_predict.us.p50": _percentile(
            us("duration_ns", "continuous_filter.kf_predict"), 50
        ),
        "continuous_filter.kf_update.us.p50": _percentile(
            us("duration_ns", "continuous_filter.kf_update"), 50
        ),
        "estimator.assign.calls": calls("estimator.assign"),
        "estimator.assign.us.p50": _percentile(us("duration_ns", "estimator.assign"), 50),
    }
