"""Array engine behind `run_pipeline` and `sweep_parameters` (private).

The engine reads the columns of a list of `harness.Scenario`s: one entry
per frame, and one per object-frame, which it joins in processing order
(scenario by scenario, frame by frame, objects in frame order).
`run_pipeline` hands it one scenario, and `sweep_parameters` all of its
scenarios; the list alone marks where a scenario ends, and no track
continues from one scenario into the next.  Messages number a frame within
its scenario.

`flatten` first checks the `Scenario` contract, which the parser and the
generator keep: within each scenario, every column has one entry per frame
or one per id; `frame_of` gives each id a frame, in frame order; frame
times are finite and strictly increase; and an id appears at most once per
frame.  It then works out the tracks on arrays:
integer codes for (scenario, id), a stable sort by code, and a new track
where the gap since the id's previous detection exceeds `ABSENCE_TIMEOUT`;
on a continued track that gap is the Kalman step `dt`.
Everything that does not depend on the filter parameter runs once over all
object-frames: the arc transform, its first-order variance, and for the
discrete method the occupancy of each measurement.

The filters then step by track depth.  An object-frame's depth is 0 on a
new track and one more than the depth of the track's previous object-frame
otherwise, so the object-frames of one depth depend only on those of the
depth before.  Sorted by depth once, the object-frames of each depth form a
contiguous slice, a level, and each level takes one vectorized
predict/update for all its object-frames and all G values of the swept
parameter (epsilon or sigma_nu; G = 1 for a plain run).  A level step
gathers the states of the depth before, and for the discrete method the
transition matrices, with `take`.  The Bayes update builds its zero-overlap
reset mask only when some normalizer is not positive, and the Kalman update
its certain-state mask only when some measurement has zero variance; a
certain state that contradicts a certain measurement becomes a NaN state,
which fails like a state that overflows.  The transform and the step's
formulas are the array functions of `geometry` and the filter modules,
which the per-object API calls with one row, so a per-object loop gives
`run`'s bits.  A sweep flattens all its scenarios into one schedule, so a
level carries the tracks of every scenario.  The results go back to processing
order, where one pass of `estimator._assign_arrays`, the kernel behind
`assign`, checks every posterior and takes its gated median.  `filter_batch`
returns one `RunResult` per parameter value, the type that `run_pipeline`
and `sweep_parameters` hand to callers, with the frame times and ids that
`flatten` joined.

The method, the parameter values and the settings (p_min, and epsilon and
eta_gain or sigma_nu) are checked first, in that order, since no frame is
at fault where one is out of range.  Invariants of the data are checked
once per array, not per step.  The input domains are tested where the
transform runs: `_transform_arrays` gives NaN outside those of `HostState`
and of `transform_to_path`'s position and variances, and `flatten` sets the
heading offset to NaN outside its domain before taking its sine;
`filter_batch` adds `geometry._check_object`'s x > 0 and finite v_lat to
the transform's non-finite results as its one domain term.  Where a check
fails, the earliest failing object-frame is replayed through the
per-object functions: `_check_object`, `HostState`, `transform_to_path`,
then `build_transition_matrix`, `predict`, `update` and `lane_occupancy`, or
`kf_init`, `kf_predict`, `kf_update` and `discretize_posterior`, then
`assign`.  That replay runs the same formulas on the one object-frame, so
its input checks raise the error, with the message, that a per-object loop
over those functions would have raised.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .continuous_filter import (
    KalmanState,
    _check_sigma_nu,
    _kf_motion_arrays,
    _kf_predict_arrays,
    _kf_update_arrays,
    discretize_posterior,
    kf_init,
    kf_predict,
    kf_update,
)
from .discrete_filter import (
    _bayes_update_arrays,
    _clamp,
    _transition_entries,
    build_transition_matrix,
    predict,
    update,
)
from .estimator import _assign_arrays, _check_p_min, assign
from .geometry import (
    HostState,
    InputDomainError,
    _check_object,
    _transform_arrays,
    transform_to_path,
)
from .likelihood import (
    DEFAULT_BOUNDS,
    N_PATHS,
    PathPosterior,
    _occupancy_arrays,
    lane_occupancy,
)

# Seconds without a detection after which a track is dropped; the object
# starts a new track when it is seen again.
ABSENCE_TIMEOUT = 1.0

METHODS = ("discrete", "continuous")


@dataclass(frozen=True, eq=False)
class RunResult:
    """Results of one method, one entry per object-frame in processing order
    (scenario by scenario, frame by frame, objects in frame order)."""

    method: str
    t: list  # timestamp of the object-frame's frame, as given
    object_id: list
    ground_truth: list  # None where absent
    index: np.ndarray  # (N,) gated median index
    probability: np.ndarray  # (N,) posterior mass at the index
    accepted: np.ndarray  # (N,) the mass reaches p_min
    posteriors: np.ndarray  # (N, 5)

    def __len__(self) -> int:
        return len(self.index)


@dataclass
class Flat:
    """Scenarios as arrays over their N object-frames, in processing order,
    and the depth schedule of their tracks."""

    times: list  # (F,) frame times as given, over the F frames of all scenarios
    frame_number: np.ndarray  # (F,) index of each frame within its scenario
    scenario_of: np.ndarray  # (F,) index of each frame's scenario
    alpha: list  # (F,) heading offsets as given
    bounds: list  # (F,) BoundarySet of each frame
    frame_of: np.ndarray  # (N,) index into the F frames
    ids: list  # (N,) object ids as given
    inputs: np.ndarray  # (N, 4) v, yaw_rate, x, y
    variances: np.ndarray  # (N, 4) in the same order
    sin_a: np.ndarray  # (N,) heading offset of the frame
    cos_a: np.ndarray
    bound_means: np.ndarray  # (N, 4)
    bound_stds: np.ndarray
    lateral_velocity: np.ndarray  # (N,) v_lat, 0 where absent
    previous: np.ndarray  # (N,) earlier object-frame of the same track, -1 on a new track
    dt: np.ndarray  # (N,) frame time since `previous`, NaN on a new track
    order: np.ndarray  # (N,) object-frames by depth, in processing order within a depth
    rank: np.ndarray  # (N,) position of each object-frame in `order`
    source: np.ndarray  # (N,) position in `order` of the previous object-frame, by `order`
    starts: np.ndarray  # (D + 1,) where each of the D levels starts in `order`, then N


def _in_scenario(error: ValueError, index) -> ValueError:
    """`error`, with the index of the scenario at fault as its `scenario`."""
    error.scenario = int(index)
    return error


def _joined(scenarios, name: str) -> list:
    """Column `name` of the scenarios, one after another."""
    return [value for scenario in scenarios for value in getattr(scenario, name)]


def _floats(scenarios, name: str) -> np.ndarray:
    """Column `name` of the scenarios, one after another, as a float array;
    `np.fromiter` converts a list in half the time `np.array` takes."""
    return np.fromiter(
        itertools.chain.from_iterable(getattr(scenario, name) for scenario in scenarios), float
    )


def _check_frames(times, t, frame_number, scenario_of, ids, frame_of, repeated) -> None:
    """Raise the InputDomainError of the earliest frame that breaks the
    `Scenario` contract, in the parser's words: within a scenario frame
    times are finite and strictly increase, and no id repeats within a
    frame.  `repeated` holds the object-frames whose id an earlier object of
    their frame has."""
    unordered = np.concatenate([[False], t[1:] <= t[:-1]]) & (frame_number > 0)
    bad = unordered | ~np.isfinite(t)
    if len(repeated):
        k = repeated.min()
        bad[frame_of[k]] = True
    if bad.any():
        f = int(np.argmax(bad))
        if unordered[f]:
            message = f"timestamps must strictly increase ({times[f]} after {times[f - 1]})"
        elif not np.isfinite(t[f]):
            message = f"timestamp must be finite, got {times[f]}"
        else:
            message = f"duplicate object id {ids[k]!r}"
        raise _in_scenario(
            InputDomainError(f"frame {frame_number[f]} (t={times[f]}): {message}"),
            scenario_of[f],
        )


# The columns of a `Scenario` with one entry per frame, and per id; each is
# measured against the first of its kind.
_COLUMNS = {
    "frame": ("t", "v", "yaw_rate", "alpha", "var_v", "var_yaw", "bounds"),
    "id": ("id", "frame_of", "x", "y", "var_x", "var_y", "v_lat", "gt"),
}


def _check_columns(scenarios, lengths, counts, frame_of) -> None:
    """Raise an InputDomainError naming the first column of a scenario
    whose length is off, or else `frame_of` where it does not place the
    object-frames in frame order: never decreasing, each in range(len(t)).
    `frame_of` holds the columns one after another, `counts` their lengths
    and `lengths` the frame counts."""
    for index, scenario in enumerate(scenarios):
        for unit, (first, *names) in _COLUMNS.items():
            want = len(getattr(scenario, first))
            for name in names:
                got = len(getattr(scenario, name))
                if got != want:
                    raise _in_scenario(InputDomainError(
                        f"{name} must have one entry per {unit}, got {got} for {want} {unit}s"
                    ), index)
    start = np.repeat(np.cumsum([0, *counts])[:-1], counts)
    frames = np.repeat(lengths, counts)
    decreasing = np.concatenate([[False], frame_of[1:] < frame_of[:-1]]) & (
        np.arange(len(frame_of)) > start
    )
    bad = decreasing | (frame_of < 0) | (frame_of >= frames)
    if bad.any():
        k = int(np.argmax(bad))
        if decreasing[k]:
            message = f"frame_of must not decrease, got {frame_of[k]} after {frame_of[k - 1]}"
        else:
            message = f"frame_of must lie in range({frames[k]}), got {frame_of[k]}"
        index = np.searchsorted(np.cumsum(counts), k, side="right")
        raise _in_scenario(InputDomainError(message), index)


def flatten(scenarios) -> Flat:
    """Arrays of the scenarios' columns, one scenario after another, with
    the tracks `ABSENCE_TIMEOUT` defines; no track continues from one
    scenario into the next.  Raises an InputDomainError where the columns
    break the `Scenario` contract."""
    lengths = [len(scenario) for scenario in scenarios]
    first = np.cumsum([0, *lengths])[:-1]
    times = _joined(scenarios, "t")
    t = np.array(times, dtype=float)
    frame_number = np.arange(len(t)) - np.repeat(first, lengths)
    scenario_of = np.repeat(np.arange(len(scenarios)), lengths)
    counts = [len(scenario.frame_of) for scenario in scenarios]
    frame_of = np.array(_joined(scenarios, "frame_of"), dtype=np.intp)
    _check_columns(scenarios, lengths, counts, frame_of)
    frame_of += np.repeat(first, counts)
    n = len(frame_of)

    # Tracks.  Ids match by equality and hash, within one scenario; sorted by
    # (scenario, id), each object-frame follows the id's previous detection.
    ids = _joined(scenarios, "id")
    codes: dict = {}
    code = np.array([codes.setdefault(i, len(codes)) for i in ids], dtype=np.intp)
    key = np.cumsum(frame_number == 0)[frame_of] * len(codes) + code
    by_track = np.argsort(key, kind="stable")
    earlier, later = by_track[:-1], by_track[1:]
    seen, now = frame_of[earlier], frame_of[later]
    same_id = key[earlier] == key[later]
    _check_frames(
        times, t, frame_number, scenario_of, ids, frame_of, later[same_id & (seen == now)]
    )
    # The frame times increase, so the track is dropped where the gap to
    # the id's next detection exceeds the timeout.
    continues = same_id & ~(t[now] - t[seen] > ABSENCE_TIMEOUT)
    previous = np.full(n, -1, dtype=np.intp)
    previous[later[continues]] = earlier[continues]
    position = np.arange(n)
    new_track = np.concatenate([[True], ~continues])[:n]
    depth = np.empty(n, dtype=np.intp)
    depth[by_track] = position - np.maximum.accumulate(np.where(new_track, position, 0))

    order = np.argsort(depth, kind="stable")
    rank = np.empty_like(order)
    rank[order] = position
    source = np.where(previous < 0, -1, rank[previous])[order]
    starts = np.concatenate([[0], np.cumsum(np.bincount(depth))]).astype(np.intp)
    t_of = t[frame_of]
    dt = np.where(previous < 0, np.nan, t_of - t_of[previous])

    # The heading offset enters by its sine and cosine, from math as in the
    # per-object transform; NaN outside HostState's domain, which fails the
    # transform.
    alpha = _joined(scenarios, "alpha")
    inside = np.array(alpha, dtype=float)
    inside = np.where(np.abs(inside) < math.pi / 2, inside, math.nan).tolist()
    v, yaw_rate, var_v, var_yaw, sin_a, cos_a = np.array(
        [*(_floats(scenarios, name) for name in ("v", "yaw_rate", "var_v", "var_yaw")),
         np.fromiter(map(math.sin, inside), float), np.fromiter(map(math.cos, inside), float)]
    )[:, frame_of]
    bounds = [b if b is not None else DEFAULT_BOUNDS for b in _joined(scenarios, "bounds")]
    # The boundary arrays of each distinct BoundarySet, in order of first
    # use, and the row of each frame's set.
    distinct = dict(zip(map(id, bounds), bounds))
    slots = dict(zip(distinct, itertools.count()))
    slot = np.fromiter(map(slots.__getitem__, map(id, bounds)), np.intp, len(bounds))
    bound_means, bound_stds = np.array(
        [b.arrays() for b in distinct.values()]
    ).reshape(-1, 2, 4).transpose(1, 0, 2).take(slot[frame_of], axis=1)
    x, y, var_x, var_y = (_floats(scenarios, name) for name in ("x", "y", "var_x", "var_y"))
    lateral_velocity = [0.0 if u is None else u for u in _joined(scenarios, "v_lat")]
    return Flat(
        times=times,
        frame_number=frame_number,
        scenario_of=scenario_of,
        alpha=alpha,
        bounds=bounds,
        frame_of=frame_of,
        ids=ids,
        inputs=np.column_stack([v, yaw_rate, x, y]),
        variances=np.column_stack([var_v, var_yaw, var_x, var_y]),
        sin_a=sin_a,
        cos_a=cos_a,
        bound_means=bound_means,
        bound_stds=bound_stds,
        lateral_velocity=np.array(lateral_velocity, dtype=float),
        previous=previous,
        dt=dt,
        order=order,
        rank=rank,
        source=source,
        starts=starts,
    )


def _discrete(flat: Flat, z_mean, z_std, epsilon: np.ndarray, eta_gain: float):
    """Bayes filter over the batch: posteriors (N, G, 5), which are also the
    filter states, and the object-frames whose transition parameters fail."""
    n, g = len(flat.order), len(epsilon)
    occupancy = _occupancy_arrays(z_mean, z_std, flat.bound_means, flat.bound_stds)
    eta = eta_gain * flat.lateral_velocity
    etas, eta_index = np.unique(eta, return_inverse=True)
    # One matrix per distinct pair, (E, G, 5, 5); clamped parameters make
    # every matrix valid.
    matrices = _transition_entries(*_clamp(epsilon[None, :], etas[:, None]))

    # By level from here on, as column vectors, so that one matmul predicts
    # every posterior of a level for all G values.
    occupancy = occupancy.take(flat.order, axis=0)
    measured = occupancy[:, None, :, None]
    pair = eta_index[flat.order]
    posteriors = np.empty((n, g, N_PATHS, 1))
    uniform = np.full((g, N_PATHS, 1), 1.0 / N_PATHS)
    # `take` gathers a level's rows in a third of the time fancy indexing does.
    for start, stop in zip(flat.starts[:-1].tolist(), flat.starts[1:].tolist()):
        # Level 0 holds exactly the object-frames that start a track.
        prior = uniform if start == 0 else posteriors.take(flat.source[start:stop], axis=0)
        posteriors[start:stop] = _bayes_update_arrays(
            matrices.take(pair[start:stop], axis=0) @ prior, measured[start:stop]
        )
    posteriors = posteriors[..., 0].take(flat.rank, axis=0)
    # eta_gain is finite, but eta_gain * v_lat can overflow.
    return posteriors, ~np.isfinite(eta)[:, None], posteriors


def _continuous(flat: Flat, z_mean, z_std, sigma_nu: np.ndarray):
    """Kalman filter over the batch: posteriors (N, G, 5), the object-frames
    the filter rejects, and the filter states (N, G, 2) as (mean, variance)."""
    n, g = len(flat.order), len(sigma_nu)
    # By level from here on, as (N, 1) columns against the G values.
    order = flat.order
    z = z_mean[order, None]
    r = (z_std * z_std)[order, None]
    drift, process = _kf_motion_arrays(
        flat.dt[order, None], flat.lateral_velocity[order, None], sigma_nu
    )
    mean = np.empty((n, g))
    var = np.empty((n, g))
    may_contradict = not (r > 0.0).all()
    for start, stop in zip(flat.starts[:-1].tolist(), flat.starts[1:].tolist()):
        level = slice(start, stop)
        if start == 0:
            mean[level] = z[level]
            var[level] = r[level]
            continue
        prior = flat.source[level]
        m, v = _kf_predict_arrays(
            mean.take(prior, axis=0), var.take(prior, axis=0), drift[level], process[level]
        )
        mean[level], var[level] = _kf_update_arrays(m, v, z[level], r[level], may_contradict)
    mean, var = mean.take(flat.rank, axis=0), var.take(flat.rank, axis=0)
    # One value at a time, which keeps the temporaries at (N, 4).
    posteriors = np.empty((n, g, N_PATHS))
    for column in range(g):
        posteriors[:, column] = _occupancy_arrays(
            mean[:, column], np.sqrt(var[:, column]), flat.bound_means, flat.bound_stds
        )
    return posteriors, ~(np.isfinite(mean) & np.isfinite(var)), np.stack([mean, var], axis=-1)


def filter_batch(scenarios, method: str, config, values=None) -> list[RunResult]:
    """Run `method` over the columns of a list of scenarios, one after
    another, for every value of its parameter: one RunResult per value.

    `values` are the epsilons (discrete) or the sigma_nus (continuous) of
    the batch, by default the one `config` gives; the other settings come
    from `config`.  The method is checked first, then that there is a
    value, then the settings, and an InputDomainError names the first that
    fails.  Then an InputDomainError names the earliest frame that breaks
    the `Scenario` contract; otherwise a ValueError names the earliest
    failing frame of the first scenario that fails.  An error of one
    scenario holds its index in the list as its `scenario` attribute.
    """
    if method not in METHODS:
        raise InputDomainError(f"unknown method {method!r}; expected one of {METHODS}")
    if values is None:
        values = [config.epsilon if method == "discrete" else config.sigma_nu]
    values = np.asarray(values, dtype=float)
    if not len(values):
        raise InputDomainError("parameter grid must be nonempty")
    _check_p_min(config.p_min)
    if method == "discrete":
        for epsilon in values.tolist():
            if not math.isfinite(epsilon):
                raise InputDomainError(f"epsilon must be finite, got {epsilon}")
        if not math.isfinite(config.eta_gain):
            raise InputDomainError(f"eta_gain must be finite, got {config.eta_gain}")
    else:
        for sigma_nu in values.tolist():
            _check_sigma_nu(sigma_nu)
    with np.errstate(all="ignore"):
        flat = flatten(scenarios)
        z_mean, z_std = _transform_arrays(
            flat.inputs, flat.variances, flat.sin_a, flat.cos_a
        )
        if method == "discrete":
            posteriors, failed, states = _discrete(
                flat, z_mean, z_std, values, config.eta_gain
            )
        else:
            posteriors, failed, states = _continuous(flat, z_mean, z_std, values)
        index, probability, accepted = _assign_arrays(posteriors, config.p_min)
        # The transform's domains, and `_check_object`'s x > 0 and finite v_lat.
        inside = np.isfinite(z_mean) & np.isfinite(z_std) & (flat.inputs[:, 2] > 0.0)
        inside &= np.isfinite(flat.lateral_velocity)
        failed = failed | (index < 0) | ~inside[:, None]
    if failed.any():
        k, g = (int(i) for i in np.argwhere(failed)[0])
        _replay(flat, k, method, config, float(values[g]), states[:, g])
    t = [flat.times[f] for f in flat.frame_of.tolist()]
    gt = _joined(scenarios, "gt")
    return [
        RunResult(
            method, t, flat.ids, gt, index[:, g], probability[:, g],
            accepted[:, g], posteriors[:, g],
        )
        for g in range(len(values))
    ]


def _replay(flat, k, method, config, value, states):
    """Run object-frame k, the earliest that failed a check, through the
    per-object functions from the state its track left, and re-raise their
    error with the frame context."""
    f = flat.frame_of[k]
    t, bounds = flat.times[f], flat.bounds[f]
    u = float(flat.lateral_velocity[k])
    p = flat.previous[k]
    try:
        v, yaw_rate, x, y = flat.inputs[k].tolist()
        _check_object(x, y, u)
        host = HostState(v, yaw_rate, flat.alpha[f])
        z = transform_to_path(host, x, y, flat.variances[k])
        if method == "discrete":
            prior = PathPosterior(states[p]) if p >= 0 else PathPosterior.uniform()
            matrix = build_transition_matrix(value, config.eta_gain * u)
            posterior = update(predict(prior, matrix), lane_occupancy(z, bounds))
        else:
            if p < 0:
                state = kf_init(z)
            else:
                state = KalmanState(*states[p].tolist())
                state = kf_update(kf_predict(state, u, float(flat.dt[k]), value), z)
            posterior = discretize_posterior(state, bounds)
        assign(posterior, config.p_min)
    except ValueError as exc:
        raise _in_scenario(
            type(exc)(f"frame {flat.frame_number[f]} (t={t}): {exc}"), flat.scenario_of[f]
        ) from exc
    raise RuntimeError(
        f"frame {flat.frame_number[f]} (t={t}): the batch check rejects an "
        "object-frame that the per-object functions accept"
    )
