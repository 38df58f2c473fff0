"""Array engine behind `run_pipeline` and `sweep_parameters` (private).

The scenarios are flattened into arrays of object-frames in processing
order (scenario by scenario, frame by frame, objects in frame order); no
track continues from one scenario into the next.  Everything that does not
depend on the filter parameter runs once over all object-frames: the arc
transform, its first-order variance, and for the discrete method the
occupancy of each measurement.

The filters then step by track depth.  An object-frame's depth is 0 on a
new track and one more than the depth of the track's previous object-frame
otherwise, so the object-frames of one depth depend only on those of the
depth before.  Sorted by depth once, the object-frames of each depth form a
contiguous slice, a level, and each level takes one vectorized
predict/update for all its object-frames and all G values of the swept
parameter (epsilon or sigma_nu; G = 1 for a plain run).  A sweep flattens
all its scenarios into one schedule, so a level carries the tracks of every
scenario.  The results go back to processing order, and the gated median is
taken on the whole result.

Invariants are checked once per array, not per step.  Where a check fails,
the earliest failing object-frame is replayed through the per-object API
(`transform_to_path`, the filter classes, `assign`), which raises the same
error with the same message that a per-object loop would have raised.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .continuous_filter import ContinuousPathFilter, KalmanState
from .discrete_filter import (
    DiscretePathFilter,
    _clamp,
    _matrix_violations,
    _transition_entries,
)
from .estimator import _median_indices, assign
from .geometry import InputVector, _transform_arrays, transform_to_path
from .likelihood import _DEFAULT_BOUNDS, N_PATHS, PathPosterior, _occupancy_arrays

logger = logging.getLogger(__name__)

# Seconds without a detection after which a track is dropped; the object
# starts a new track when it is seen again.
ABSENCE_TIMEOUT = 1.0


@dataclass
class Flat:
    """Scenarios as arrays over their N object-frames, in processing order,
    and the depth schedule of their tracks."""

    frames: list  # every frame of every scenario, in order
    frame_number: list[int]  # index of each frame within its scenario
    frame_of: np.ndarray  # (N,) index into `frames`
    objects: list  # (N,) TrackedObject
    inputs: np.ndarray  # (N, 4) v, yaw_rate, x, y
    variances: np.ndarray  # (N, 4) in the same order
    sin_a: np.ndarray  # (N,) heading offset of the frame
    cos_a: np.ndarray
    bound_means: np.ndarray  # (N, 4)
    bound_stds: np.ndarray
    lateral_velocity: np.ndarray  # (N,) v_lat, 0 where absent
    previous: np.ndarray  # (N,) earlier object-frame of the same track, -1 on a new track
    dt: np.ndarray  # (N,) Kalman predict step, NaN on a new track
    kalman_t: np.ndarray  # (N,) Kalman timestamp before the step, NaN on a new track
    bad_time: np.ndarray  # (N,) the Kalman filter rejects this step's timestamp
    order: np.ndarray  # (N,) object-frames by depth, in processing order within a depth
    rank: np.ndarray  # (N,) position of each object-frame in `order`
    source: np.ndarray  # (N,) position in `order` of the previous object-frame, by `order`
    starts: np.ndarray  # (D + 1,) where each of the D levels starts in `order`, then N


@dataclass
class Batch:
    """Per object-frame results for G parameter values."""

    frames: list  # every frame of every scenario, in order
    frame_of: np.ndarray  # (N,) index into `frames`
    objects: list  # (N,) TrackedObject
    posteriors: np.ndarray  # (N, G, 5)
    index: np.ndarray  # (N, G) median index
    probability: np.ndarray  # (N, G) posterior mass at the median index
    accepted: np.ndarray  # (N, G)


def flatten(scenarios) -> Flat:
    """Arrays of the scenarios, with the tracks `ABSENCE_TIMEOUT` defines;
    no track continues from one scenario into the next."""
    frames = [frame for scenario in scenarios for frame in scenario]
    frame_number = [number for scenario in scenarios for number in range(len(scenario))]
    per_frame, bounds_of_frame = [], []  # host values and bounds, one per frame
    frame_of, objects, previous, depth = [], [], [], []
    xs, ys, var_xs, var_ys, lateral_velocity = [], [], [], [], []
    dt, kalman_t, bad_time = [], [], []
    tracks: dict[str, tuple[int, float]] = {}  # id -> (object-frame, Kalman time)
    last_seen: dict[str, float] = {}
    bounds_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for frame_index, (frame, number) in enumerate(zip(frames, frame_number)):
        if number == 0:
            tracks.clear()
            last_seen.clear()
        for object_id in [
            oid for oid, seen in last_seen.items() if frame.t - seen > ABSENCE_TIMEOUT
        ]:
            del tracks[object_id]
            del last_seen[object_id]
        host = frame.host
        per_frame.append(
            (host.v, host.yaw_rate, frame.var_v, frame.var_yaw,
             math.sin(host.alpha), math.cos(host.alpha))
        )
        bounds = frame.bounds if frame.bounds is not None else _DEFAULT_BOUNDS
        if id(bounds) not in bounds_cache:
            bounds_cache[id(bounds)] = bounds.arrays()
        bounds_of_frame.append(bounds_cache[id(bounds)])
        for obj in frame.objects:
            meas = obj.measurement
            frame_of.append(frame_index)
            objects.append(obj)
            xs.append(meas.x)
            ys.append(meas.y)
            var_xs.append(obj.var_x)
            var_ys.append(obj.var_y)
            u = meas.lateral_velocity_input
            lateral_velocity.append(u if u is not None else 0.0)
            track = tracks.get(obj.object_id)
            if track is None:
                previous.append(-1)
                depth.append(0)
                dt.append(math.nan)
                kalman_t.append(math.nan)
                step_t = frame.t
                bad = not math.isfinite(step_t)
            else:
                previous.append(track[0])
                depth.append(depth[track[0]] + 1)
                kalman_t.append(track[1])
                step = frame.t - track[1]
                dt.append(step)
                step_t = track[1] + step
                bad = not (step > 0.0 and math.isfinite(step) and math.isfinite(step_t))
            bad_time.append(bad)
            tracks[obj.object_id] = (len(frame_of) - 1, step_t)
            last_seen[obj.object_id] = frame.t

    frame_of = np.array(frame_of, dtype=np.intp)
    v, yaw_rate, var_v, var_yaw, sin_a, cos_a = (
        np.array(per_frame, dtype=float).reshape(-1, 6)[frame_of].T
    )
    previous = np.array(previous, dtype=np.intp)
    depth = np.array(depth, dtype=np.intp)
    order = np.argsort(depth, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return Flat(
        frames=frames,
        frame_number=frame_number,
        frame_of=frame_of,
        objects=objects,
        inputs=np.column_stack([v, yaw_rate, np.array(xs), np.array(ys)]),
        variances=np.column_stack([var_v, var_yaw, np.array(var_xs), np.array(var_ys)]),
        sin_a=sin_a,
        cos_a=cos_a,
        bound_means=np.array([b[0] for b in bounds_of_frame]).reshape(-1, 4)[frame_of],
        bound_stds=np.array([b[1] for b in bounds_of_frame]).reshape(-1, 4)[frame_of],
        lateral_velocity=np.array(lateral_velocity, dtype=float),
        previous=previous,
        dt=np.array(dt, dtype=float),
        kalman_t=np.array(kalman_t, dtype=float),
        bad_time=np.array(bad_time, dtype=bool),
        order=order,
        rank=rank,
        source=np.where(previous < 0, -1, rank[previous])[order],
        starts=np.concatenate([[0], np.cumsum(np.bincount(depth))]).astype(np.intp),
    )


def _levels(flat: Flat, rare: np.ndarray):
    """(start, stop, rare) of each level, the object-frames of one depth:
    its slice of `flat.order`, and whether `rare` (given by `order`) holds
    for one of its object-frames."""
    flags = np.logical_or.reduceat(rare, flat.starts[:-1]).tolist()
    return zip(flat.starts[:-1].tolist(), flat.starts[1:].tolist(), flags)


def _discrete(flat: Flat, z_mean, z_std, epsilon: np.ndarray, eta_gain: float):
    """Bayes filter over the batch: posteriors (N, G, 5), which are also the
    filter states, and the object-frames whose transition parameters fail."""
    n, g = len(flat.order), len(epsilon)
    occupancy, _ = _occupancy_arrays(z_mean, z_std, flat.bound_means, flat.bound_stds)
    eta = eta_gain * flat.lateral_velocity
    etas, eta_index = np.unique(eta, return_inverse=True)
    eps, drift = _clamp(epsilon[None, :], etas[:, None])
    matrices = _transition_entries(eps, drift)  # (E, G, 5, 5), one per distinct pair
    bad_pair = ~(np.isfinite(epsilon)[None, :] & np.isfinite(etas)[:, None])
    bad_pair |= np.logical_or.reduce(_matrix_violations(matrices))

    # By level from here on, as column vectors, so that one matmul predicts
    # every posterior of a level for all G values.
    occupancy = occupancy[flat.order]
    measured = occupancy[:, None, :, None]
    pair = eta_index[flat.order]
    posteriors = np.empty((n, g, N_PATHS, 1))
    uniform = np.full((g, N_PATHS, 1), 1.0 / N_PATHS)
    # A valid prediction has an entry of at least about 1/5, so the total
    # can only vanish where the measurement has an entry below the smallest
    # normal number; only levels with such a measurement can need a reset.
    tiny = occupancy.min(axis=1) < np.finfo(float).tiny
    for start, stop, rare in _levels(flat, tiny):
        # Level 0 holds exactly the object-frames that start a track.
        prior = uniform if start == 0 else posteriors[flat.source[start:stop]]
        product = (matrices[pair[start:stop]] @ prior) * measured[start:stop]
        total = product.sum(axis=2, keepdims=True)
        posteriors[start:stop] = product / total
        if rare:
            reset = (total <= 0.0)[:, :, 0, 0]
            for row in np.flatnonzero(reset.any(axis=1)):
                # Prior and measurement have disjoint support; restart from
                # the measurement rather than producing an undefined posterior.
                logger.warning(
                    "path posterior and measurement have zero overlap; "
                    "resetting filter to the measurement"
                )
                k = start + row
                posteriors[k, reset[row]] = measured[k, 0] / measured[k, 0].sum()
    posteriors = posteriors[flat.rank, ..., 0]
    return posteriors, bad_pair[eta_index], posteriors


def _continuous(flat: Flat, z_mean, z_std, sigma_nu: np.ndarray):
    """Kalman filter over the batch: posteriors (N, G, 5), the object-frames
    the filter rejects, and the filter states (N, G, 2) as (mean, variance)."""
    n, g = len(flat.order), len(sigma_nu)
    # By level from here on, as (N, 1) columns against the G values.
    order = flat.order
    z = z_mean[order, None]
    r = (z_std * z_std)[order, None]
    drift = (flat.dt * flat.lateral_velocity)[order, None]
    process = (flat.dt[order, None] * sigma_nu[None, :]) ** 2
    mean = np.empty((n, g))
    var = np.empty((n, g))
    contradiction = np.zeros((n, g), dtype=bool)
    for start, stop, rare in _levels(flat, r[:, 0] == 0.0):
        level = slice(start, stop)
        if start == 0:
            mean[level] = z[level]
            var[level] = r[level]
            continue
        prior = flat.source[level]
        m = mean[prior] + drift[level]
        v = var[prior] + process[level]
        gain = v / (v + r[level])
        if rare:
            # Both sides claim certainty: keep the state where they agree.
            certain = (r[level] == 0.0) & (v == 0.0)
            gain[certain] = 0.0
            contradiction[level] = certain & (z[level] != m)
        mean[level] = m + gain * (z[level] - m)
        var[level] = (1.0 - gain) * v
    mean, var = mean[flat.rank], var[flat.rank]
    # One value at a time, which keeps the temporaries at (N, 4).
    posteriors = np.empty((n, g, N_PATHS))
    for column in range(g):
        posteriors[:, column], _ = _occupancy_arrays(
            mean[:, column], np.sqrt(var[:, column]), flat.bound_means, flat.bound_stds
        )
    new_track = (flat.previous < 0)[:, None]
    failed = (
        ~(np.isfinite(mean) & np.isfinite(var))
        | contradiction[flat.rank]
        | flat.bad_time[:, None]
        | (new_track & ~((sigma_nu > 0.0) & np.isfinite(sigma_nu)))
    )
    return posteriors, failed, np.stack([mean, var], axis=-1)


def filter_batch(scenarios, method: str, config, values) -> Batch:
    """Run `method` over the scenarios for every value of its parameter.

    `values` are the epsilons (discrete) or the sigma_nus (continuous) of
    the batch; the other settings come from `config`.  A ValueError names
    the earliest failing frame of the first scenario that fails.
    """
    values = np.asarray(values, dtype=float)
    flat = flatten(scenarios)
    with np.errstate(all="ignore"):
        z_mean, z_std = _transform_arrays(
            flat.inputs, flat.variances, flat.sin_a, flat.cos_a
        )
        if method == "discrete":
            posteriors, failed, states = _discrete(
                flat, z_mean, z_std, values, config.eta_gain
            )
        else:
            posteriors, failed, states = _continuous(flat, z_mean, z_std, values)
        index = _median_indices(posteriors)
        failed |= ~(np.isfinite(z_mean) & np.isfinite(z_std))[:, None]
        failed |= ~(
            np.isfinite(posteriors).all(axis=2)
            & (posteriors >= 0.0).all(axis=2)
            & (np.abs(posteriors.sum(axis=2) - 1.0) <= 1e-9)
        )
    if len(failed) and not 0.0 <= config.p_min <= 1.0:
        failed[0] = True
    if failed.any():
        k, g = (int(i) for i in np.argwhere(failed)[0])
        _replay(flat, k, method, config, float(values[g]), states[:, g])
    probability = np.take_along_axis(posteriors, index[..., None], axis=2)[..., 0]
    accepted = probability >= config.p_min
    return Batch(
        flat.frames, flat.frame_of, flat.objects, posteriors, index, probability, accepted
    )


def _replay(flat, k, method, config, value, states):
    """Run object-frame k, the earliest that failed a check, through the
    per-object API and re-raise its error with the frame context."""
    frame = flat.frames[flat.frame_of[k]]
    frame_index = flat.frame_number[flat.frame_of[k]]
    bounds = frame.bounds if frame.bounds is not None else _DEFAULT_BOUNDS
    u = float(flat.lateral_velocity[k])
    p = flat.previous[k]
    try:
        z = transform_to_path(
            InputVector(flat.inputs[k], np.diag(flat.variances[k])), frame.host.alpha
        )
        if method == "discrete":
            prior = PathPosterior(states[p]) if p >= 0 else None
            filt = DiscretePathFilter(value, config.eta_gain, initial=prior)
            posterior = filt.step(z, bounds, u)
        else:
            filt = ContinuousPathFilter(value)
            if p >= 0:
                mean, var = states[p].tolist()
                filt.state = KalmanState(mean, var, float(flat.kalman_t[k]))
            posterior = filt.step(z, bounds, frame.t, u)
        assign(posterior, config.p_min)
    except ValueError as exc:
        raise type(exc)(f"frame {frame_index} (t={frame.t}): {exc}") from exc
    raise RuntimeError(
        f"frame {frame_index} (t={frame.t}): the batch check rejects an "
        "object-frame that the per-object filters accept"
    )
