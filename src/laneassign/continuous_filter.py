"""Scalar Kalman filter on the lateral path offset.

State is the offset itself; the motion model is a controlled random walk
(offset rate u as control input, white acceleration-like noise sigma_nu).
The filtered Gaussian is discretized into the five-path occupancy vector with
the same inverse measurement model the discrete filter uses, so both filters
produce comparable posteriors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import GaussianScalar, InputDomainError
from .likelihood import BoundarySet, PathPosterior, lane_occupancy


@dataclass(frozen=True)
class ProcessNoise:
    """White process noise on the offset rate, in m/s.  Strictly positive:
    a zero here would let the filter collapse to false certainty."""

    sigma_nu: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.sigma_nu) or self.sigma_nu <= 0.0:
            raise InputDomainError(
                f"sigma_nu must be finite and > 0, got {self.sigma_nu}"
            )


@dataclass(frozen=True)
class KalmanState:
    mean: float
    variance: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.mean):
            raise InputDomainError("state mean must be finite")
        if not math.isfinite(self.variance) or self.variance < 0.0:
            raise InputDomainError(
                f"state variance must be finite and >= 0, got {self.variance}"
            )


def kf_init(z: GaussianScalar) -> KalmanState:
    """Initialize the state from the first measurement."""
    return KalmanState(z.mean, z.variance)


def _kf_motion_arrays(dt, u, sigma_nu):
    """Drift and process-noise variance of dt seconds at offset rate u with
    process noise sigma_nu, over broadcast arrays."""
    noise = dt * sigma_nu
    return dt * u, noise * noise


def _kf_predict_arrays(mean, var, drift, process):
    """Kalman prediction over broadcast arrays, with the drift and process
    variance of `_kf_motion_arrays`."""
    return mean + drift, var + process


def _kf_update_arrays(mean, var, z, r, may_contradict=True):
    """Kalman update of the predicted (mean, var) with measurements (z, r)
    over broadcast arrays: the updated mean and variance, and the mask where
    a certain state (var = 0) contradicts a certain measurement (r = 0)
    (False when that case is skipped).

    Where both sides are certain the state is kept; only exact agreement is
    consistent.  `may_contradict=False` skips that case for measurements
    that are all uncertain.  The caller passes `var` as a numpy value, so
    that the 0/0 gain of such a case is a NaN, and silences its warning.
    """
    gain = var / (var + r)
    contradiction = False
    if may_contradict:
        certain = (r == 0.0) & (var == 0.0)
        gain = np.where(certain, 0.0, gain)
        contradiction = certain & (z != mean)
    return mean + gain * (z - mean), (1.0 - gain) * var, contradiction


def kf_predict(
    state: KalmanState, u: float, dt: float, noise: ProcessNoise
) -> KalmanState:
    """Propagate by dt seconds with offset rate u."""
    if dt <= 0.0 or not math.isfinite(dt):
        raise InputDomainError(f"dt must be positive, got {dt}")
    mean, var = _kf_predict_arrays(
        state.mean, state.variance, *_kf_motion_arrays(dt, u, noise.sigma_nu)
    )
    return KalmanState(mean, var)


def kf_update(state: KalmanState, z: GaussianScalar) -> KalmanState:
    """Fuse a measurement."""
    with np.errstate(invalid="ignore"):
        mean, var, contradiction = _kf_update_arrays(
            state.mean, np.float64(state.variance), z.mean, z.variance
        )
    if contradiction:
        raise InputDomainError(
            f"certain state {state.mean} contradicts certain measurement {z.mean}"
        )
    return KalmanState(float(mean), float(var))


def discretize_posterior(state: KalmanState, bounds: BoundarySet) -> PathPosterior:
    """Map the filtered Gaussian onto the five-path occupancy vector."""
    return lane_occupancy(GaussianScalar(state.mean, math.sqrt(state.variance)), bounds)
