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


def _check_sigma_nu(sigma_nu: float) -> None:
    """Raise an InputDomainError unless the process noise sigma_nu, white
    noise on the offset rate in m/s, is finite and strictly positive: a zero
    would let the filter collapse to false certainty."""
    if not math.isfinite(sigma_nu) or sigma_nu <= 0.0:
        raise InputDomainError(f"sigma_nu must be finite and > 0, got {sigma_nu}")


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
    over broadcast arrays: the updated mean and variance.

    Where both sides are certain (var = r = 0) only exact agreement is
    consistent: the state is kept where z equals the mean, and elsewhere the
    0/0 gain leaves the mean and variance NaN.  `may_contradict=False` skips
    the first case for measurements that are all uncertain.  The caller
    passes `var` as a numpy value, so that 0/0 is a NaN, and silences its
    warning.
    """
    gain = var / (var + r)
    if may_contradict:
        gain = np.where((r == 0.0) & (var == 0.0) & (z == mean), 0.0, gain)
    return mean + gain * (z - mean), (1.0 - gain) * var


def kf_predict(state: KalmanState, u: float, dt: float, sigma_nu: float) -> KalmanState:
    """Propagate by dt seconds with offset rate u and process noise sigma_nu;
    sigma_nu is checked first, then dt."""
    _check_sigma_nu(sigma_nu)
    if dt <= 0.0 or not math.isfinite(dt):
        raise InputDomainError(f"dt must be positive, got {dt}")
    mean, var = _kf_predict_arrays(
        state.mean, state.variance, *_kf_motion_arrays(dt, u, sigma_nu)
    )
    return KalmanState(mean, var)


def kf_update(state: KalmanState, z: GaussianScalar) -> KalmanState:
    """Fuse a measurement."""
    with np.errstate(invalid="ignore"):
        mean, var = _kf_update_arrays(state.mean, np.float64(state.variance), z.mean, z.variance)
    # The only NaN two finite, certain Gaussians update to.
    if math.isnan(mean) and state.variance == z.variance == 0.0:
        raise InputDomainError(
            f"certain state {state.mean} contradicts certain measurement {z.mean}"
        )
    return KalmanState(float(mean), float(var))


def discretize_posterior(state: KalmanState, bounds: BoundarySet) -> PathPosterior:
    """Map the filtered Gaussian onto the five-path occupancy vector."""
    return lane_occupancy(GaussianScalar(state.mean, math.sqrt(state.variance)), bounds)
