"""Discrete Bayes filter over the five path indices.

Prediction applies a column-stochastic transition matrix that is tridiagonal
in the path index: mass leaks to adjacent paths at rate epsilon, with an
asymmetry eta (positive = drift toward higher indices, i.e. leftward) driven
by the object's lateral velocity.  The update is the pointwise Bayes product
with the occupancy vector from the inverse measurement model.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .geometry import InputDomainError
from .likelihood import N_PATHS, PathPosterior

logger = logging.getLogger(__name__)

EPSILON_MAX = 0.3


@dataclass(frozen=True)
class TransitionParams:
    """Leak rate epsilon and drift asymmetry eta of the transition matrix."""

    epsilon: float
    eta: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.epsilon) or not math.isfinite(self.eta):
            raise InputDomainError(
                f"transition parameters must be finite, got "
                f"epsilon={self.epsilon}, eta={self.eta}"
            )


def _clamp(epsilon, eta):
    """Clamp broadcast (epsilon, eta) arrays into the valid domain."""
    eps = np.minimum(np.maximum(epsilon, 0.0), EPSILON_MAX)
    cap = np.minimum(eps, 1.0 - 3.0 * eps)
    return eps, np.minimum(np.maximum(eta, -cap), cap)


def clamp_params(params: TransitionParams) -> tuple[TransitionParams, bool]:
    """Clamp (epsilon, eta) into the domain where all matrix entries are
    valid probabilities: epsilon in [0, 0.3], |eta| <= min(epsilon, 1 - 3 epsilon).

    Returns the clamped parameters and whether anything changed.
    """
    eps, eta = _clamp(params.epsilon, params.eta)
    clamped = TransitionParams(float(eps), float(eta))
    return clamped, clamped != params


# Row-major positions of a 5x5 matrix that lie off the band.
_OFF_BAND = (
    np.abs(np.subtract.outer(np.arange(N_PATHS), np.arange(N_PATHS))).ravel() > 1
)


def _matrix_violations(entries: np.ndarray) -> tuple[np.ndarray, ...]:
    """Masks over the leading axes of (..., 5, 5) entries: an entry outside
    [0, 1] (NaN included), a column not summing to 1, a nonzero entry off
    the band."""
    flat = entries.reshape(entries.shape[:-2] + (N_PATHS * N_PATHS,))
    inside = (flat >= -1e-12) & (flat <= 1.0 + 1e-12)
    outside = np.logical_or.reduce(~inside, axis=-1)
    # Row by row, the order np.add.reduce(entries, axis=-2) adds in, but
    # faster on a batch.
    column_sum = entries[..., 0, :]
    for row in range(1, N_PATHS):
        column_sum = column_sum + entries[..., row, :]
    # fmax skips NaN, so the largest error passes the test exactly where
    # one of the columns does.
    unnormalized = np.fmax.reduce(np.abs(column_sum - 1.0), axis=-1) > 1e-12
    off_band = (flat != 0.0) @ _OFF_BAND  # a boolean product: any of them
    return outside, unnormalized, off_band


@dataclass(frozen=True)
class TransitionMatrix:
    """Validated column-stochastic tridiagonal transition matrix."""

    entries: np.ndarray
    clamped: bool = False

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=float)
        if entries.shape != (N_PATHS, N_PATHS):
            raise InputDomainError(f"matrix must be 5x5, got {entries.shape}")
        outside, unnormalized, off_band = _matrix_violations(entries)
        if outside:
            raise InputDomainError("matrix entries must lie in [0, 1]")
        if unnormalized:
            raise InputDomainError("matrix columns must each sum to 1")
        if off_band:
            raise InputDomainError("matrix must be tridiagonal in the path index")
        object.__setattr__(self, "entries", entries)


def _transition_entries(epsilon, eta) -> np.ndarray:
    """Entries of the transition matrix for clamped (epsilon, eta), floats or
    arrays that broadcast together, shape (..., 5, 5)."""
    half = 0.5 * abs(eta)
    up = epsilon + half + eta  # toward higher index
    down = epsilon + half - eta  # toward lower index
    stay = 1.0 - 2.0 * epsilon - abs(eta)
    # Not np.shape: it converts a float to an array first, about 2 us.
    entries = np.zeros(getattr(stay, "shape", ()) + (N_PATHS, N_PATHS))
    entries[..., 0, 0] = 1.0 - epsilon - eta
    entries[..., 1, 0] = epsilon + eta
    entries[..., 3, 4] = epsilon - eta
    entries[..., 4, 4] = 1.0 - epsilon + eta
    for j in (1, 2, 3):
        entries[..., j - 1, j] = down
        entries[..., j, j] = stay
        entries[..., j + 1, j] = up
    return entries


def build_transition_matrix(params: TransitionParams) -> TransitionMatrix:
    """Build the transition matrix, clamping parameters into the valid domain.

    Column j holds the outgoing probabilities of path j.  Positive eta shifts
    leak mass toward higher indices; the interior columns lose 2*epsilon+|eta|
    to their neighbors.  Entry [3, 4] is epsilon - eta, the one corner where
    the drift term enters with a bare minus sign.
    """
    valid, clamped = clamp_params(params)
    return TransitionMatrix(
        _transition_entries(valid.epsilon, valid.eta), clamped=clamped
    )


def predict(prior: PathPosterior, matrix: TransitionMatrix) -> PathPosterior:
    return PathPosterior(matrix.entries @ prior.probs)


def _bayes_update_arrays(predicted, measured, may_reset=True):
    """Bayes update of predicted column vectors (..., G, 5, 1) with the
    measurement column vectors that broadcast against them.

    Where prior and measurement have disjoint support the product vanishes;
    such a posterior restarts from the measurement rather than coming out
    undefined, with one warning per row of G values.  `may_reset=False`
    skips that check for measurements that cannot cancel a prediction.  The
    caller silences the 0/0 of such a posterior.
    """
    product = predicted * measured
    total = product.sum(axis=-2, keepdims=True)
    posterior = product / total
    if may_reset:
        reset = total[..., 0, 0] <= 0.0
        if reset.any():
            for _ in range(np.count_nonzero(reset.any(axis=-1))):
                logger.warning(
                    "path posterior and measurement have zero overlap; "
                    "resetting filter to the measurement"
                )
            restart = measured / measured.sum(axis=-2, keepdims=True)
            posterior = np.where(reset[..., None, None], restart, posterior)
    return posterior


def update(predicted: PathPosterior, measurement: PathPosterior) -> PathPosterior:
    """Bayes update of the predicted posterior with an occupancy vector; with
    no overlap between the two, the posterior restarts from the measurement."""
    with np.errstate(invalid="ignore"):
        posterior = _bayes_update_arrays(
            predicted.probs.reshape(1, N_PATHS, 1),
            measurement.probs.reshape(1, N_PATHS, 1),
        )
    return PathPosterior(posterior.reshape(N_PATHS))
