"""Discrete Bayes filter over the five path indices.

Prediction applies a column-stochastic transition matrix that is tridiagonal
in the path index: mass leaks to adjacent paths at rate epsilon, with an
asymmetry eta (positive = drift toward higher indices, i.e. leftward) driven
by the object's lateral velocity.  The update is the pointwise Bayes product
with the occupancy vector from the inverse measurement model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import InputDomainError
from .likelihood import N_PATHS, PathPosterior

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
    """Clamp broadcast (epsilon, eta) arrays into the domain where all matrix
    entries are valid probabilities: epsilon in [0, 0.3],
    |eta| <= min(epsilon, 1 - 3 epsilon)."""
    eps = np.minimum(np.maximum(epsilon, 0.0), EPSILON_MAX)
    cap = np.minimum(eps, 1.0 - 3.0 * eps)
    return eps, np.minimum(np.maximum(eta, -cap), cap)


# The positions of a 5x5 matrix that lie off the band.
_OFF_BAND = np.abs(np.subtract.outer(np.arange(N_PATHS), np.arange(N_PATHS))) > 1


@dataclass(frozen=True)
class TransitionMatrix:
    """Validated column-stochastic tridiagonal transition matrix."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=float)
        if entries.shape != (N_PATHS, N_PATHS):
            raise InputDomainError(f"matrix must be 5x5, got {entries.shape}")
        # NaN fails the first check, so the column sums are finite after it.
        if not ((entries >= -1e-12) & (entries <= 1.0 + 1e-12)).all():
            raise InputDomainError("matrix entries must lie in [0, 1]")
        if (np.abs(entries.sum(axis=0) - 1.0) > 1e-12).any():
            raise InputDomainError("matrix columns must each sum to 1")
        if entries[_OFF_BAND].any():
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
    eps, eta = _clamp(params.epsilon, params.eta)
    return TransitionMatrix(_transition_entries(float(eps), float(eta)))


def predict(prior: PathPosterior, matrix: TransitionMatrix) -> PathPosterior:
    return PathPosterior(matrix.entries @ prior.probs)


def _bayes_update_arrays(predicted, measured):
    """Bayes update of predicted column vectors (..., G, 5, 1) with the
    measurement column vectors that broadcast against them.

    Where prior and measurement have disjoint support the product vanishes;
    such a posterior restarts from the measurement rather than coming out
    undefined, with one warning per row of G values.  The caller silences
    the 0/0 of such a posterior.
    """
    product = predicted * measured
    total = np.add.reduce(product, axis=-2, keepdims=True)
    posterior = np.divide(product, total, out=product)
    # The mask is built only where some total is not positive (or is NaN).
    if not total.min() > 0.0:
        reset = total[..., 0, 0] <= 0.0
        if reset.any():
            import logging  # Loaded only where a posterior resets.

            for _ in range(np.count_nonzero(reset.any(axis=-1))):
                logging.getLogger(__name__).warning(
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
