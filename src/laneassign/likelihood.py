"""Inverse measurement model: lateral offset belief -> path occupancy vector.

Five path regions are separated by four lateral boundaries.  Indices follow
the offset sign convention (positive = left), so index 0 is rightmost, 2 is
the host path and 4 is leftmost.  Both the object offset and the boundary
positions carry Gaussian uncertainty; the occupancy probability of a region is
the probability that the offset falls between its two boundaries, with each
boundary blurred by the combined standard deviation.  `DEFAULT_BOUNDS` is
the one layout used wherever a frame carries no boundaries of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import GaussianScalar, InputDomainError, _ndtr

N_PATHS = 5
N_BOUNDARIES = 4
HOST_PATH_INDEX = 2
PATH_LABELS = (
    "right of right path",
    "right path",
    "host path",
    "left path",
    "left of left path",
)


@dataclass(frozen=True)
class BoundarySet:
    """Four lateral boundaries with Gaussian uncertainty, strictly increasing.

    boundaries[0] and boundaries[3] are the outer edges, boundaries[1] and
    boundaries[2] enclose the host path.
    """

    boundaries: tuple[GaussianScalar, GaussianScalar, GaussianScalar, GaussianScalar]

    def __post_init__(self) -> None:
        if len(self.boundaries) != N_BOUNDARIES:
            raise InputDomainError(
                f"expected {N_BOUNDARIES} boundaries, got {len(self.boundaries)}"
            )
        means = [b.mean for b in self.boundaries]
        if any(hi <= lo for lo, hi in zip(means, means[1:])):
            raise InputDomainError(
                f"boundary means must be strictly increasing, got {means}"
            )

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Boundary means and standard deviations, each of shape (4,)."""
        return (
            np.array([b.mean for b in self.boundaries]),
            np.array([b.std for b in self.boundaries]),
        )


@dataclass(frozen=True)
class PathPosterior:
    """Probability vector over the five path indices."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=float)
        if probs.shape != (N_PATHS,):
            raise InputDomainError(f"posterior must have shape (5,), got {probs.shape}")
        if not np.all(np.isfinite(probs)) or (probs < 0.0).any():
            raise InputDomainError("posterior entries must be finite and >= 0")
        if abs(float(probs.sum()) - 1.0) > 1e-9:
            raise InputDomainError(f"posterior must sum to 1, got {probs.sum()}")
        object.__setattr__(self, "probs", probs)

    @classmethod
    def uniform(cls) -> "PathPosterior":
        return cls(np.full(N_PATHS, 1.0 / N_PATHS))

    def __getitem__(self, index: int) -> float:
        return float(self.probs[index])


def _occupancy_arrays(mean, std, bound_means, bound_stds) -> np.ndarray:
    """Vectorized `lane_occupancy`.

    `mean` and `std` describe the objects, shape (...); the boundary arrays
    have shape (..., 4) and broadcast against them.  Returns the (..., 5)
    occupancy vectors.  Rows whose standardized argument is NaN come out
    NaN; the caller validates.
    """
    mean = np.asarray(mean, dtype=float)[..., None]
    std = np.asarray(std, dtype=float)[..., None]
    delta = bound_means - mean
    sigma = np.hypot(std, bound_stds)
    # Degenerate sigma = 0 uses the limit convention: 0/0 -> 0 (so the CDF
    # gives 0.5, splitting mass across the boundary), x/0 -> signed infinity.
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where((sigma == 0.0) & (delta == 0.0), 0.0, delta / sigma)
    raw = np.diff(_ndtr(t), axis=-1, prepend=0.0, append=1.0)
    raw = np.where(raw < 0.0, 0.0, raw)
    return raw / raw.sum(axis=-1, keepdims=True)


def lane_occupancy(obj: GaussianScalar, bounds: BoundarySet) -> PathPosterior:
    """Occupancy probabilities of the five path regions for one object.

    The probability of region l is Phi(t_{l+1}) - Phi(t_l) where t_l
    standardizes boundary l against the object, using the combined deviation
    sqrt(obj.std^2 + boundary.std^2), and the outermost virtual boundaries sit
    at -inf and +inf.  With heterogeneous boundary deviations a difference can
    come out slightly negative; such mass is clamped to zero and the vector
    renormalized.
    """
    probs = _occupancy_arrays(obj.mean, obj.std, *bounds.arrays())
    if np.isnan(probs).any():
        raise InputDomainError("standardized argument is NaN")
    return PathPosterior(probs)


# The boundaries of every frame that carries none: a centered host path
# 3.5 m wide with edges of deviation 0.3 m, and one more lane of the same
# width on each side, whose outer edges are 1.5 times less certain.
DEFAULT_BOUNDS = BoundarySet(
    (
        GaussianScalar(-5.25, 0.3 * 1.5),
        GaussianScalar(-1.75, 0.3),
        GaussianScalar(1.75, 0.3),
        GaussianScalar(5.25, 0.3 * 1.5),
    )
)
