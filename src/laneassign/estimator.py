"""Point assignment from a path posterior: median index with a probability gate.

The median is robust against posteriors with several similar peaks, where the
argmax flips between distant indices and the mean lands between them on an
index nobody believes in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import InputDomainError
from .likelihood import PathPosterior

DEFAULT_P_MIN = 0.3


@dataclass(frozen=True)
class Assignment:
    """Result of thresholded assignment: accepted implies probability >= the
    gate.  index and probability are populated even when rejected, as
    diagnostics; consumers must treat rejected results as no assignment."""

    index: int
    probability: float
    accepted: bool


def _median_indices(probs: np.ndarray) -> np.ndarray:
    """Vectorized `median_index` over the last axis; -1 where no index
    qualifies (a vector that violates the posterior invariants)."""
    cumulative = np.cumsum(probs, axis=-1)
    qualifies = cumulative >= 0.5
    qualifies[..., 1:] &= 1.0 - cumulative[..., :-1] >= 0.5
    return np.where(qualifies.any(axis=-1), qualifies.argmax(axis=-1), -1)


def median_index(posterior: PathPosterior) -> int:
    """Median path index: the first l with P(X <= l) >= 0.5 and P(X >= l) >= 0.5.

    Scanning from the lowest index makes the exact-0.5 tie resolve to the
    lower of the two qualifying indices, deterministically.
    """
    index = int(_median_indices(posterior.probs))
    if index < 0:
        raise RuntimeError("no median index; posterior violates its invariants")
    return index


def assign(posterior: PathPosterior, p_min: float = DEFAULT_P_MIN) -> Assignment:
    """Assign the median index, accepted iff its posterior mass reaches p_min."""
    if not 0.0 <= p_min <= 1.0:
        raise InputDomainError(f"p_min must lie in [0, 1], got {p_min}")
    index = median_index(posterior)
    probability = posterior[index]
    return Assignment(index, probability, probability >= p_min)
