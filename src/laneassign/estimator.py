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


def _assign_arrays(probs: np.ndarray, p_min: float):
    """Vectorized `assign` over the last axis, without the p_min check:
    index, probability and accepted.  The index is -1 on a row that is not
    a distribution in `PathPosterior`'s terms: an entry below 0 or NaN, or
    a sum more than 1e-9 from 1."""
    rows = probs.reshape(-1, probs.shape[-1])
    # One contiguous array per index, since numpy works slowly along a short
    # last axis.  The running sum P(X <= l) is non-decreasing on a valid row,
    # so the median, the first l with P(X <= l) >= 0.5 (and then P(X >= l)
    # >= 0.5), counts the l below 0.5; the last sum has the bits of np.sum.
    total = rows[:, 0].copy()
    low = total.copy()
    index = (total < 0.5).astype(np.intp)
    for l in range(1, rows.shape[1]):
        np.add(total, rows[:, l], out=total)
        np.minimum(low, rows[:, l], out=low)  # NaN propagates
        index += total < 0.5
    index[~((low >= 0.0) & (np.abs(total - 1.0) <= 1e-9))] = -1
    probability = np.take_along_axis(rows, index[:, None], axis=1)[:, 0]
    shape = probs.shape[:-1]
    return index.reshape(shape), probability.reshape(shape), (probability >= p_min).reshape(shape)


def median_index(posterior: PathPosterior) -> int:
    """Median path index: the first l with P(X <= l) >= 0.5 and P(X >= l) >= 0.5.

    Scanning from the lowest index makes the exact-0.5 tie resolve to the
    lower of the two qualifying indices, deterministically.
    """
    return assign(posterior, 0.0).index


def assign(posterior: PathPosterior, p_min: float = DEFAULT_P_MIN) -> Assignment:
    """Assign the median index, accepted iff its posterior mass reaches p_min."""
    if not 0.0 <= p_min <= 1.0:
        raise InputDomainError(f"p_min must lie in [0, 1], got {p_min}")
    index, probability, accepted = _assign_arrays(posterior.probs, p_min)
    if index < 0:
        raise RuntimeError("no median index; posterior violates its invariants")
    return Assignment(int(index), float(probability), bool(accepted))
