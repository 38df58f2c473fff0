"""Tests for the median path estimator and acceptance gate."""

import numpy as np
import pytest

from laneassign import (
    DEFAULT_P_MIN,
    Assignment,
    InputDomainError,
    PathPosterior,
    assign,
    median_index,
)
from laneassign.estimator import _assign_arrays


def posterior(*probs):
    return PathPosterior(np.asarray(probs, dtype=float))


def test_median_uniform_is_host():
    assert median_index(PathPosterior.uniform()) == 2


def test_median_hand_examples():
    assert median_index(posterior(0.2, 0.4, 0.2, 0.1, 0.1)) == 1
    assert median_index(posterior(0.0, 0.0, 1.0, 0.0, 0.0)) == 2
    assert median_index(posterior(0.1, 0.1, 0.1, 0.1, 0.6)) == 4


def test_median_exact_tie_takes_lower_index():
    assert median_index(posterior(0.5, 0.5, 0.0, 0.0, 0.0)) == 0
    assert median_index(posterior(0.0, 0.5, 0.0, 0.5, 0.0)) == 1
    assert median_index(posterior(0.5, 0.0, 0.0, 0.0, 0.5)) == 0


def test_median_minimizes_absolute_loss():
    # The median is the argmin of expected absolute index error; check
    # against brute force on random posteriors.
    rng = np.random.default_rng(7)
    for _ in range(500):
        p = rng.dirichlet(np.ones(5) * rng.uniform(0.2, 3.0))
        med = median_index(PathPosterior(p))
        losses = [float(np.sum(p * np.abs(np.arange(5) - k))) for k in range(5)]
        assert losses[med] <= min(losses) + 1e-12


def test_median_reversal_equivariance():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        p = rng.dirichlet(np.ones(5))
        med = median_index(PathPosterior(p))
        rev = median_index(PathPosterior(p[::-1].copy()))
        assert rev == 4 - med


def test_assign_accepts_confident_posterior():
    a = assign(posterior(0.0, 0.05, 0.9, 0.05, 0.0))
    assert a == Assignment(index=2, probability=0.9, accepted=True)


def test_assign_rejects_below_threshold():
    a = assign(PathPosterior.uniform())
    assert not a.accepted
    # The candidate index and its mass are still reported for diagnostics.
    assert a.index == 2
    assert a.probability == pytest.approx(0.2)


def test_assign_threshold_edges():
    p = posterior(0.1, 0.3, 0.3, 0.2, 0.1)  # median index 2 with mass 0.3
    assert assign(p, p_min=0.3).accepted  # >= is accepting
    assert not assign(p, p_min=0.300001).accepted
    assert assign(p, p_min=0.0).accepted
    delta = posterior(0.0, 0.0, 0.0, 1.0, 0.0)
    assert assign(delta, p_min=1.0).accepted


def test_assign_gates_on_median_mass_not_max():
    # Median lands on index 2 with little mass even though index 0 is big.
    p = posterior(0.45, 0.0, 0.1, 0.0, 0.45)
    a = assign(p, p_min=0.3)
    assert a.index == 2
    assert not a.accepted


def test_assign_validates_threshold():
    with pytest.raises(InputDomainError):
        assign(PathPosterior.uniform(), p_min=-0.1)
    with pytest.raises(InputDomainError):
        assign(PathPosterior.uniform(), p_min=1.5)


def test_default_threshold_value():
    assert DEFAULT_P_MIN == 0.3


def _reference_arrays(probs, p_min):
    """The gated median as the engine first formed it: np.cumsum, the
    posterior check as two reductions, take_along_axis and the gate."""
    cumulative = np.cumsum(probs, axis=-1)
    below = np.concatenate([np.zeros(probs.shape[:-1] + (1,)), cumulative[..., :-1]], axis=-1)
    qualifies = (cumulative >= 0.5) & (1.0 - below >= 0.5)
    index = np.where(qualifies.any(axis=-1), qualifies.argmax(axis=-1), -1)
    valid = (probs >= 0.0).all(axis=-1) & (np.abs(probs.sum(axis=-1) - 1.0) <= 1e-9)
    probability = np.take_along_axis(probs, index[..., None], axis=-1)[..., 0]
    return valid, index, probability, probability >= p_min


def _edge_rows():
    """Rows on both sides of every check, and exact ties."""
    rows = [
        [0.5, 0.5, 0.0, 0.0, 0.0],
        [0.0, 0.5, 0.0, 0.5, 0.0],
        [0.5, 0.0, 0.0, 0.0, 0.5],
        [0.25, 0.25, 0.25, 0.25, 0.0],
        [-0.0, 0.3, 0.2, 0.5, -0.0],
        [0.2, 0.2, -1e-300, 0.3, 0.3],
        [0.2, 0.2, 0.2, 0.4, -5e-324],
        [np.nan, 0.2, 0.2, 0.3, 0.3],
        [0.2, 0.2, 0.2, 0.4, np.nan],
        [0.2, np.inf, 0.2, 0.3, 0.3],
        [0.2, -np.inf, 0.2, 0.3, 0.3],
        [0.2, 0.2, 0.2, 0.2, 0.21],
        [0.2, 0.2, 0.2, 0.2, 0.19],
        [-0.5, 0.5, 0.5, 0.5, 0.0],
    ]
    # The last entry a few ulps either side of the sum 1 +- 1e-9.
    for target in (1.0 - 1e-9, 1.0 + 1e-9):
        last = target - (0.1 + 0.2 + 0.3 + 0.15)
        for step in range(-4, 5):
            rows.append([0.1, 0.2, 0.3, 0.15, last + step * np.spacing(last)])
    return np.array(rows)


def test_assign_arrays_checks_and_gates_like_the_reference():
    rng = np.random.default_rng(3)
    edge = _edge_rows()
    many = rng.dirichlet(np.ones(5) * 0.5, size=(40, 6))
    many[::7, :, 3] += 1e-9 * rng.choice([-1.0, 1.0], size=(6,))
    many.reshape(-1, 5)[rng.choice(240, len(edge), replace=False)] = edge
    cases = [*edge, edge, many, rng.dirichlet(np.ones(5), size=300), np.zeros((0, 5))]
    checked = {True: 0, False: 0}
    for probs in cases:
        for p_min in (0.0, 0.25, 0.3, 0.5, 1.0):
            valid, index, probability, accepted = _reference_arrays(probs, p_min)
            got_index, got_probability, got_accepted = _assign_arrays(probs, p_min)
            assert got_index.shape == got_probability.shape == got_accepted.shape == valid.shape
            np.testing.assert_array_equal(got_index < 0, ~valid)
            np.testing.assert_array_equal(got_index[valid], index[valid])
            np.testing.assert_array_equal(
                got_probability[valid].view(np.int64), probability[valid].view(np.int64)
            )
            np.testing.assert_array_equal(got_accepted[valid], accepted[valid])
            checked[True] += int(valid.sum())
            checked[False] += int((~valid).sum())
    # Every check is exercised on both sides.
    assert checked[True] and checked[False]
    near = _reference_arrays(edge[-18:], 0.3)[0]
    assert near.any() and not near.all()


def test_median_index_and_assign_raise_on_a_broken_posterior():
    broken = PathPosterior.uniform()
    object.__setattr__(broken, "probs", np.full(5, np.nan))
    with pytest.raises(RuntimeError, match="violates its invariants"):
        median_index(broken)
    with pytest.raises(RuntimeError, match="violates its invariants"):
        assign(broken)
