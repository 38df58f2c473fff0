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
