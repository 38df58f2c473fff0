"""Tests for the scalar Kalman filter on the lateral offset."""

import itertools
import math
import re

import numpy as np
import pytest
from scenario_builder import one_object

from laneassign import (
    DEFAULT_BOUNDS,
    GaussianScalar,
    InputDomainError,
    KalmanState,
    PipelineConfig,
    ProcessNoise,
    discretize_posterior,
    kf_init,
    kf_predict,
    kf_update,
    lane_occupancy,
    run_pipeline,
)


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def test_process_noise_must_be_positive():
    ProcessNoise(0.1)
    with pytest.raises(InputDomainError):
        ProcessNoise(0.0)
    with pytest.raises(InputDomainError):
        ProcessNoise(-0.5)
    with pytest.raises(InputDomainError):
        ProcessNoise(math.inf)


def test_state_validation():
    KalmanState(0.0, 0.0)  # zero variance is legal
    with pytest.raises(InputDomainError):
        KalmanState(0.0, -1e-9)
    with pytest.raises(InputDomainError, match="^state mean must be finite$"):
        KalmanState(math.nan, 1.0)


def test_init_copies_measurement():
    s = kf_init(GaussianScalar(1.5, 0.4))
    assert s.mean == 1.5
    assert s.variance == pytest.approx(0.16)


def test_predict_examples():
    s = kf_predict(KalmanState(0.0, 1.0), u=0.0, dt=0.1, noise=ProcessNoise(0.4))
    assert s.mean == 0.0
    assert s.variance == pytest.approx(1.0016, abs=1e-12)
    s = kf_predict(KalmanState(1.0, 0.5), u=2.0, dt=0.5, noise=ProcessNoise(0.1))
    assert s.mean == pytest.approx(2.0)
    assert s.variance == pytest.approx(0.5025, abs=1e-12)


def test_predict_rejects_bad_dt():
    s = KalmanState(0.0, 1.0)
    with pytest.raises(InputDomainError):
        kf_predict(s, 0.0, 0.0, ProcessNoise(0.1))
    with pytest.raises(InputDomainError):
        kf_predict(s, 0.0, -0.1, ProcessNoise(0.1))


def test_predict_never_decreases_variance():
    rng = np.random.default_rng(3)
    for _ in range(100):
        var = rng.uniform(0.0, 4.0)
        s = KalmanState(rng.normal(), var)
        out = kf_predict(s, rng.normal(), rng.uniform(0.01, 1.0), ProcessNoise(rng.uniform(0.01, 1.0)))
        assert out.variance > var


def test_update_equal_weight_fusion():
    s = kf_update(KalmanState(0.0, 1.0), GaussianScalar(1.0, 1.0))
    assert s.mean == pytest.approx(0.5)
    assert s.variance == pytest.approx(0.5)


def test_update_matches_product_of_gaussians():
    # Closed-form Bayes posterior for two Gaussians, computed independently.
    rng = np.random.default_rng(11)
    for _ in range(300):
        prior_mean = rng.normal(scale=3.0)
        prior_var = rng.uniform(1e-4, 5.0)
        z_mean = rng.normal(scale=3.0)
        z_var = rng.uniform(1e-4, 5.0)
        got = kf_update(KalmanState(prior_mean, prior_var), GaussianScalar(z_mean, math.sqrt(z_var)))
        want_var = 1.0 / (1.0 / prior_var + 1.0 / z_var)
        want_mean = want_var * (prior_mean / prior_var + z_mean / z_var)
        assert got.mean == pytest.approx(want_mean, rel=1e-12, abs=1e-12)
        assert got.variance == pytest.approx(want_var, rel=1e-12)


def test_update_ignores_useless_measurement():
    s = kf_update(KalmanState(1.0, 0.01), GaussianScalar(50.0, 1e9))
    assert s.mean == pytest.approx(1.0, abs=1e-6)
    assert s.variance == pytest.approx(0.01, rel=1e-6)


def test_update_trusts_exact_measurement():
    s = kf_update(KalmanState(1.0, 2.0), GaussianScalar(3.0, 0.0))
    assert s.mean == 3.0
    assert s.variance == 0.0


def test_update_certain_state_vs_certain_measurement():
    s = KalmanState(1.0, 0.0)
    assert kf_update(s, GaussianScalar(1.0, 0.0)) == s
    with pytest.raises(InputDomainError):
        kf_update(s, GaussianScalar(2.0, 0.0))


def test_update_never_increases_variance():
    rng = np.random.default_rng(13)
    for _ in range(100):
        var = rng.uniform(1e-6, 5.0)
        s = kf_update(KalmanState(0.0, var), GaussianScalar(rng.normal(), rng.uniform(0.0, 3.0)))
        assert s.variance <= var


# ---------------------------------------------------------------------------
# statistical behaviour
# ---------------------------------------------------------------------------


def test_static_case_matches_batch_least_squares():
    # Repeatedly measuring a constant with heterogeneous noise must give the
    # inverse-variance weighted mean, computed here in closed form.
    rng = np.random.default_rng(17)
    z_means = rng.normal(loc=2.0, scale=0.5, size=200)
    z_vars = rng.uniform(0.05, 2.0, size=200)
    state = kf_init(GaussianScalar(z_means[0], math.sqrt(z_vars[0])))
    for mean, var in zip(z_means[1:], z_vars[1:]):
        state = kf_update(state, GaussianScalar(mean, math.sqrt(var)))
    weights = 1.0 / z_vars
    want_mean = float(np.sum(weights * z_means) / np.sum(weights))
    want_var = float(1.0 / np.sum(weights))
    assert state.mean == pytest.approx(want_mean, abs=1e-9)
    assert state.variance == pytest.approx(want_var, rel=1e-9)


def test_innovations_are_white_on_matched_model():
    # Simulate the exact motion model and check the normalized innovations.
    rng = np.random.default_rng(19)
    dt, sigma_nu, sigma_z = 0.1, 0.3, 0.5
    noise = ProcessNoise(sigma_nu)
    truth = 0.0
    state = kf_init(GaussianScalar(truth + rng.normal(0.0, sigma_z), sigma_z))
    normalized = []
    for _ in range(2000):
        truth += rng.normal(0.0, dt * sigma_nu)
        z = truth + rng.normal(0.0, sigma_z)
        pred = kf_predict(state, 0.0, dt, noise)
        s = pred.variance + sigma_z**2
        normalized.append((z - pred.mean) / math.sqrt(s))
        state = kf_update(pred, GaussianScalar(z, sigma_z))
    var = float(np.var(normalized))
    assert 0.8 < var < 1.2


def test_filter_tracks_moving_object():
    rng = np.random.default_rng(23)
    noise = ProcessNoise(0.5)
    dt = 0.05
    state = None
    for k in range(200):
        truth = 3.5 * min(k * dt / 5.0, 1.0)  # drifts one lane left over 5 s
        z = GaussianScalar(truth + rng.normal(0.0, 0.3), 0.3)
        if state is None:
            state = kf_init(z)
        else:
            state = kf_update(kf_predict(state, 0.0, dt, noise), z)
    assert state.mean == pytest.approx(3.5, abs=0.3)


# ---------------------------------------------------------------------------
# discretization, and the recursion through a run
# ---------------------------------------------------------------------------


def test_discretize_matches_lane_occupancy():
    bounds = DEFAULT_BOUNDS
    state = KalmanState(1.2, 0.25)
    got = discretize_posterior(state, bounds)
    want = lane_occupancy(GaussianScalar(1.2, 0.5), bounds)
    np.testing.assert_array_equal(got.probs, want.probs)


def test_discretize_confident_center():
    bounds = DEFAULT_BOUNDS
    p = discretize_posterior(KalmanState(0.0, 0.01), bounds)
    assert p[2] > 0.99


def test_discretize_is_stateless():
    bounds = DEFAULT_BOUNDS
    state = KalmanState(0.7, 0.3)
    a = discretize_posterior(state, bounds)
    b = discretize_posterior(state, bounds)
    np.testing.assert_array_equal(a.probs, b.probs)
    assert state.mean == 0.7  # frozen dataclass, nothing mutated


def test_stateful_filter_first_step_is_init():
    # A track starts with kf_init, which copies the measurement, so its
    # first posterior is the measurement's occupancy.
    scenario = one_object([(1.0, 0.8, 0.16, None)])
    got = run_pipeline(scenario, "continuous", PipelineConfig(sigma_nu=0.1)).posteriors[0]
    want = lane_occupancy(GaussianScalar(0.8, math.sqrt(0.16)), DEFAULT_BOUNDS)
    np.testing.assert_allclose(got, want.probs, atol=1e-15)


def test_stateful_filter_requires_increasing_timestamps():
    # The contract of a Scenario, which both methods check.
    for method, t in itertools.product(("discrete", "continuous"), (1.0, 0.5)):
        scenario = one_object([(1.0, 0.0, 0.09, None), (t, 0.0, 0.09, None)])
        message = f"frame 1 (t={t}): timestamps must strictly increase ({t} after 1.0)"
        with pytest.raises(InputDomainError, match=f"^{re.escape(message)}$"):
            run_pipeline(scenario, method)


def test_stateful_filter_applies_lateral_velocity():
    # One second at +1 m/s shifts the prediction a meter before the update.
    scenario = one_object([(0.0, 0.0, 0.25, None), (1.0, 0.8, 0.25, 1.0)])
    got = run_pipeline(scenario, "continuous", PipelineConfig(sigma_nu=0.1)).posteriors[1]
    pred = kf_predict(kf_init(GaussianScalar(0.0, 0.5)), 1.0, 1.0, ProcessNoise(0.1))
    want = discretize_posterior(kf_update(pred, GaussianScalar(0.8, 0.5)), DEFAULT_BOUNDS)
    np.testing.assert_allclose(got, want.probs, atol=1e-15)
