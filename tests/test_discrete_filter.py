"""Tests for the discrete path-index transition model and Bayes filter."""

import logging
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scenario_builder import one_object

from laneassign import (
    DEFAULT_BOUNDS,
    EPSILON_MAX,
    GaussianScalar,
    InputDomainError,
    PathPosterior,
    PipelineConfig,
    TransitionMatrix,
    build_transition_matrix,
    lane_occupancy,
    run_pipeline,
)
from laneassign.discrete_filter import (
    _clamp,
    _transition_entries,
    predict,
    update,
)


def posterior(*probs):
    return PathPosterior(np.asarray(probs, dtype=float))


def random_params(rng):
    eps = rng.uniform(0.0, EPSILON_MAX)
    cap = min(eps, 1.0 - 3.0 * eps)
    eta = rng.uniform(-cap, cap)
    return eps, eta


# ---------------------------------------------------------------------------
# transition matrix construction
# ---------------------------------------------------------------------------


def test_matrix_symmetric_drift():
    m = build_transition_matrix(epsilon=0.1).entries
    # No bias: stay 0.8 in the interior, neighbours get 0.1 each.
    assert m[2, 2] == pytest.approx(0.8)
    assert m[1, 2] == pytest.approx(0.1)
    assert m[3, 2] == pytest.approx(0.1)
    # End states only lose mass to their single neighbour.
    assert m[0, 0] == pytest.approx(0.9)
    assert m[1, 0] == pytest.approx(0.1)
    assert m[4, 4] == pytest.approx(0.9)


def test_matrix_documented_bias_column():
    # epsilon=0.1, eta=0.05: the column for path 1 reads top-to-bottom
    # (0.075, 0.75, 0.175, 0, 0) -- the drift tilts mass toward higher
    # indices at the expense of the move down.
    m = build_transition_matrix(epsilon=0.1, eta=0.05).entries
    np.testing.assert_allclose(m[:, 1], [0.075, 0.75, 0.175, 0.0, 0.0], atol=1e-15)
    assert m[:, 1].sum() == pytest.approx(1.0, abs=1e-15)


def test_matrix_is_column_stochastic_and_banded():
    rng = np.random.default_rng(17)
    band = np.abs(np.subtract.outer(np.arange(5), np.arange(5))) > 1
    for _ in range(300):
        m = build_transition_matrix(*random_params(rng)).entries
        np.testing.assert_allclose(m.sum(axis=0), np.ones(5), atol=1e-12)
        assert np.all(m >= 0.0)
        assert np.all(m <= 1.0)
        assert np.all(m[band] == 0.0)


def test_matrix_corner_columns_are_asymmetric():
    # The last column spills only downward and keeps the eta term whole.
    eps, eta = 0.1, 0.05
    m = build_transition_matrix(eps, eta).entries
    assert m[3, 4] == pytest.approx(eps - eta)
    assert m[4, 4] == pytest.approx(1.0 - eps + eta)
    # Interior down-moves carry eps + |eta|/2 - eta instead.
    assert m[2, 3] == pytest.approx(eps + abs(eta) / 2.0 - eta)


def test_matrix_eta_shifts_mass_leftward():
    base = build_transition_matrix(0.1, 0.0).entries
    biased = build_transition_matrix(0.1, 0.08).entries
    for col in range(4):
        assert biased[col + 1, col] > base[col + 1, col]  # more up-moves
    for col in range(1, 5):
        assert biased[col - 1, col] < base[col - 1, col]  # fewer down-moves


def entries(epsilon, eta=0.0):
    return build_transition_matrix(epsilon, eta).entries


def test_clamp_params():
    # Out-of-domain parameters build the matrix of the nearest valid pair:
    # epsilon in [0, 0.3], |eta| <= min(epsilon, 1 - 3 epsilon).
    np.testing.assert_array_equal(entries(0.5), entries(EPSILON_MAX))
    np.testing.assert_array_equal(entries(0.1, 0.5), entries(0.1, 0.1))
    np.testing.assert_array_equal(entries(0.28, -0.3), entries(0.28, -(1.0 - 3.0 * 0.28)))
    assert entries(0.28, -0.3)[3, 4] == pytest.approx(0.28 + (1.0 - 3.0 * 0.28))
    # A pair inside the domain is used as given.
    assert entries(0.1, -0.05)[3, 4] == pytest.approx(0.15)
    assert entries(0.1, -0.05)[0, 0] == pytest.approx(0.95)


def test_matrix_flags_clamp():
    # The built entries show a clamp: 0.4 builds the EPSILON_MAX matrix,
    # 0.2 its own.
    np.testing.assert_array_equal(entries(0.4), entries(EPSILON_MAX))
    np.testing.assert_array_equal(entries(0.2), _transition_entries(0.2, 0.0))
    assert not np.array_equal(entries(0.2), entries(EPSILON_MAX))


def test_params_validation():
    for epsilon, eta in ((math.nan, 0.0), (0.1, math.inf), (-math.inf, math.nan)):
        message = f"transition parameters must be finite, got epsilon={epsilon}, eta={eta}"
        with pytest.raises(InputDomainError, match=f"^{re.escape(message)}$"):
            build_transition_matrix(epsilon, eta)
    # Out-of-range but finite values are a clamping matter, not an error.
    np.testing.assert_array_equal(entries(-0.01), entries(0.0))
    np.testing.assert_array_equal(entries(0.0), np.eye(5))


def test_transition_matrix_validation():
    good = build_transition_matrix(0.1, 0.0).entries
    bad = good.copy()
    bad[0, 0] += 0.1
    with pytest.raises(InputDomainError):
        TransitionMatrix(bad)
    off_band = good.copy()
    off_band[0, 0] -= 0.05
    off_band[2, 0] += 0.05
    with pytest.raises(InputDomainError):
        TransitionMatrix(off_band)
    # NaN on the band is neither inside [0, 1] nor caught by its NaN
    # column sum.
    nan_on_band = np.eye(5)
    nan_on_band[2, 2] = math.nan
    with pytest.raises(InputDomainError, match=r"entries must lie in \[0, 1\]"):
        TransitionMatrix(nan_on_band)


@pytest.mark.parametrize("shape", [(4, 4), (5,), (5, 5, 1)])
def test_transition_matrix_must_be_5x5(shape):
    message = re.escape(f"matrix must be 5x5, got {shape}")
    with pytest.raises(InputDomainError, match=f"^{message}$"):
        TransitionMatrix(np.full(shape, 0.2))


def _violations_by_entry(m):
    """The three checks of one 5x5 matrix, entry by entry."""
    values = m.tolist()
    outside = any(not -1e-12 <= v <= 1.0 + 1e-12 for row in values for v in row)
    sums = values[0]
    for row in values[1:]:
        sums = [total + v for total, v in zip(sums, row)]
    unnormalized = any(abs(total - 1.0) > 1e-12 for total in sums)
    off_band = any(
        values[i][j] != 0.0 for i in range(5) for j in range(5) if abs(i - j) > 1
    )
    return outside, unnormalized, off_band


MESSAGES = (
    "matrix entries must lie in [0, 1]",
    "matrix columns must each sum to 1",
    "matrix must be tridiagonal in the path index",
)


def test_matrix_violations_match_an_entry_by_entry_check():
    rng = np.random.default_rng(11)
    matrices = np.stack(
        [build_transition_matrix(*random_params(rng)).entries for _ in range(400)]
    )
    # Nudge two entries of most matrices across or short of a tolerance;
    # a NaN must not hide a fault elsewhere in the matrix.
    for nudges in (
        [0.0, 5e-13, 2e-12, -2e-12, 1e-300, 0.5, -0.5],
        [0.0, 1e-9, math.nan],
    ):
        rows, columns = rng.integers(0, 5, (2, len(matrices)))
        matrices[np.arange(len(matrices)), rows, columns] += rng.choice(
            nudges, len(matrices)
        )
    seen = set()
    for m in matrices:
        # The checks run in order, so the first violation names the error.
        expected = next(
            (message for message, v in zip(MESSAGES, _violations_by_entry(m)) if v), None
        )
        seen.add(expected)
        if expected is None:
            TransitionMatrix(m)
        else:
            with pytest.raises(InputDomainError, match=f"^{re.escape(expected)}$"):
                TransitionMatrix(m)
    assert seen == {None, *MESSAGES}


# Finite floats, with the extremes and the values whose sums round.
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
    st.sampled_from([1e308, -1e308, 5e-324, -5e-324, -0.0, 0.3, 1.0 / 3.0, -1.0 / 3.0]),
)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(epsilon=FINITE, eta=FINITE)
def test_clamped_parameters_build_a_valid_matrix(epsilon, eta):
    # The engine builds its matrices this way and does not check them.
    TransitionMatrix(_transition_entries(*_clamp(epsilon, eta)))


# ---------------------------------------------------------------------------
# predict / update
# ---------------------------------------------------------------------------


def test_predict_identity_when_epsilon_zero():
    prior = posterior(0.1, 0.2, 0.4, 0.2, 0.1)
    m = build_transition_matrix(0.0, 0.0)
    np.testing.assert_array_equal(predict(prior, m).probs, prior.probs)


def test_predict_reads_off_matrix_column():
    # A point-mass prior turns prediction into a column lookup.
    m = build_transition_matrix(0.1, 0.0)
    out = predict(posterior(0.0, 0.0, 1.0, 0.0, 0.0), m)
    np.testing.assert_allclose(out.probs, [0.0, 0.1, 0.8, 0.1, 0.0], atol=1e-15)


def test_predict_matches_matrix_vector_product():
    rng = np.random.default_rng(31)
    for _ in range(100):
        prior = PathPosterior(rng.dirichlet(np.ones(5)))
        m = build_transition_matrix(*random_params(rng))
        np.testing.assert_allclose(
            predict(prior, m).probs, m.entries @ prior.probs, atol=1e-15
        )


def test_predict_converges_to_stationary_distribution():
    # Iterated prediction must converge to the dominant eigenvector of the
    # transition matrix, computed independently with numpy's eigensolver.
    m = build_transition_matrix(0.12, 0.06)
    values, vectors = np.linalg.eig(m.entries)
    idx = int(np.argmax(values.real))
    stationary = np.abs(vectors[:, idx].real)
    stationary /= stationary.sum()
    p = PathPosterior.uniform()
    for _ in range(2000):
        p = predict(p, m)
    np.testing.assert_allclose(p.probs, stationary, atol=1e-10)


def test_update_uniform_measurement_is_identity():
    pred = posterior(0.1, 0.2, 0.4, 0.2, 0.1)
    out = update(pred, PathPosterior.uniform())
    np.testing.assert_allclose(out.probs, pred.probs, atol=1e-15)


def test_update_hand_computed_product():
    pred = posterior(0.0, 0.5, 0.5, 0.0, 0.0)
    meas = posterior(0.25, 0.25, 0.5, 0.0, 0.0)
    out = update(pred, meas)
    # Products (0, 1/8, 1/4, 0, 0) normalize to (0, 1/3, 2/3, 0, 0).
    np.testing.assert_allclose(out.probs, [0.0, 1.0 / 3.0, 2.0 / 3.0, 0.0, 0.0])


def test_update_zero_product_resets_to_measurement(caplog):
    pred = posterior(1.0, 0.0, 0.0, 0.0, 0.0)
    meas = posterior(0.0, 0.0, 0.0, 0.2, 0.8)
    with caplog.at_level(logging.WARNING, logger="laneassign.discrete_filter"):
        out = update(pred, meas)
    np.testing.assert_allclose(out.probs, meas.probs)
    assert any("reset" in rec.message for rec in caplog.records)


def test_filter_reversal_symmetry():
    # With no bias the model is symmetric under index reversal, so feeding
    # mirrored measurements must produce exactly mirrored posteriors.
    rng = np.random.default_rng(41)
    m = build_transition_matrix(0.1, 0.0)
    p = PathPosterior(rng.dirichlet(np.ones(5)))
    q = PathPosterior(p.probs[::-1].copy())
    for _ in range(20):
        meas = rng.dirichlet(np.ones(5))
        p = update(predict(p, m), PathPosterior(meas))
        q = update(predict(q, m), PathPosterior(meas[::-1].copy()))
        np.testing.assert_allclose(p.probs, q.probs[::-1], atol=1e-14)


def test_recursion_matches_batch_forward_algorithm():
    # Module-scale version of the acceptance check: the recursive filter
    # must match an unnormalized forward pass over the whole sequence.
    rng = np.random.default_rng(43)
    for _ in range(50):
        m = build_transition_matrix(*random_params(rng)).entries
        likes = rng.uniform(0.01, 1.01, size=(30, 5))
        likes /= likes.sum(axis=1, keepdims=True)

        p = PathPosterior.uniform()
        alpha = np.full(5, 0.2)
        for like in likes:
            p = update(predict(p, TransitionMatrix(m)), PathPosterior(like))
            alpha = like * (m @ alpha)
            np.testing.assert_allclose(p.probs, alpha / alpha.sum(), atol=1e-13)


# ---------------------------------------------------------------------------
# the recursion, step by step and through a run
# ---------------------------------------------------------------------------


def test_filter_first_step_equals_measurement_likelihood():
    # A track starts from the uniform prior, which is invariant under
    # prediction, so its first posterior is exactly the normalized
    # measurement likelihood.
    scenario = one_object([(0.0, 1.2, 0.16, None)])
    got = run_pipeline(scenario, "discrete", PipelineConfig(epsilon=0.1)).posteriors[0]
    want = lane_occupancy(GaussianScalar(1.2, math.sqrt(0.16)), DEFAULT_BOUNDS)
    np.testing.assert_allclose(got, want.probs, atol=1e-15)


def test_filter_converges_on_constant_measurement():
    matrix = build_transition_matrix(0.05)
    measured = lane_occupancy(GaussianScalar(3.5, 0.5), DEFAULT_BOUNDS)
    p = PathPosterior.uniform()
    for _ in range(30):
        p = update(predict(p, matrix), measured)
    assert p.probs.argmax() == 3
    assert p[3] > 0.9


def test_filter_lateral_velocity_sets_bias():
    # A run's per-step eta is eta_gain * v_lat; gain 0.5 and v_lat 0.1 must
    # match the functional form with eta 0.05, which moves even a uniform
    # prior.
    scenario = one_object([(0.0, 0.5, 0.36, 0.1)])
    config = PipelineConfig(epsilon=0.1, eta_gain=0.5)
    got = run_pipeline(scenario, "discrete", config).posteriors[0]
    want = update(
        predict(PathPosterior.uniform(), build_transition_matrix(0.1, 0.05)),
        lane_occupancy(GaussianScalar(0.5, math.sqrt(0.36)), DEFAULT_BOUNDS),
    )
    np.testing.assert_allclose(got, want.probs, atol=1e-15)


def test_filter_clamps_out_of_range_epsilon():
    # A too-aggressive epsilon is clamped at every step, matching the
    # functional form with epsilon at the cap.  The second step shows it:
    # a uniform prior is invariant under any leak without drift.
    scenario = one_object([(0.0, 0.5, 0.36, None), (0.05, 2.0, 0.36, None)])
    got = run_pipeline(scenario, "discrete", PipelineConfig(epsilon=0.9)).posteriors
    matrix = build_transition_matrix(EPSILON_MAX, 0.0)
    p = PathPosterior.uniform()
    for y, row in zip((0.5, 2.0), got):
        measured = lane_occupancy(GaussianScalar(y, math.sqrt(0.36)), DEFAULT_BOUNDS)
        p = update(predict(p, matrix), measured)
        np.testing.assert_allclose(row, p.probs, atol=1e-15)
