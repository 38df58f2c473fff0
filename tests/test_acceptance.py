"""Acceptance suite: one test per shipped guarantee.

Each test is self-contained, prints its measured numbers next to the limits
(visible with `pytest -s` or on failure), and enforces the stated runtime
budget where one applies.  Run with `pytest -v tests/test_acceptance.py` to
get one pass/fail line per criterion.
"""

import csv
import math
import time

import numpy as np
import pytest

from laneassign import (
    DEFAULT_P_MIN,
    EPSILON_MAX,
    GaussianScalar,
    HostState,
    KalmanState,
    PathPosterior,
    ProcessNoise,
    TransitionParams,
    assign,
    build_transition_matrix,
    jacobian_lateral_offset,
    kf_init,
    kf_predict,
    kf_update,
    lane_occupancy,
    lateral_path_offset,
    mc_validate,
    median_index,
)
from laneassign.cli import main
from laneassign.discrete_filter import predict, update
from laneassign.likelihood import BoundarySet


def make_bounds(half, width, std):
    return BoundarySet(
        (
            GaussianScalar(-half - width, std),
            GaussianScalar(-half, std),
            GaussianScalar(half, std),
            GaussianScalar(half + width, std),
        )
    )


def test_criterion_1_transition_matrices_are_stochastic_and_banded():
    # 100x100 grid over the admissible (epsilon, eta) domain: every matrix
    # is column-stochastic within 1e-12, tridiagonal, entries in [0, 1].
    # Budget: 1 s.
    band = np.abs(np.subtract.outer(np.arange(5), np.arange(5))) > 1
    t0 = time.perf_counter()
    worst_sum = 0.0
    for eps in np.linspace(0.0, EPSILON_MAX, 100):
        cap = min(eps, 1.0 - 3.0 * eps)
        for eta in np.linspace(-cap, cap, 100):
            m = build_transition_matrix(TransitionParams(float(eps), float(eta))).entries
            worst_sum = max(worst_sum, float(np.abs(m.sum(axis=0) - 1.0).max()))
            assert m.min() >= 0.0
            assert m.max() <= 1.0
            assert not m[band].any()
    elapsed = time.perf_counter() - t0
    print(f"criterion 1: worst column-sum error {worst_sum:.3e} (limit 1e-12), "
          f"runtime {elapsed:.2f}s (limit 1s)")
    assert worst_sum <= 1e-12
    assert elapsed < 1.0


def test_criterion_2_recursion_matches_batch_forward_algorithm():
    # 1000 random length-50 sequences: the recursive filter must equal the
    # normalized batch forward pass within 1e-12.  Budget: 10 s.
    rng = np.random.default_rng(20240002)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        eps = rng.uniform(0.0, EPSILON_MAX)
        cap = min(eps, 1.0 - 3.0 * eps)
        eta = rng.uniform(-cap, cap)
        matrix = build_transition_matrix(TransitionParams(eps, eta))
        likes = rng.uniform(0.01, 1.01, size=(50, 5))
        likes /= likes.sum(axis=1, keepdims=True)

        posterior = PathPosterior.uniform()
        alpha = np.full(5, 0.2)
        for like in likes:
            posterior = update(predict(posterior, matrix), PathPosterior(like))
            alpha = like * (matrix.entries @ alpha)
            worst = max(worst, float(np.abs(posterior.probs - alpha / alpha.sum()).max()))
    elapsed = time.perf_counter() - t0
    print(f"criterion 2: worst posterior deviation {worst:.3e} (limit 1e-12), "
          f"runtime {elapsed:.2f}s (limit 10s)")
    assert worst <= 1e-12
    assert elapsed < 10.0


def test_criterion_3_occupancy_normalization_and_width_recovery():
    # 1e4 random occupancy vectors sum to 1 within 1e-12, and integrating
    # an inner path's occupancy over the object position recovers that
    # path's width within 1%.  Budget: 30 s.
    rng = np.random.default_rng(20240003)
    t0 = time.perf_counter()
    worst_sum = 0.0
    for _ in range(10_000):
        means = np.sort(rng.uniform(-8.0, 8.0, size=4))
        if np.min(np.diff(means)) <= 1e-6:
            continue
        stds = rng.uniform(0.0, 1.5, size=4)
        bounds = BoundarySet(tuple(GaussianScalar(m, s) for m, s in zip(means, stds)))
        obj = GaussianScalar(rng.uniform(-12.0, 12.0), rng.uniform(0.0, 3.0))
        p = lane_occupancy(obj, bounds)
        worst_sum = max(worst_sum, abs(float(p.probs.sum()) - 1.0))

    bounds = make_bounds(half=1.75, width=3.5, std=0.3)
    mus = np.arange(-60.0, 60.0, 0.02)
    masses = np.array([lane_occupancy(GaussianScalar(m, 0.7), bounds).probs for m in mus])
    widths = masses[:, 1:4].sum(axis=0) * 0.02
    worst_width = float(np.abs(widths - 3.5).max())
    elapsed = time.perf_counter() - t0
    print(f"criterion 3: worst sum error {worst_sum:.3e} (limit 1e-12); "
          f"recovered widths {np.round(widths, 4)} m vs 3.5 m, "
          f"worst error {worst_width / 3.5:.3%} (limit 1%); "
          f"runtime {elapsed:.1f}s (limit 30s)")
    assert worst_sum <= 1e-12
    assert worst_width <= 0.01 * 3.5
    assert elapsed < 30.0


def test_criterion_4_host_path_likelihood_shape_regimes():
    # At the center of a 3.5 m path, the host-path mass is nearly certain
    # for combined sigma 0.3 m and diluted below 0.65 for 2.0 m.
    bounds = make_bounds(half=1.75, width=3.5, std=0.0)
    sharp = lane_occupancy(GaussianScalar(0.0, 0.3), bounds)[2]
    blurred = lane_occupancy(GaussianScalar(0.0, 2.0), bounds)[2]
    print(f"criterion 4: center host-path mass {sharp:.6f} (> 0.99 at sigma 0.3), "
          f"{blurred:.6f} (< 0.65 at sigma 2.0)")
    assert sharp > 0.99
    assert blurred < 0.65


def test_criterion_5_first_order_propagation_matches_sampling():
    # Default validation grid (512 points spanning x 1..110 m, bearing up
    # to 21 deg, v 1..70 m/s, yaw rate -0.7..0.7 rad/s), 5000 samples per
    # point: at least 95% of points have Hellinger distance < 0.15.
    # Budget: 5 min.
    t0 = time.perf_counter()
    results = mc_validate(samples=5000, seed=0)
    elapsed = time.perf_counter() - t0
    assert len(results) >= 512
    ok = [r for r in results if r.status == "ok"]
    below = [r for r in ok if r.hellinger < 0.15]
    # A skipped (singular-geometry) point cannot demonstrate agreement, so
    # it counts against the quota; none are expected on the default grid.
    fraction = len(below) / len(results)
    print(f"criterion 5: {len(results)} points, {len(results) - len(ok)} skipped, "
          f"{fraction:.2%} below 0.15 (need >= 95%), "
          f"median {np.median([r.hellinger for r in ok]):.4f}, "
          f"max {max(r.hellinger for r in ok):.4f}; "
          f"runtime {elapsed:.1f}s (limit 300s)")
    assert fraction >= 0.95
    assert elapsed < 300.0


def test_criterion_6_jacobian_matches_central_differences():
    # 1000 random operating points: analytic gradient vs central finite
    # differences, relative error (vector norm) <= 1e-4.
    rng = np.random.default_rng(20240006)
    worst = 0.0
    checked = 0
    while checked < 1000:
        v = rng.uniform(1.0, 70.0)
        yaw = rng.uniform(1e-3, 0.7) * rng.choice([-1.0, 1.0])
        x = rng.uniform(1.0, 110.0)
        y = x * math.tan(rng.uniform(-0.36, 0.36))
        alpha = rng.uniform(-0.3, 0.3)
        r = v / yaw
        if math.hypot(x + math.sin(alpha) * r, y - math.cos(alpha) * r) < 0.5:
            continue  # too close to the center cusp for finite differences
        host = HostState(v=v, yaw_rate=yaw, alpha=alpha)
        jac = jacobian_lateral_offset(host, x, y)
        theta = np.array([v, yaw, x, y])
        ref = np.empty(4)
        for i in range(4):
            h = 1e-5 * max(abs(theta[i]), 1.0)
            hi, lo = theta.copy(), theta.copy()
            hi[i] += h
            lo[i] -= h
            fa = lateral_path_offset(HostState(hi[0], hi[1], alpha), hi[2], hi[3])
            fb = lateral_path_offset(HostState(lo[0], lo[1], alpha), lo[2], lo[3])
            ref[i] = (fa - fb) / (2.0 * h)
        err = float(np.linalg.norm(jac - ref) / max(np.linalg.norm(ref), 1e-12))
        worst = max(worst, err)
        checked += 1
    print(f"criterion 6: worst relative error {worst:.3e} (limit 1e-4) "
          f"over {checked} points")
    assert worst <= 1e-4


def test_criterion_7_kalman_least_squares_and_whitening():
    # Static case: the filter run over constant-position measurements with
    # heterogeneous noise must match batch weighted least squares within
    # 1e-9.  Dynamic case: on data generated by the filter's own motion
    # model, normalized innovations have variance in [0.8, 1.2] over 1e4
    # steps.
    rng = np.random.default_rng(20240007)
    z_means = rng.normal(loc=1.0, scale=0.7, size=500)
    z_vars = rng.uniform(0.02, 3.0, size=500)
    state = kf_init(GaussianScalar(z_means[0], math.sqrt(z_vars[0])))
    for mean, var in zip(z_means[1:], z_vars[1:]):
        state = kf_update(state, GaussianScalar(mean, math.sqrt(var)))
    weights = 1.0 / z_vars
    ls_mean = float(np.sum(weights * z_means) / np.sum(weights))
    ls_var = float(1.0 / np.sum(weights))
    mean_err = abs(state.mean - ls_mean)
    var_err = abs(state.variance - ls_var)

    dt, sigma_nu, sigma_z = 0.1, 0.25, 0.4
    noise = ProcessNoise(sigma_nu)
    truth = 0.0
    kstate = kf_init(GaussianScalar(truth + rng.normal(0.0, sigma_z), sigma_z))
    normalized = np.empty(10_000)
    for k in range(10_000):
        truth += rng.normal(0.0, dt * sigma_nu)
        z = truth + rng.normal(0.0, sigma_z)
        pred = kf_predict(kstate, 0.0, dt, noise)
        normalized[k] = (z - pred.mean) / math.sqrt(pred.variance + sigma_z**2)
        kstate = kf_update(pred, GaussianScalar(z, sigma_z))
    innovation_var = float(np.var(normalized))
    print(f"criterion 7: batch-LS deviation mean {mean_err:.2e}, "
          f"variance {var_err:.2e} (limit 1e-9); "
          f"innovation variance {innovation_var:.4f} (limits [0.8, 1.2])")
    assert mean_err <= 1e-9
    assert var_err <= 1e-9
    assert 0.8 <= innovation_var <= 1.2


def test_criterion_8_sweep_methodology_end_to_end(tmp_path):
    # The sweep subcommand over the bundled suite emits ROC CSVs for both
    # methods over the documented grids; rates are valid, the discrete
    # noisy_yaw sweep is monotone nonincreasing as epsilon shrinks, and a
    # fixed-seed rerun is bit-identical.  Budget: 2 min.
    t0 = time.perf_counter()
    discrete_csv = tmp_path / "discrete.csv"
    continuous_csv = tmp_path / "continuous.csv"
    noisy_csv = tmp_path / "noisy.csv"
    rerun_csv = tmp_path / "rerun.csv"
    assert main(["sweep", "--method", "discrete", "--out", str(discrete_csv)]) == 0
    assert main(["sweep", "--method", "continuous", "--out", str(continuous_csv)]) == 0
    assert main(["sweep", "--method", "discrete", "--suite", "noisy_yaw",
                 "--out", str(noisy_csv)]) == 0
    assert main(["sweep", "--method", "discrete", "--out", str(rerun_csv)]) == 0
    elapsed = time.perf_counter() - t0

    def rows(path):
        with open(path, newline="") as fh:
            got = list(csv.DictReader(fh))
        assert len(got) == 6
        for row in got:
            for key in ("tp_rate", "fp_rate"):
                if row[key]:
                    assert 0.0 <= float(row[key]) <= 1.0, (path, row)
        return got

    discrete_rows = rows(discrete_csv)
    continuous_rows = rows(continuous_csv)
    assert [r["param"] for r in discrete_rows] == [
        f"epsilon={v:g}" for v in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    ]
    assert all(r["param"].startswith("sigma_nu=") for r in continuous_rows)

    noisy_rows = rows(noisy_csv)
    tp = [float(r["tp_rate"]) for r in noisy_rows]
    fp = [float(r["fp_rate"]) for r in noisy_rows]
    assert all(b <= a for a, b in zip(tp, tp[1:])), tp
    assert all(b <= a for a, b in zip(fp, fp[1:])), fp

    assert discrete_csv.read_bytes() == rerun_csv.read_bytes()
    print(f"criterion 8: noisy_yaw TP {tp}, FP {fp} (both nonincreasing); "
          f"rerun bit-identical; runtime {elapsed:.1f}s (limit 120s)")
    assert elapsed < 120.0


def test_criterion_9_estimator_ties_equivariance_and_gating():
    # Tie-break determinism on pinned posteriors, reversal equivariance on
    # 1e4 random posteriors, and the default 0.3 acceptance gate.
    assert median_index(PathPosterior(np.array([0.5, 0.5, 0.0, 0.0, 0.0]))) == 0
    assert median_index(PathPosterior(np.array([0.2, 0.4, 0.2, 0.1, 0.1]))) == 1
    assert median_index(PathPosterior.uniform()) == 2
    for _ in range(100):  # determinism: same input, same answer, no state
        assert median_index(PathPosterior(np.array([0.5, 0.5, 0.0, 0.0, 0.0]))) == 0

    rng = np.random.default_rng(20240009)
    violations = 0
    for _ in range(10_000):
        p = rng.dirichlet(np.ones(5))
        med = median_index(PathPosterior(p))
        rev = median_index(PathPosterior(p[::-1].copy()))
        violations += rev != 4 - med
    assert DEFAULT_P_MIN == 0.3
    assert not assign(PathPosterior.uniform()).accepted  # 0.2 < 0.3
    confident = PathPosterior(np.array([0.0, 0.05, 0.9, 0.05, 0.0]))
    assert assign(confident).accepted
    borderline = PathPosterior(np.array([0.2, 0.3, 0.3, 0.1, 0.1]))
    assert assign(borderline).accepted  # mass 0.3 meets the default gate
    assert not assign(borderline, p_min=0.31).accepted
    print(f"criterion 9: {violations} of 10000 reversal violations "
          f"(limit 0); default gate {DEFAULT_P_MIN}")
    assert violations == 0
