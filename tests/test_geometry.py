"""Tests for the path-coordinate transform and Monte-Carlo validation helpers.

Reference values are computed with mpmath at 60 significant digits so the
oracle shares no code (and no rounding behaviour) with the implementation.
"""

import dataclasses
import inspect
import itertools
import math
import re
import threading
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laneassign import (
    DEFAULT_MC_VARIANCES,
    GaussianScalar,
    GridSpec,
    HostState,
    InputDomainError,
    SingularityError,
    hellinger_distance,
    jacobian_lateral_offset,
    lateral_path_offset,
    mc_validate,
    transform_to_path,
    write_mc_csv,
)
from laneassign.geometry import (
    STRAIGHT_YAW_THRESHOLD,
    McPointResult,
    _bin_index,
    _jacobian_arrays,
    _lateral_offset_arrays,
    _mc_points,
    _ndtr,
    _transform_arrays,
)


def exact_offset(v, yaw_rate, x, y, alpha=0.0):
    """Signed distance to the circular path, in exact-ish arithmetic."""
    with mpmath.workdps(60):
        r = mpmath.mpf(v) / mpmath.mpf(yaw_rate)
        cx = -mpmath.sin(alpha) * r
        cy = mpmath.cos(alpha) * r
        d = mpmath.sqrt((mpmath.mpf(x) - cx) ** 2 + (mpmath.mpf(y) - cy) ** 2)
        s = 1 if r >= 0 else -1
        return float(r - s * d)


def make_host(v, yaw_rate, alpha=0.0):
    return HostState(v=v, yaw_rate=yaw_rate, alpha=alpha)


# ---------------------------------------------------------------------------
# lateral_path_offset
# ---------------------------------------------------------------------------


def test_offset_at_origin_is_zero():
    assert lateral_path_offset(make_host(20.0, 0.2), 1e-12, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_offset_straight_host_is_body_frame_y():
    host = make_host(20.0, 0.0)
    assert lateral_path_offset(host, 50.0, 2.0) == 2.0
    assert lateral_path_offset(host, 50.0, -3.5) == -3.5


def test_offset_straight_host_with_slip_angle():
    # With a slip angle the straight path is a ray at angle alpha, so the
    # offset is the perpendicular distance y*cos(alpha) - x*sin(alpha).
    host = make_host(20.0, 0.0, alpha=0.1)
    expected = 2.0 * math.cos(0.1) - 50.0 * math.sin(0.1)
    assert lateral_path_offset(host, 50.0, 2.0) == pytest.approx(expected, rel=1e-14)


def test_offset_documented_example():
    # v=20, yaw_rate=0.2 (r=100 m), object at (10, 0.5).  The left-curving
    # path crosses x=10 at y = 100 - sqrt(100^2 - 10^2) ~ 0.50125, so the
    # object sits ~1.25 mm right of the path: offset ~ -0.00125.
    got = lateral_path_offset(make_host(20.0, 0.2), 10.0, 0.5)
    assert got == pytest.approx(-0.00125, abs=1e-5)
    want = exact_offset(20.0, 0.2, 10.0, 0.5)
    assert got == pytest.approx(want, rel=1e-12)


def test_offset_matches_high_precision_reference():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(300):
        v = rng.uniform(0.5, 70.0)
        yaw = rng.uniform(-0.7, 0.7)
        if abs(yaw) < 1e-6:
            yaw = math.copysign(1e-6, yaw if yaw != 0 else 1.0)
        x = rng.uniform(0.5, 120.0)
        y = rng.uniform(-40.0, 40.0)
        alpha = rng.uniform(-0.4, 0.4)
        got = lateral_path_offset(make_host(v, yaw, alpha), x, y)
        want = exact_offset(v, yaw, x, y, alpha)
        worst = max(worst, abs(got - want) / max(abs(want), 1e-6))
    assert worst < 1e-9


def test_offset_near_singular_yaw_stays_accurate():
    # The naive r - sign(r)*hypot(...) form loses all precision once
    # |r| ~ 1e12 m; the implementation must not.
    for yaw in (1e-7, 1e-9, 1e-11, -1e-7, -1e-11):
        got = lateral_path_offset(make_host(20.0, yaw), 50.0, 2.0)
        want = exact_offset(20.0, yaw, 50.0, 2.0)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12), yaw


def test_offset_continuous_across_straight_fallback():
    # Crossing the internal straight-motion threshold must not move the
    # result by more than 1e-3 m anywhere in the operating envelope.
    thr = STRAIGHT_YAW_THRESHOLD
    for v in (1.0, 20.0, 70.0):
        for x in (1.0, 50.0, 110.0):
            for y in (-40.0, 0.0, 40.0):
                for alpha in (-0.3, 0.0, 0.3):
                    host_curved = make_host(v, thr, alpha)
                    host_straight = make_host(v, 0.0, alpha)
                    a = lateral_path_offset(host_curved, x, y)
                    b = lateral_path_offset(host_straight, x, y)
                    assert abs(a - b) < 1e-3


def test_offset_zero_on_path_points():
    # Points generated on the predicted circle itself must have zero offset.
    rng = np.random.default_rng(11)
    for _ in range(200):
        v = rng.uniform(1.0, 50.0)
        yaw = rng.uniform(-0.7, 0.7)
        if abs(yaw) < 1e-3:
            continue
        alpha = rng.uniform(-0.3, 0.3)
        r = v / yaw
        phi = rng.uniform(0.05, 0.8) * math.copysign(1.0, yaw)
        x = -r * math.sin(alpha) + r * math.sin(alpha + phi)
        y = r * math.cos(alpha) - r * math.cos(alpha + phi)
        if x <= 0:
            continue
        assert lateral_path_offset(make_host(v, yaw, alpha), x, y) == pytest.approx(0.0, abs=1e-9)


def test_offset_sign_convention():
    # Positive offset means left of the path, regardless of curve direction.
    host = make_host(20.0, 0.2)  # left curve, path at y ~ +0.5 for x=10
    assert lateral_path_offset(host, 10.0, 2.0) > 0
    assert lateral_path_offset(host, 10.0, -2.0) < 0
    host = make_host(20.0, -0.2)  # right curve, path at y ~ -0.5 for x=10
    assert lateral_path_offset(host, 10.0, 2.0) > 0
    assert lateral_path_offset(host, 10.0, -2.0) < 0
    assert lateral_path_offset(host, 10.0, -0.6) < 0 < lateral_path_offset(host, 10.0, -0.4)


def test_offset_mirror_symmetry():
    # Mirroring the scene about the x-axis flips the offset sign exactly.
    rng = np.random.default_rng(3)
    for _ in range(100):
        v = rng.uniform(1.0, 50.0)
        yaw = rng.uniform(1e-4, 0.7)
        alpha = rng.uniform(-0.3, 0.3)
        x = rng.uniform(1.0, 100.0)
        y = rng.uniform(-30.0, 30.0)
        a = lateral_path_offset(make_host(v, yaw, alpha), x, y)
        b = lateral_path_offset(make_host(v, -yaw, -alpha), x, -y)
        assert a == pytest.approx(-b, rel=1e-12, abs=1e-12)


def test_offset_at_circle_center_equals_radius():
    host = make_host(10.0, 1.0)  # r = 10, center at (0, 10)
    assert lateral_path_offset(host, 0.0, 10.0) == pytest.approx(10.0, abs=1e-12)


def test_offset_input_validation():
    with pytest.raises(InputDomainError):
        make_host(-1.0, 0.0)
    with pytest.raises(InputDomainError):
        make_host(20.0, math.nan)
    with pytest.raises(InputDomainError):
        make_host(20.0, 0.0, alpha=2.0)
    with pytest.raises(InputDomainError):
        lateral_path_offset(make_host(20.0, 0.1), math.inf, 0.0)


@pytest.mark.parametrize(
    "path_function",
    [
        lateral_path_offset,
        jacobian_lateral_offset,
        lambda host, x, y: transform_to_path(host, x, y, [0.25, 1e-4, 0.04, 0.04]),
    ],
    ids=["offset", "jacobian", "transform"],
)
@pytest.mark.parametrize("x, y", [(math.nan, 1.0), (40.0, math.inf), (-math.inf, math.nan)])
def test_the_path_functions_reject_a_non_finite_position(path_function, x, y):
    message = re.escape(f"object position must be finite, got ({x}, {y})")
    with pytest.raises(InputDomainError, match=f"^{message}$"):
        path_function(make_host(20.0, 0.1), x, y)


# ---------------------------------------------------------------------------
# jacobian_lateral_offset
# ---------------------------------------------------------------------------


def fd_jacobian(v, yaw, x, y, alpha=0.0):
    """Central finite differences of the offset in (v, yaw_rate, x, y)."""
    theta = np.array([v, yaw, x, y], dtype=float)
    out = np.empty(4)
    for i in range(4):
        h = 1e-5 * max(abs(theta[i]), 1.0)
        hi = theta.copy()
        lo = theta.copy()
        hi[i] += h
        lo[i] -= h
        fa = lateral_path_offset(make_host(hi[0], hi[1], alpha), hi[2], hi[3])
        fb = lateral_path_offset(make_host(lo[0], lo[1], alpha), lo[2], lo[3])
        out[i] = (fa - fb) / (2.0 * h)
    return out


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(19)
    checked = 0
    while checked < 200:
        v = rng.uniform(1.0, 60.0)
        yaw = rng.uniform(1e-3, 0.7) * rng.choice([-1.0, 1.0])
        x = rng.uniform(1.0, 110.0)
        y = rng.uniform(-30.0, 30.0)
        alpha = rng.uniform(-0.3, 0.3)
        r = v / yaw
        d = math.hypot(x + math.sin(alpha) * r, y - math.cos(alpha) * r)
        if d < 0.5:  # finite differences are meaningless at the center cusp
            continue
        jac = jacobian_lateral_offset(make_host(v, yaw, alpha), x, y)
        ref = fd_jacobian(v, yaw, x, y, alpha)
        err = np.linalg.norm(jac - ref) / max(np.linalg.norm(ref), 1e-9)
        assert err < 1e-4, (v, yaw, x, y, alpha)
        checked += 1


def test_jacobian_straight_limit():
    jac = jacobian_lateral_offset(make_host(20.0, 0.0), 50.0, 2.0)
    # d/dx = -sin(0) = 0, d/dy = cos(0) = 1, d/dv = 0 on the straight path.
    assert jac[0] == 0.0
    assert jac[2] == 0.0
    assert jac[3] == 1.0
    # The yaw-rate slope at zero is the one-sided curvature term
    # -(x cos a + y sin a)^2 / (2 v); check it against a symmetric
    # difference straddling zero.
    h = 1e-7
    fa = lateral_path_offset(make_host(20.0, h), 50.0, 2.0)
    fb = lateral_path_offset(make_host(20.0, -h), 50.0, 2.0)
    assert jac[1] == pytest.approx((fa - fb) / (2.0 * h), rel=1e-6)
    assert jac[1] == pytest.approx(-(50.0**2) / (2.0 * 20.0), rel=1e-12)


def test_jacobian_straight_limit_zero_speed():
    jac = jacobian_lateral_offset(make_host(0.0, 0.0, alpha=0.1), 10.0, 1.0)
    assert jac[1] == 0.0
    assert jac[2] == pytest.approx(-math.sin(0.1))
    assert jac[3] == pytest.approx(math.cos(0.1))


def test_jacobian_singular_at_circle_center():
    with pytest.raises(SingularityError):
        jacobian_lateral_offset(make_host(10.0, 1.0), 0.0, 10.0)


@pytest.mark.parametrize(
    "v, yaw_rate, x, y, alpha, message",
    [
        # v / yaw_rate overflows: the position components are NaN.
        (1e300, 1e-10, 40.0, 1.0, 0.0, "mean must be finite"),
        # (x cos(alpha) + y sin(alpha))^2 overflows on a curve at v = 0 ...
        (0.0, 0.3, 2e154, 1.0, 0.2, "mean must be finite"),
        # ... and on the straight branch, where it meets an infinite v.
        (1.7e308, 0.0, 1.0, 1e300, 0.2, "std must be finite"),
    ],
)
def test_jacobian_overflow_is_not_the_circle_center(v, yaw_rate, x, y, alpha, message):
    # A NaN gradient away from the center is returned, not a SingularityError,
    # and the transform rejects the result as a domain error.
    jac = jacobian_lateral_offset(make_host(v, yaw_rate, alpha), x, y)
    assert np.isnan(jac).any()
    with pytest.raises(InputDomainError, match=message):
        transform_to_path(make_host(v, yaw_rate, alpha), x, y, [0.25, 1e-4, 0.04, 0.04])


def test_jacobian_stable_at_tiny_yaw():
    # Same catastrophic-cancellation regime as the offset itself.
    jac = jacobian_lateral_offset(make_host(20.0, 1e-9), 50.0, 2.0)
    ref = fd_jacobian(20.0, 1e-9, 50.0, 2.0)
    # FD in yaw at 1e-9 straddles the straight branch, so compare the
    # analytically smooth components and the straight-limit slope.
    assert jac[2] == pytest.approx(ref[2], rel=1e-6)
    assert jac[3] == pytest.approx(ref[3], rel=1e-6)
    assert jac[1] == pytest.approx(-(50.0**2) / (2.0 * 20.0), rel=1e-4)


# Relative to the row norm, against `exact_gradient`; the rows of the
# curved branches come out within about 1e-15.
JACOBIAN_TOL = 1e-13


def vectorized_jacobian(cases):
    """_jacobian_arrays over (v, yaw_rate, x, y, alpha) rows."""
    v, yaw, x, y, alpha = np.array(cases, dtype=float).T
    sin_a = np.array([math.sin(a) for a in alpha])
    cos_a = np.array([math.cos(a) for a in alpha])
    return _jacobian_arrays(v, yaw, x, y, sin_a, cos_a)


def exact_gradient(v, yaw_rate, x, y, alpha=0.0):
    """Gradient of the offset in (v, yaw_rate, x, y) by central differences
    of the offset at 60 digits, with steps of 1e-20 (relative above 1).

    The side of the arc, sign(r), is held at its value at the point, so the
    differences stay on the point's branch; at v = 0 that is the r >= 0
    side, whose formula the implementation continues.  A zero yaw rate is
    the straight path; so the point's yaw rate must be nonzero unless v = 0.
    """
    side = -1 if yaw_rate != 0.0 and v / yaw_rate < 0.0 else 1
    with mpmath.workdps(60):
        sin_a, cos_a = mpmath.sin(alpha), mpmath.cos(alpha)

        def offset(v, yaw, x, y):
            if yaw == 0:
                return y * cos_a - x * sin_a
            r = v / yaw
            return r - side * mpmath.hypot(x + sin_a * r, y - cos_a * r)

        theta = [mpmath.mpf(c) for c in (v, yaw_rate, x, y)]
        grad = []
        for i in range(4):
            h = mpmath.mpf(10) ** -20 * max(abs(theta[i]), 1)
            hi, lo = list(theta), list(theta)
            hi[i] += h
            lo[i] -= h
            grad.append(float((offset(*hi) - offset(*lo)) / (2 * h)))
    return np.array(grad)


def exact_gradients(cases):
    return np.array([exact_gradient(*case) for case in cases])


def assert_rows_close(got, want, tol, name=""):
    """Each row of `got` within `tol` of `want`, relative to the row norm."""
    err = np.linalg.norm(got - want, axis=-1) / np.linalg.norm(want, axis=-1)
    assert (err <= tol).all(), (name, float(err.max()))


def jacobian_cases(rng, n, v, yaw):
    return [
        (v(), yaw(), rng.uniform(1.0, 110.0), rng.uniform(-30.0, 30.0),
         rng.uniform(-0.3, 0.3))
        for _ in range(n)
    ]


def test_vectorized_jacobian_matches_scalar_on_every_branch():
    # The scalar reference is `exact_gradient`, one point at a time.
    rng = np.random.default_rng(23)
    sign = lambda: rng.choice([-1.0, 1.0])  # noqa: E731
    branches = {
        "straight": jacobian_cases(
            rng, 50, lambda: rng.uniform(1.0, 60.0),
            lambda: sign() * rng.uniform(0.0, 0.9) * STRAIGHT_YAW_THRESHOLD),
        "standstill": jacobian_cases(
            rng, 50, lambda: 0.0, lambda: rng.choice([0.0, sign() * 0.3])),
        "left curve, r > 0": jacobian_cases(
            rng, 100, lambda: rng.uniform(1.0, 60.0), lambda: rng.uniform(1e-3, 0.7)),
        "right curve, r < 0": jacobian_cases(
            rng, 100, lambda: rng.uniform(1.0, 60.0), lambda: -rng.uniform(1e-3, 0.7)),
        "large |r|": jacobian_cases(
            rng, 100, lambda: rng.uniform(1.0, 60.0),
            lambda: sign() * rng.uniform(1e-11, 1e-6)),
    }
    for name, cases in branches.items():
        got = vectorized_jacobian(cases)
        assert got.shape == (len(cases), 4)
        # Straight rows are the limit at yaw rate 0, which differs from the
        # gradient at the row's yaw rate (below 1e-12) by up to about 1e-10.
        tol = 1e-9 if name == "straight" else JACOBIAN_TOL
        assert_rows_close(got, exact_gradients(cases), tol, name)
    # The large-|r| rows take the cancellation-free branch (w > 0).
    for v, yaw, x, y, alpha in branches["large |r|"]:
        r = v / yaw
        assert math.copysign(1.0, r) * (r + x * math.sin(alpha) - y * math.cos(alpha)) > 0


def test_vectorized_jacobian_marks_the_circle_center():
    # v = 10, yaw = 1, alpha = -0.5 puts the center ahead of the host.
    r, alpha = 10.0, -0.5
    center = (10.0, 1.0, -(math.sin(alpha) * r), math.cos(alpha) * r, alpha)
    other = (10.0, 1.0, 20.0, 3.0, alpha)
    with pytest.raises(SingularityError):
        jacobian_lateral_offset(make_host(*center[:2], alpha), *center[2:4])
    got = vectorized_jacobian([other, center])
    assert np.isnan(got[1]).all()
    assert_rows_close(got[:1], exact_gradients([other]), JACOBIAN_TOL)


# ---------------------------------------------------------------------------
# transform_to_path
# ---------------------------------------------------------------------------


def test_transform_zero_covariance():
    got = transform_to_path(make_host(20.0, 0.2), 10.0, 0.5, np.zeros(4))
    assert got.std == 0.0
    assert got.mean == pytest.approx(lateral_path_offset(make_host(20.0, 0.2), 10.0, 0.5))


def test_transform_lateral_noise_passes_through_when_straight():
    got = transform_to_path(make_host(20.0, 0.0), 50.0, 2.0, [0.0, 0.0, 0.0, 0.04])
    assert got.mean == 2.0
    assert got.std == pytest.approx(0.2, rel=1e-12)


def test_transform_variance_matches_sampling():
    # First-order propagation should agree with brute-force sampling to a
    # few percent for mild nonlinearity.
    rng = np.random.default_rng(23)
    mean = np.array([20.0, 0.1, 40.0, 1.0])
    cov = np.diag([0.25, 1e-6, 0.04, 0.04])
    got = transform_to_path(make_host(20.0, 0.1), 40.0, 1.0, np.diag(cov))
    v, w, x, y = rng.multivariate_normal(mean, cov, size=200_000).T
    samples = _lateral_offset_arrays(v, w, x, y, 0.0, 1.0)
    assert got.mean == pytest.approx(np.mean(samples), abs=5e-3)
    assert got.std == pytest.approx(np.std(samples), rel=0.05)


@pytest.mark.parametrize("alpha", [0.0, 0.3])
@pytest.mark.parametrize("curved", [False, True])
def test_transform_to_path_has_the_bits_of_the_array_transform(curved, alpha):
    # `transform_to_path` is `_transform_arrays` on one row, so a loop over
    # it gives the engine's means and stds to the bit.
    rng = np.random.default_rng(34)
    n = 5000
    inputs = np.column_stack([
        rng.uniform(1.0, 70.0, n),
        rng.uniform(-0.7, 0.7, n) if curved else np.zeros(n),
        rng.uniform(1.0, 110.0, n),
        rng.uniform(-40.0, 40.0, n),
    ])
    variances = 10.0 ** rng.uniform(-6.0, 0.0, (n, 4))
    means, stds = _transform_arrays(inputs, variances, math.sin(alpha), math.cos(alpha))
    got = [
        transform_to_path(make_host(v, yaw_rate, alpha), x, y, var)
        for (v, yaw_rate, x, y), var in zip(inputs.tolist(), variances)
    ]
    assert np.array([g.mean for g in got]).tobytes() == means.tobytes()
    assert np.array([g.std for g in got]).tobytes() == stds.tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("v", [1e-300, 5e-324])
def test_transform_rejects_an_overflowing_variance_without_warnings(v):
    # Near v = 0 the straight branch's yaw-rate gradient is huge (1e-300) or
    # infinite (5e-324), so the variance overflows or is NaN: the input is
    # rejected, and no numpy warning escapes before the error.
    with pytest.raises(InputDomainError, match="std must be finite"):
        transform_to_path(make_host(v, 0.0), 40.0, 1.0, [0.25, 1e-4, 0.04, 0.04])


@pytest.mark.parametrize(
    "variances, message",
    [
        ([0.25, 1e-4, 0.04], "have shape (4,), got (3,)"),
        (np.eye(4), "have shape (4,), got (4, 4)"),
        ([0.25, -1e-300, 0.04, 0.04], "be finite and >= 0, got [0.25, -1e-300, 0.04, 0.04]"),
        ([0.25, 1e-4, math.nan, 0.04], "be finite and >= 0, got [0.25, 0.0001, nan, 0.04]"),
        ([math.inf, 1e-4, 0.04, 0.04], "be finite and >= 0, got [inf, 0.0001, 0.04, 0.04]"),
    ],
    ids=["three", "matrix", "negative", "nan", "inf"],
)
def test_transform_to_path_rejects_bad_variances(variances, message):
    host = make_host(20.0, 0.1)
    with pytest.raises(InputDomainError, match=f"^variances must {re.escape(message)}$"):
        transform_to_path(host, 40.0, 1.0, variances)
    # The position is checked before the variances.
    with pytest.raises(InputDomainError, match="^object position must be finite"):
        transform_to_path(host, math.nan, 1.0, variances)
    assert transform_to_path(host, 40.0, 1.0, [0.25, 1e-4, 0.04, 0.04]).std > 0.0


def test_gaussian_scalar_validation():
    g = GaussianScalar(mean=1.0, std=0.5)
    assert g.variance == pytest.approx(0.25)
    with pytest.raises(InputDomainError):
        GaussianScalar(mean=0.0, std=-0.1)
    with pytest.raises(InputDomainError):
        GaussianScalar(mean=math.inf, std=0.1)


def test_transform_variance_has_the_bits_of_the_summed_products():
    # The variance sums its four products column by column; after the clamp
    # it has the bits of `((jac * variances) * jac).sum(axis=-1)`, whose +0.0
    # start turns four -0.0 products into +0.0, on rows of zero and -0.0
    # variances, infinities, NaN, huge gradients and mixed magnitudes.
    inputs = np.array([
        [20.0, 0.1, 40.0, 1.0],
        [20.0, 0.0, 40.0, 1.0],  # straight: no speed gradient
        [0.0, 0.0, 40.0, 1.0],  # standing: no yaw-rate gradient either
        [70.0, 2e-12, 110.0, 40.0],  # a huge yaw-rate gradient
        [1e200, 1e-200, 1e200, -1e200],  # overflowing gradients
        [20.0, 2.0, 0.0, 10.0],  # the circle center: NaN gradients
        [20.0, 0.1, math.inf, 1.0],
    ])
    variances = np.array([
        [0.25, 1e-4, 0.04, 0.04],
        [-0.0, -0.0, -0.0, -0.0],
        [0.0, -0.0, 0.0, -0.0],
        [0.0, 0.0, 0.0, 0.0],
        [math.inf, 0.0, 0.04, 0.04],
        [0.25, -math.inf, 0.04, math.inf],
        [math.nan, 1e-4, 0.04, 0.04],
        [1e300, 1e300, 5e-324, 1e-300],
        [1.0, 1e16, -1e16, 1.0],  # negative, so the order of the sum shows
    ])
    rng = np.random.default_rng(30)
    scale = 10.0 ** rng.integers(-150, 150, size=(500, 4))
    random_inputs = rng.normal([20.0, 0.0, 60.0, 0.0], [10.0, 0.3, 50.0, 10.0], (500, 4))
    random_variances = rng.normal(size=(500, 4)) * scale
    rows = np.concatenate([
        np.array([np.concatenate(pair) for pair in itertools.product(inputs, variances)]),
        np.concatenate([random_inputs, random_variances], axis=1),
    ])
    alpha = 0.3
    sin_a, cos_a = math.sin(alpha), math.cos(alpha)
    _, stds = _transform_arrays(rows[:, :4], rows[:, 4:], sin_a, cos_a)
    jac = _jacobian_arrays(*rows[:, :4].T, sin_a, cos_a)
    with np.errstate(all="ignore"):
        want = np.sqrt(np.maximum(((jac * rows[:, 4:]) * jac).sum(axis=-1), 0.0))
    assert stds.tobytes() == want.tobytes()
    zero = (rows[:, 4:] == 0.0).all(axis=-1) & np.isfinite(jac).all(axis=-1)
    assert zero.any() and not np.signbit(stds[zero]).any()


# ---------------------------------------------------------------------------
# hellinger_distance
# ---------------------------------------------------------------------------


def test_hellinger_identical_is_zero():
    p = np.full(8, 0.125)
    assert hellinger_distance(p, p) == 0.0


def test_hellinger_disjoint_is_one():
    p = np.array([1.0, 0.0, 0.0])
    q = np.array([0.0, 0.5, 0.5])
    assert hellinger_distance(p, q) == pytest.approx(1.0)


def test_hellinger_symmetry_and_range():
    rng = np.random.default_rng(5)
    for _ in range(200):
        p = rng.dirichlet(np.ones(16))
        q = rng.dirichlet(np.ones(16))
        d = hellinger_distance(p, q)
        assert d == hellinger_distance(q, p)
        assert 0.0 <= d <= 1.0


def test_hellinger_triangle_inequality():
    rng = np.random.default_rng(29)
    for _ in range(200):
        p = rng.dirichlet(np.ones(10))
        q = rng.dirichlet(np.ones(10))
        s = rng.dirichlet(np.ones(10))
        assert hellinger_distance(p, q) <= (
            hellinger_distance(p, s) + hellinger_distance(s, q) + 1e-12
        )


def test_hellinger_gaussian_closed_form():
    # For two unit-variance Gaussians two sigma apart the exact distance is
    # sqrt(1 - exp(-1/2)); fine binning should recover it.
    edges = np.linspace(-12.0, 14.0, 4001)
    centers = 0.5 * (edges[:-1] + edges[1:])
    width = edges[1] - edges[0]
    p = np.exp(-0.5 * centers**2) * width / math.sqrt(2 * math.pi)
    q = np.exp(-0.5 * (centers - 2.0) ** 2) * width / math.sqrt(2 * math.pi)
    p /= p.sum()
    q /= q.sum()
    want = math.sqrt(1.0 - math.exp(-0.5))
    assert hellinger_distance(p, q) == pytest.approx(want, abs=1e-3)


def test_hellinger_validation():
    with pytest.raises(InputDomainError):
        hellinger_distance(np.array([0.5, 0.5]), np.array([1.0, 0.0, 0.0]))
    with pytest.raises(InputDomainError):
        hellinger_distance(np.array([0.7, 0.2]), np.array([0.5, 0.5]))  # sum != 1
    # The sums are held to 1e-9: 5e-7 off is rejected, 5e-10 passes.
    with pytest.raises(InputDomainError, match="must sum to 1"):
        hellinger_distance(np.array([0.5, 0.5 + 5e-7]), np.array([0.5, 0.5]))
    assert hellinger_distance(np.array([0.5, 0.5 + 5e-10]), np.array([0.5, 0.5])) < 1e-4
    with pytest.raises(InputDomainError, match="^distributions must be nonnegative$"):
        hellinger_distance(np.array([1.1, -0.1]), np.array([0.5, 0.5]))
    # A non-finite entry is no distribution either, on either side.
    for bad in ([math.nan, 1.0], [1.0, math.nan], [math.inf, 0.0], [-math.inf, 1.0]):
        with pytest.raises(InputDomainError):
            hellinger_distance(bad, [0.5, 0.5])
        with pytest.raises(InputDomainError):
            hellinger_distance([0.5, 0.5], bad)
    with pytest.raises(InputDomainError, match="^distributions must be nonnegative$"):
        hellinger_distance([math.nan, 1.0], [0.5, 0.5])
    with pytest.raises(InputDomainError, match="^distribution must sum to 1, got inf$"):
        hellinger_distance([math.inf, 0.0], [0.5, 0.5])


@pytest.mark.parametrize(
    "p, q, message",
    [
        # Both sides are checked for signs before either for its sum.
        ([0.5, 0.25], [1.5, -0.5], "distributions must be nonnegative"),
        ([0.5, 0.25], [0.5, 0.75], "distribution must sum to 1, got 0.75"),
        ([0.5, 0.5], [0.5, 0.75], "distribution must sum to 1, got 1.25"),
        # The shapes are checked first of all.
        ([0.5, 0.5], [1.5, -0.25, -0.25], "distributions must have equal length, got (2,) and (3,)"),
        ([[0.5, 0.5]], [0.5, 0.5], "distributions must have equal length, got (1, 2) and (2,)"),
        # NaN is not nonnegative; +inf is, and fails its sum.
        ([math.nan, 1.0], [0.5, 0.5], "distributions must be nonnegative"),
        ([0.5, 0.5], [1.0, math.nan], "distributions must be nonnegative"),
        ([math.inf, 0.0], [math.nan, 1.0], "distributions must be nonnegative"),
        ([0.5, 0.5], [-math.inf, 1.0], "distributions must be nonnegative"),
        ([math.inf, 0.0], [0.5, 0.5], "distribution must sum to 1, got inf"),
        ([0.5, 0.5], [0.0, math.inf], "distribution must sum to 1, got inf"),
        ([0.5, 0.25], [math.inf, 0.0], "distribution must sum to 1, got 0.75"),
        # Inputs of more dimensions are flattened.
        ([[0.5, 0.25]], [[0.5, 0.5]], "distribution must sum to 1, got 0.75"),
        ([[0.5], [0.5]], [[1.5], [-0.5]], "distributions must be nonnegative"),
    ],
)
def test_hellinger_distance_checks_in_a_fixed_order(p, q, message):
    with pytest.raises(InputDomainError) as excinfo:
        hellinger_distance(p, q)
    assert str(excinfo.value) == message


def test_hellinger_distance_flattens_its_inputs():
    assert hellinger_distance([[0.5, 0.5]], [[0.5, 0.5]]) == 0.0
    assert hellinger_distance([[0.75, 0.25]], [[0.25, 0.75]]) == (
        hellinger_distance([0.75, 0.25], [0.25, 0.75])
    )


# ---------------------------------------------------------------------------
# mc_validate
# ---------------------------------------------------------------------------


def test_grid_spec_default_is_512_points():
    points = list(GridSpec().points())
    assert len(points) == 8 * 4 * 4 * 4
    xs = {p[0] for p in points}
    assert min(xs) == pytest.approx(1.0)
    assert max(xs) == pytest.approx(110.0)
    for x, y, v, yaw in points:
        assert abs(math.degrees(math.atan2(y, x))) <= 21.0 + 1e-9
        assert 1.0 <= v <= 70.0
        assert -0.7 <= yaw <= 0.7


@pytest.mark.parametrize("name", ["x_steps", "bearing_steps", "v_steps", "yaw_steps"])
@pytest.mark.parametrize("steps", [0, -3])
def test_grid_spec_rejects_fewer_than_one_step(name, steps):
    with pytest.raises(InputDomainError, match=rf"^{name} must be >= 1, got {steps}$"):
        GridSpec(**{name: steps})


def test_grid_spec_caps_its_points():
    GridSpec(1000, 1000, 1, 1)  # at the cap
    with pytest.raises(
        InputDomainError, match=r"^the grid must have at most 1000000 points, got 2000000$"
    ):
        GridSpec(1000, 1000, 2, 1)


def test_mc_validate_takes_only_the_settings_a_caller_sets():
    # The CLI sets the four step counts, the sample and bin counts and the
    # seed; the ranges, the input variances and the heading offset are fixed.
    assert [field.name for field in dataclasses.fields(GridSpec)] == [
        "x_steps", "bearing_steps", "v_steps", "yaw_steps",
    ]
    assert list(inspect.signature(mc_validate).parameters) == [
        "grid", "samples", "bins", "seed",
    ]
    assert [field.name for field in dataclasses.fields(McPointResult)] == [
        "x", "y", "v", "yaw_rate", "hellinger", "status",
    ]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(steps=st.tuples(*[st.integers(1, 12)] * 4))
def test_every_grid_point_has_a_finite_first_order_gaussian(steps):
    # var_x = var_y = 0.04 and a position gradient of unit norm put every
    # first-order deviation at 0.2 or more, so no grid point is skipped and
    # none has a point-mass Gaussian.
    grid = GridSpec(*steps)
    xs, ys, vs, yaws = np.array(list(grid.points())).T
    assert len(xs) == math.prod(steps)
    means, stds = _transform_arrays(
        np.stack([vs, yaws, xs, ys], axis=-1), np.array(DEFAULT_MC_VARIANCES), 0.0, 1.0
    )
    assert np.isfinite(means).all()
    assert (stds >= 0.2 * (1.0 - 1e-9)).all()


NOT_INTEGERS = [2.0, 1.5, np.float64(3.0), True, False, np.True_, "3", None]


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("name", ["x_steps", "bearing_steps", "v_steps", "yaw_steps"])
def test_grid_spec_takes_only_integer_steps(name, value):
    with pytest.raises(InputDomainError) as excinfo:
        GridSpec(**{name: value})
    assert str(excinfo.value) == f"{name} must be an integer, got {value!r}"


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("name", ["samples", "bins", "seed"])
def test_mc_validate_takes_only_integer_counts(name, value):
    with pytest.raises(InputDomainError) as excinfo:
        mc_validate(GridSpec(1, 1, 1, 1), **{name: value})
    assert str(excinfo.value) == f"{name} must be an integer, got {value!r}"


def test_mc_validate_takes_numpy_integers():
    grid = GridSpec(np.int64(2), np.int32(1), np.uint8(2), np.int16(1))
    assert list(grid.points()) == list(GridSpec(2, 1, 2, 1).points())
    got = mc_validate(grid, samples=np.int64(50), bins=np.int32(10), seed=np.uint64(3))
    assert got == mc_validate(GridSpec(2, 1, 2, 1), samples=50, bins=10, seed=3)
    # The point count is a Python int: a product of numpy integers would
    # wrap 2**32 * 2**32 to 0 and pass the cap.
    with pytest.raises(
        InputDomainError,
        match=r"^the grid must have at most 1000000 points, got 18446744073709551616$",
    ):
        GridSpec(np.int64(2**32), np.int64(2**32), 1, 1)


@pytest.mark.parametrize(
    "options, message",
    [
        (dict(samples=1), r"^samples must be >= 2, got 1$"),
        (dict(bins=1), r"^bins must be >= 2, got 1$"),
    ],
    ids=["one sample", "one bin"],
)
def test_mc_validate_rejects_too_few_samples_or_bins(options, message):
    grid = GridSpec(x_steps=1, bearing_steps=1, v_steps=1, yaw_steps=1)
    with pytest.raises(InputDomainError, match=message):
        mc_validate(grid=grid, **options)


def test_mc_validate_rejects_a_negative_seed():
    grid = GridSpec(x_steps=1, bearing_steps=1, v_steps=1, yaw_steps=1)
    with pytest.raises(InputDomainError, match=r"^seed must be >= 0, got -1$"):
        mc_validate(grid=grid, samples=10, seed=-1)


def test_mc_validate_small_grid_runs_clean():
    grid = GridSpec(x_steps=2, bearing_steps=2, v_steps=2, yaw_steps=2)
    results = mc_validate(grid=grid, samples=2000, bins=60, seed=1)
    assert len(results) == 16
    assert all(r.status == "ok" for r in results)
    assert all(0.0 <= r.hellinger <= 1.0 for r in results if r.status == "ok")


def test_mc_validate_deterministic():
    grid = GridSpec(x_steps=2, bearing_steps=1, v_steps=2, yaw_steps=1)
    a = mc_validate(grid=grid, samples=1000, seed=42)
    b = mc_validate(grid=grid, samples=1000, seed=42)
    assert [(r.hellinger, r.status) for r in a] == [(r.hellinger, r.status) for r in b]
    c = mc_validate(grid=grid, samples=1000, seed=43)
    assert [r.hellinger for r in a] != [r.hellinger for r in c]


SINGULAR_POINTS = [
    # v=10, yaw=1 puts the circle center at (0, 10); bearing 90 deg is
    # impossible, so the point is built by hand.
    (0.0, 10.0, 10.0, 1.0),
    (40.0, 1.0, -1.0, 0.1),  # negative speed
    (40.0, math.nan, 20.0, 0.1),  # NaN coordinate
    # An infinite yaw rate, which the parser and HostState reject.
    (40.0, 1.0, 20.0, math.inf),
    (40.0, 1.0, 20.0, -math.inf),
    (math.inf, 1.0, 20.0, 0.1),  # infinite coordinate
    (40.0, 1.0, math.nan, 0.1),  # NaN speed
    (40.0, 1.0, 20.0, math.nan),  # NaN yaw rate
]


@pytest.mark.parametrize(
    "point", SINGULAR_POINTS,
    ids=["circle center", "negative speed", "nan coordinate", "inf yaw rate",
         "-inf yaw rate", "inf coordinate", "nan speed", "nan yaw rate"],
)
def test_mc_validate_skips_singular_geometry(point):
    results = _mc_points([point], samples=100, bins=100, seed=0)
    assert results[0].status == "skipped"
    assert math.isnan(results[0].hellinger)


@st.composite
def binned_samples(draw):
    """Edges as `mc_validate` builds them, and samples on, next to and far
    from them, including infinities and NaN."""
    bins = draw(st.integers(2, 200))
    mu = draw(st.floats(-1e6, 1e6))
    sd = draw(
        st.one_of(
            st.just(0.0),
            st.floats(1e-300, 1e-12),
            # Against |mu| small enough that linspace repeats or collapses edges.
            st.floats(1e-18, 1e-13).map(lambda scale: abs(mu) * scale),
            st.floats(1e-12, 1e3),
        )
    )
    span = 6.0 * sd if sd > 0.0 else 1.0
    edges = np.linspace(mu - span, mu + span, bins + 1)
    on_edges = np.array(draw(st.lists(st.sampled_from(edges.tolist()), max_size=30)))
    samples = [
        on_edges,
        np.nextafter(on_edges, -math.inf),
        np.nextafter(on_edges, math.inf),
        draw(st.lists(st.floats(mu - 2.0 * span, mu + 2.0 * span), max_size=30)),
        draw(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=10)),
        draw(st.lists(st.sampled_from([math.inf, -math.inf, math.nan]), max_size=5)),
    ]
    return np.concatenate([np.asarray(part, dtype=float) for part in samples]), edges


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(case=binned_samples())
def test_bin_index_is_searchsorted(case):
    samples, edges = case
    got = _bin_index(samples, edges)
    assert got.dtype == np.intp
    np.testing.assert_array_equal(got, np.searchsorted(edges, samples, side="left"))


def reference_mc_validate(points, samples, bins, seed):
    """The Hellinger distance of each point, one point at a time, binned
    with np.searchsorted and scored with `hellinger_distance`; NaN where
    the point is skipped."""
    var_v, var_yaw, var_x, var_y = DEFAULT_MC_VARIANCES
    distances = []
    for index, (x, y, v, yaw_rate) in enumerate(points):
        with np.errstate(all="ignore"):
            mean, std = (
                float(a)
                for a in _transform_arrays(
                    np.array([v, yaw_rate, x, y], dtype=float),
                    np.array(DEFAULT_MC_VARIANCES),
                    0.0,
                    1.0,
                )
            )
        if not (math.isfinite(mean) and math.isfinite(std)):
            distances.append(math.nan)
            continue
        rng = np.random.default_rng([seed, index])
        draw_v = np.maximum(rng.normal(v, math.sqrt(var_v), samples), 0.0)
        draw_yaw = rng.normal(yaw_rate, math.sqrt(var_yaw), samples)
        draw_x = rng.normal(x, math.sqrt(var_x), samples)
        draw_y = rng.normal(y, math.sqrt(var_y), samples)
        offsets = _lateral_offset_arrays(draw_v, draw_yaw, draw_x, draw_y, 0.0, 1.0)
        mu = float(offsets.mean())
        sd = float(offsets.std())
        span = 6.0 * sd if sd > 0.0 else 1.0
        edges = np.linspace(mu - span, mu + span, bins + 1)
        counts = np.bincount(np.searchsorted(edges, offsets, side="left"), minlength=bins + 2)
        cdf = _ndtr((edges - mean) / std)
        linearized = np.diff(np.concatenate(([0.0], cdf, [1.0])))
        distances.append(hellinger_distance(counts / samples, linearized))
    return distances


@pytest.mark.parametrize(
    "grid, options",
    [
        (GridSpec(x_steps=2, bearing_steps=1, v_steps=2, yaw_steps=2), dict(bins=2)),
        (GridSpec(x_steps=2, bearing_steps=2, v_steps=1, yaw_steps=2), dict(samples=2)),
        # More points than `mc_validate` scores in one block, 64 at 100 bins.
        (GridSpec(x_steps=5, bearing_steps=3, v_steps=3, yaw_steps=3), dict(samples=40)),
        # So many bins that a block holds one point.
        (GridSpec(x_steps=3, bearing_steps=1, v_steps=1, yaw_steps=1),
         dict(samples=40, bins=4000)),
        # A list of points goes through `_mc_points`, the loop `mc_validate` runs.
        ([(40.0, 1.0, 20.0, 0.1), *SINGULAR_POINTS, (1.0, -0.3, 70.0, -0.7)],
         dict(samples=300, seed=9)),
        # The least first-order deviation, 0.2 from position alone at x = 0
        # on a straight path, while the sampled yaw rates spread the offsets.
        ([(0.0, 5.0, 10.0, 0.0), (0.0, -2.0, 30.0, 0.0)], dict(samples=300, bins=7)),
        # No point is scored, so no block runs.
        (SINGULAR_POINTS, dict(samples=50)),
    ],
    ids=["two bins", "two samples", "several blocks", "one-point blocks", "list grid",
         "least deviation", "singular points only"],
)
def test_mc_validate_equals_the_per_point_reference(grid, options):
    kwargs = dict(samples=500, bins=100, seed=4)
    kwargs.update(options)
    if isinstance(grid, GridSpec):
        points = list(grid.points())
        results = mc_validate(grid, **kwargs)
    else:
        points = grid
        results = _mc_points(points, **kwargs)
    want = reference_mc_validate(points, **kwargs)
    assert [r.status == "skipped" for r in results] == [math.isnan(h) for h in want]
    assert [(r.x, r.y, r.v, r.yaw_rate) for r in results] == points
    got = [r.hellinger for r in results]
    assert all(a == b or (math.isnan(a) and math.isnan(b)) for a, b in zip(got, want))


def test_mc_validate_memory_does_not_grow_with_bins_per_block():
    # A block is sized by its histogram edges, not its points: 64 points of
    # 10^4 bins each peaked at 47.6 MB when every block held 64 points.
    grid = GridSpec(x_steps=4, bearing_steps=4, v_steps=4, yaw_steps=1)
    tracemalloc.start()
    try:
        mc_validate(grid, samples=100, bins=10**4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 10**6


def test_mc_validate_draws_at_most_two_points_ahead(monkeypatch):
    # The helper thread draws each point's normals, (4, 10^5) floats or
    # 3.2 MB, at most two points ahead of the loop: with the work on the
    # current point's offsets, three points' draws peaked at 17.7 MB.  A
    # third point ahead would add 3.2 MB, and drawing every point ahead
    # (as `pool.map` over the points does) 9.6 MB more on these six.  The
    # loop sleeps at each point, so that the helper is as far ahead as it
    # may go.
    offsets = _lateral_offset_arrays

    def slow_offsets(*args):
        time.sleep(0.05)
        return offsets(*args)

    monkeypatch.setattr("laneassign.geometry._lateral_offset_arrays", slow_offsets)
    grid = GridSpec(x_steps=6, bearing_steps=1, v_steps=1, yaw_steps=1)
    tracemalloc.start()
    try:
        mc_validate(grid, samples=10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 19.3 * 10**6


@pytest.mark.parametrize(
    "run",
    [
        lambda: mc_validate(GridSpec(x_steps=2, bearing_steps=2, v_steps=2, yaw_steps=2),
                            samples=200),
        # No point is scored, so no draw is submitted.
        lambda: _mc_points(SINGULAR_POINTS, samples=200, bins=100, seed=0),
    ],
    ids=["small grid", "singular points only"],
)
def test_mc_validate_leaves_no_thread_behind(run):
    before = threading.active_count()
    run()
    assert threading.active_count() == before


def test_mc_validate_raises_a_draw_error_and_leaves_no_thread_behind(monkeypatch):
    error = RuntimeError("no stream for the third point")
    default_rng = np.random.default_rng

    def failing_rng(seed):
        if seed[1] == 2:
            raise error
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", failing_rng)
    grid = GridSpec(x_steps=6, bearing_steps=1, v_steps=1, yaw_steps=1)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as raised:
        mc_validate(grid, samples=200)
    assert raised.value is error
    assert threading.active_count() == before


def test_mc_validate_raises_a_helper_fill_error_and_leaves_no_thread_behind(monkeypatch):
    # The third point's stream is seeded on the calling thread and fails
    # where the helper fills it; the same exception reaches the caller.
    error = RuntimeError("no normals for the third point")
    default_rng = np.random.default_rng
    filled_on = []

    class FailingFill:
        def __init__(self, seed):
            self.seed = seed

        def standard_normal(self, size):
            filled_on.append(threading.current_thread())
            if self.seed[1] == 2:
                raise error
            return default_rng(self.seed).standard_normal(size)

    monkeypatch.setattr(np.random, "default_rng", FailingFill)
    grid = GridSpec(x_steps=6, bearing_steps=1, v_steps=1, yaw_steps=1)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as raised:
        mc_validate(grid, samples=200)
    assert raised.value is error
    assert threading.active_count() == before
    assert filled_on and threading.current_thread() not in filled_on


def test_mc_default_variances_order():
    # (var_v, var_yaw, var_x, var_y)
    assert DEFAULT_MC_VARIANCES == (0.25, 1e-4, 0.04, 0.04)


def test_write_mc_csv(tmp_path):
    grid = GridSpec(x_steps=2, bearing_steps=1, v_steps=1, yaw_steps=1)
    results = mc_validate(grid=grid, samples=200, seed=3)
    out = tmp_path / "mc.csv"
    with open(out, "w", newline="") as fh:
        write_mc_csv(results, fh)
    lines = out.read_text().splitlines()
    assert lines[0] == "x,y,v,yaw_rate,var_x,var_y,var_v,var_yaw,hellinger,status"
    assert len(lines) == 1 + len(results)
    first = lines[1].split(",")
    # Every row carries DEFAULT_MC_VARIANCES in the column order.
    assert {tuple(line.split(",")[4:8]) for line in lines[1:]} == {
        ("0.04", "0.04", "0.25", "0.0001")
    }
    assert first[-1] == "ok"
    assert float(first[-2]) == results[0].hellinger
