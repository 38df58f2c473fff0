"""Tests for the boundary model and per-path occupancy likelihood."""

import hashlib
import math

import mpmath
import numpy as np
import pytest

from laneassign import (
    DEFAULT_BOUNDS,
    HOST_PATH_INDEX,
    N_PATHS,
    BoundarySet,
    GaussianScalar,
    InputDomainError,
    PathPosterior,
    lane_occupancy,
)
from laneassign.geometry import _ndtr
from laneassign.likelihood import _occupancy_arrays


def bounds_from_means(means, std=0.0):
    return BoundarySet(tuple(GaussianScalar(mean=m, std=std) for m in means))


def phi_exact(t):
    with mpmath.workdps(50):
        return float(mpmath.ncdf(t))


# ---------------------------------------------------------------------------
# the normal CDF inside the occupancy kernel
# ---------------------------------------------------------------------------


def std_normal_cdf(t):
    """Phi(t) as the occupancy kernel evaluates it: the mass of region 0 for
    a unit Gaussian at 0, with a sharp boundary at t and the other three at
    +inf, so that region 1 holds the rest."""
    bound_means = np.array([t, math.inf, math.inf, math.inf])
    return float(_occupancy_arrays(0.0, 1.0, bound_means, np.zeros(4))[0])


def test_cdf_anchor_values():
    assert std_normal_cdf(0.0) == 0.5
    assert std_normal_cdf(math.inf) == 1.0
    assert std_normal_cdf(-math.inf) == 0.0
    assert std_normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)


def _both_sides(x):
    return (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))


# Arguments on both sides of every branch edge of the Cephes port: |a| = 1
# (erf tables inside), sqrt2 (erfc = 1 - erf inside), 8 sqrt2 (P/Q inside,
# R/S beyond), the saturation near +8.5, where 1 - Phi(-a) rounds to 1, and
# the underflow, where Cephes' erfc is 0 (a < -sqrt(2 MAXLOG) = -37.68)
# and where the exact Phi rounds to 0 (a below about -38.5); then -37.6,
# whose Phi is subnormal, and the signed zeros and infinities.
BRANCH_EDGES = [
    t
    for edge in (1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0))
    for t in _both_sides(edge) + _both_sides(-edge)
] + [
    *_both_sides(8.5),
    *_both_sides(-math.sqrt(2.0 * 7.09782712893383996843e2)),
    *_both_sides(-38.5),
    -37.6,
    0.0,
    -0.0,
    math.inf,
    -math.inf,
]


def test_cdf_matches_high_precision():
    for t in np.linspace(-8.0, 8.0, 97):
        assert std_normal_cdf(t) == pytest.approx(phi_exact(t), rel=1e-13, abs=1e-300)
    # A normal double result is held to 1e-13 relative; below the smallest
    # normal double only an absolute bound of that size holds, since Cephes
    # (and scipy) cut erfc to 0 where the exact Phi is still about 6e-311.
    tiny = np.finfo(float).tiny
    for t in BRANCH_EDGES:
        got, exact = float(_ndtr(t)), phi_exact(t)
        if exact >= tiny:
            assert got == pytest.approx(exact, rel=1e-13), t
        else:
            assert abs(got - exact) <= tiny, t
    assert 0.0 < _ndtr(-37.6) < tiny
    assert math.isnan(_ndtr(math.nan))


def test_cdf_keeps_the_shape_and_the_order():
    t = np.linspace(-40.0, 40.0, 24).reshape(2, 3, 4)
    assert _ndtr(t).shape == (2, 3, 4)
    assert _ndtr(0.5).shape == ()
    assert _ndtr([]).shape == (0,)
    # Each value's bits do not depend on the batch it comes in.
    each = np.array([float(_ndtr(x)) for x in t.ravel()])
    assert np.array_equal(_ndtr(t).ravel(), each)
    assert np.array_equal(_ndtr(t[:, ::-1]), _ndtr(t)[:, ::-1])


# sha256 of `_ndtr`'s bytes over BRANCH_EDGES and 3 * 10**5 seeded draws.
# It pins every bit of Phi where scipy is not installed; a change to it is a
# change of the program's results.
NDTR_DIGEST = "f0fdfba6d9b6aafdee6388fcb203a47c16cc40da6379b102b856aae2abc996cd"


def test_cdf_bits_are_pinned():
    rng = np.random.default_rng(33)
    t = np.concatenate([
        np.array(BRANCH_EDGES),
        rng.uniform(-40.0, 40.0, 10**5),
        rng.uniform(-1.5, 1.5, 10**5),
        rng.normal(0.0, 5.0, 10**5),
    ])
    assert hashlib.sha256(_ndtr(t).tobytes()).hexdigest() == NDTR_DIGEST


def test_cdf_leaves_its_argument_alone():
    t = np.concatenate([BRANCH_EDGES, [math.nan], np.linspace(-40.0, 40.0, 97)])
    before = t.tobytes()
    want = _ndtr(t)
    assert t.tobytes() == before
    # A read-only broadcast view and a non-contiguous transposed slice give
    # the bits of a contiguous copy.
    wide = np.broadcast_to(t, (3, len(t)))
    assert not wide.flags.writeable
    assert _ndtr(wide).tobytes() == np.broadcast_to(want, wide.shape).tobytes()
    tall = np.stack([t, -t, t]).T[:, ::2]
    assert not tall.flags.contiguous
    got = _ndtr(tall)
    assert got.tobytes() == _ndtr(np.ascontiguousarray(tall)).tobytes()
    assert got[:, 0].tobytes() == want.tobytes()


def test_cdf_is_within_4_ulp_of_scipy():
    pytest.importorskip("scipy")
    from scipy.special import ndtr

    rng = np.random.default_rng(24)
    t = np.concatenate([
        rng.uniform(-40.0, 40.0, 200_000),
        rng.uniform(-1.5, 1.5, 50_000),
        rng.normal(0.0, 5.0, 200_000),
    ])
    ours, theirs = _ndtr(t), ndtr(t)
    assert (np.abs(ours - theirs) <= 4 * np.spacing(np.abs(theirs))).all()


def test_cdf_rejects_nan():
    # The kernel leaves a row with a NaN standardized argument NaN, and
    # lane_occupancy rejects it.  Here the NaN is -inf / inf: the offset
    # difference and the combined deviation both overflow.
    assert math.isnan(std_normal_cdf(math.nan))
    obj = GaussianScalar(1e308, 1.5e308)
    bounds = BoundarySet(
        (GaussianScalar(-1e308, 1.5e308),)
        + tuple(GaussianScalar(m, 0.0) for m in (0.0, 1.0, 2.0))
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InputDomainError, match="standardized argument is NaN"):
            lane_occupancy(obj, bounds)


# ---------------------------------------------------------------------------
# BoundarySet / PathPosterior containers
# ---------------------------------------------------------------------------


def test_boundary_set_requires_increasing_means():
    with pytest.raises(InputDomainError):
        bounds_from_means((-5.25, -1.75, -1.75, 5.25))
    with pytest.raises(InputDomainError):
        bounds_from_means((1.0, 0.0, 2.0, 3.0))


def test_boundary_set_requires_four_boundaries():
    with pytest.raises(InputDomainError):
        BoundarySet(tuple(GaussianScalar(m, 0.1) for m in (-1.75, 1.75)))


def test_posterior_validation():
    PathPosterior(np.array([0.2, 0.2, 0.2, 0.2, 0.2]))
    with pytest.raises(InputDomainError):
        PathPosterior(np.array([0.3, 0.3, 0.3, 0.3, 0.3]))  # sum 1.5
    with pytest.raises(InputDomainError):
        PathPosterior(np.array([0.5, 0.6, -0.1, 0.0, 0.0]))
    with pytest.raises(InputDomainError):
        PathPosterior(np.array([0.5, 0.5]))
    uniform = PathPosterior.uniform()
    assert uniform[HOST_PATH_INDEX] == pytest.approx(1.0 / N_PATHS)


# ---------------------------------------------------------------------------
# lane_occupancy
# ---------------------------------------------------------------------------

STD_BOUNDS = bounds_from_means((-5.25, -1.75, 1.75, 5.25), std=0.3)


def test_occupancy_sums_to_one():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        means = np.sort(rng.uniform(-8.0, 8.0, size=4))
        if np.min(np.diff(means)) < 1e-3:
            continue
        stds = rng.uniform(0.0, 1.5, size=4)
        bounds = BoundarySet(tuple(GaussianScalar(m, s) for m, s in zip(means, stds)))
        obj = GaussianScalar(rng.uniform(-12.0, 12.0), rng.uniform(0.0, 3.0))
        p = lane_occupancy(obj, bounds)
        assert abs(float(np.sum(p.probs)) - 1.0) <= 1e-12


def test_occupancy_center_of_host_path():
    p = lane_occupancy(GaussianScalar(0.0, 0.3), bounds_from_means((-5.25, -1.75, 1.75, 5.25)))
    assert p[HOST_PATH_INDEX] > 0.9999
    assert p[0] == pytest.approx(0.0, abs=1e-6)


def test_occupancy_matches_quadrature():
    # With exact boundaries, p(l) is the integral of the object's density
    # over the strip; compare against direct numeric quadrature.
    obj = GaussianScalar(0.9, 0.8)
    bounds = bounds_from_means((-5.25, -1.75, 1.75, 5.25))
    p = lane_occupancy(obj, bounds)
    with mpmath.workdps(40):
        pdf = lambda u: mpmath.npdf(u, obj.mean, obj.std)
        edges = [-mpmath.inf, -5.25, -1.75, 1.75, 5.25, mpmath.inf]
        for lane in range(5):
            want = float(mpmath.quad(pdf, [edges[lane], edges[lane + 1]]))
            assert p[lane] == pytest.approx(want, abs=1e-12)


def test_occupancy_uses_combined_sigma():
    # Boundary noise and object noise enter only through the combined
    # sigma, so trading one for the other must not change the result.
    a = lane_occupancy(GaussianScalar(1.0, 0.5), bounds_from_means((-5.25, -1.75, 1.75, 5.25), std=0.5))
    combined = math.sqrt(0.5**2 + 0.5**2)
    b = lane_occupancy(GaussianScalar(1.0, combined), bounds_from_means((-5.25, -1.75, 1.75, 5.25)))
    np.testing.assert_allclose(a.probs, b.probs, atol=1e-15)


def test_occupancy_translation_equivariance():
    shift = 2.5
    a = lane_occupancy(GaussianScalar(0.7, 0.4), STD_BOUNDS)
    shifted = bounds_from_means((-5.25 + shift, -1.75 + shift, 1.75 + shift, 5.25 + shift), std=0.3)
    b = lane_occupancy(GaussianScalar(0.7 + shift, 0.4), shifted)
    np.testing.assert_allclose(a.probs, b.probs, atol=1e-14)


def test_occupancy_boundary_tie_splits_evenly():
    # A noiseless object sitting exactly on a noiseless boundary belongs
    # half to each side.
    p = lane_occupancy(GaussianScalar(1.75, 0.0), bounds_from_means((-5.25, -1.75, 1.75, 5.25)))
    assert p[2] == pytest.approx(0.5, abs=1e-6)
    assert p[3] == pytest.approx(0.5, abs=1e-6)


def test_occupancy_degenerate_point_mass():
    p = lane_occupancy(GaussianScalar(3.0, 0.0), bounds_from_means((-5.25, -1.75, 1.75, 5.25)))
    want = np.zeros(5)
    want[3] = 1.0
    np.testing.assert_array_equal(p.probs, want)


@pytest.mark.parametrize("mean, std", [(0.0, math.nan), (math.nan, 0.0), (math.nan, 0.5)])
def test_occupancy_of_a_nan_row_is_nan(mean, std):
    # A NaN mean or std is no point mass: the row comes out NaN for the
    # caller to reject, also where the boundaries are certain.
    for bounds in (DEFAULT_BOUNDS, bounds_from_means((-5.25, -1.75, 1.75, 5.25))):
        assert np.isnan(_occupancy_arrays(mean, std, *bounds.arrays())).all()


@pytest.mark.filterwarnings("error")
def test_occupancy_of_an_overflowing_distance_warns_nothing():
    # 1.7e308 - (-1.7e308) overflows to inf: that boundary lies infinitely
    # far below, and no numpy warning escapes.
    bounds = bounds_from_means((-1.7e308, -1.0, 1.0, 1.7e308))
    p = lane_occupancy(GaussianScalar(1.7e308, 1.0), bounds)
    assert p.probs.tolist() == [0.0, 0.0, 0.0, 0.5, 0.5]


def test_occupancy_outer_paths_are_open_ended():
    p = lane_occupancy(GaussianScalar(50.0, 1.0), STD_BOUNDS)
    assert p[4] == pytest.approx(1.0)
    p = lane_occupancy(GaussianScalar(-50.0, 1.0), STD_BOUNDS)
    assert p[0] == pytest.approx(1.0)


def test_occupancy_monotone_in_offset():
    mus = np.linspace(-10.0, 10.0, 201)
    p0 = [lane_occupancy(GaussianScalar(m, 0.6), STD_BOUNDS)[0] for m in mus]
    p4 = [lane_occupancy(GaussianScalar(m, 0.6), STD_BOUNDS)[4] for m in mus]
    assert np.all(np.diff(p0) <= 1e-15)
    assert np.all(np.diff(p4) >= -1e-15)


def test_occupancy_clamps_inconsistent_boundary_noise():
    # Wildly different boundary noise can make a raw CDF difference
    # negative; the result must clamp it to zero and renormalize.
    bounds = BoundarySet(
        (
            GaussianScalar(-5.0, 0.0),
            GaussianScalar(0.0, 2.0),
            GaussianScalar(0.1, 0.0),
            GaussianScalar(5.0, 0.0),
        )
    )
    p = lane_occupancy(GaussianScalar(3.0, 0.0), bounds)
    # The raw masses are (0, Phi(-1.5), -Phi(-1.5), 1, 0).
    phi = phi_exact(-1.5)
    assert p[2] == 0.0
    assert p[1] == pytest.approx(phi / (1.0 + phi), rel=1e-12)
    assert float(np.min(p.probs)) >= 0.0
    assert float(np.sum(p.probs)) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# DEFAULT_BOUNDS
# ---------------------------------------------------------------------------


def test_default_bounds_are_pinned():
    # A centered 3.5 m host path and one lane each side.  The outer
    # deviation is the product 0.3 * 1.5, which is not the float 0.45; the
    # pinned synthetic scenarios carry it.
    assert [(b.mean, b.std) for b in DEFAULT_BOUNDS.boundaries] == [
        (-5.25, 0.44999999999999996),
        (-1.75, 0.3),
        (1.75, 0.3),
        (5.25, 0.44999999999999996),
    ]
