"""Tests for the boundary model and per-path occupancy likelihood."""

import math

import mpmath
import numpy as np
import pytest

from laneassign import (
    HOST_PATH_INDEX,
    N_PATHS,
    BoundarySet,
    BoundarySource,
    GaussianScalar,
    InputDomainError,
    PathPosterior,
    extrapolate_boundaries,
    lane_occupancy,
)
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


def test_cdf_matches_high_precision():
    for t in np.linspace(-8.0, 8.0, 97):
        assert std_normal_cdf(t) == pytest.approx(phi_exact(t), rel=1e-13, abs=1e-300)


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
# extrapolate_boundaries
# ---------------------------------------------------------------------------


def test_extrapolate_from_inner_pair():
    inner = (GaussianScalar(-2.0, 0.1), GaussianScalar(1.0, 0.2))
    bounds = extrapolate_boundaries(inner=inner)
    means = [b.mean for b in bounds.boundaries]
    assert means == pytest.approx([-5.0, -2.0, 1.0, 4.0])
    assert bounds.boundaries[0].std == pytest.approx(0.15)
    assert bounds.boundaries[3].std == pytest.approx(0.3)
    assert bounds.source == BoundarySource.EXTRAPOLATED


def test_extrapolate_default_when_no_inner():
    bounds = extrapolate_boundaries()
    means = [b.mean for b in bounds.boundaries]
    assert means == pytest.approx([-5.25, -1.75, 1.75, 5.25])
    assert all(b.std == pytest.approx(0.3) for b in bounds.boundaries[1:3])
    assert all(b.std == pytest.approx(0.45) for b in (bounds.boundaries[0], bounds.boundaries[3]))
    assert bounds.source == BoundarySource.DEFAULT


def test_extrapolate_rejects_inverted_inner():
    with pytest.raises(InputDomainError):
        extrapolate_boundaries(inner=(GaussianScalar(1.0, 0.1), GaussianScalar(-1.0, 0.1)))
