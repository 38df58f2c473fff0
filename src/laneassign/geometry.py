"""Path-relative lateral coordinates with first-order uncertainty propagation.

The host vehicle's predicted path is a circular arc of radius r = v / yaw_rate
(a straight line when the yaw rate vanishes), anchored at the host position and
rotated by the heading offset alpha.  This module maps object positions from
the host frame onto the signed lateral offset from that path, propagates
Gaussian input uncertainty through the map to first order, and provides a
Monte-Carlo harness that scores the linearization with the Hellinger distance
between the propagated density and a sampled one.  It also holds the
standard normal CDF that the occupancy scores and the Monte-Carlo bin masses
take their region probabilities from.

Sign conventions: x forward, y to the left, positive yaw rate turns left, and
the lateral offset is positive for objects left of the path.
"""

from __future__ import annotations

import collections
import csv
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence, TextIO

import numpy as np


class InputDomainError(ValueError):
    """An input lies outside the transform's validated domain."""


class SingularityError(ValueError):
    """The requested quantity is undefined at this input (circle center)."""


def _check_count(name: str, value, low: int, high: float = math.inf) -> None:
    """Raise an InputDomainError naming the setting `name` unless `value` is
    an integer (Python or numpy, not a bool) in [low, high]."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InputDomainError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise InputDomainError(f"{name} must be >= {low}, got {value}")
    if value > high:
        raise InputDomainError(f"{name} must be <= {high}, got {value}")


# Below this yaw rate the circular formula is replaced by its straight-line
# limit.  The cancellation-free evaluation used here is accurate down to this
# level, so the offset jump across the switch stays below 1e-8 m everywhere in
# the validated domain (x in [1, 110] m, v in [1, 70] m/s).
STRAIGHT_YAW_THRESHOLD = 1e-12


@dataclass(frozen=True)
class GaussianScalar:
    """A scalar Gaussian belief: mean and standard deviation (std >= 0)."""

    mean: float
    std: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.mean):
            raise InputDomainError(f"mean must be finite, got {self.mean}")
        if not math.isfinite(self.std) or self.std < 0.0:
            raise InputDomainError(f"std must be finite and >= 0, got {self.std}")

    @property
    def variance(self) -> float:
        return self.std * self.std


@dataclass(frozen=True)
class HostState:
    """Host motion state defining the predicted path.

    Attributes
    ----------
    v : float
        Speed over ground in m/s, >= 0.
    yaw_rate : float
        Yaw rate in rad/s, positive turning left.
    alpha : float
        Heading offset of the path tangent at the host position, rad,
        restricted to (-pi/2, pi/2).
    """

    v: float
    yaw_rate: float
    alpha: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.v) or self.v < 0.0:
            raise InputDomainError(f"speed must be finite and >= 0, got {self.v}")
        if not math.isfinite(self.yaw_rate):
            raise InputDomainError(f"yaw rate must be finite, got {self.yaw_rate}")
        if not math.isfinite(self.alpha) or abs(self.alpha) >= math.pi / 2:
            raise InputDomainError(
                f"heading offset must lie in (-pi/2, pi/2), got {self.alpha}"
            )


def _check_position(x: float, y: float) -> None:
    """Raise an InputDomainError unless the object position is finite."""
    if not (math.isfinite(x) and math.isfinite(y)):
        raise InputDomainError(f"object position must be finite, got ({x}, {y})")


def _check_object(x: float, y: float, v_lat: float | None) -> None:
    """Raise an InputDomainError unless the detection lies in the domain of
    the filters: a finite position, ahead of the host (x > 0), and a finite
    lateral velocity v_lat (the control input of both filters) where one is
    given."""
    _check_position(x, y)
    if x <= 0.0:
        raise InputDomainError(f"objects must be ahead of the host, got x={x}")
    if v_lat is not None and not math.isfinite(v_lat):
        raise InputDomainError("lateral velocity input must be finite")


class _Arc(NamedTuple):
    """The host-path circle at broadcast inputs, from `_arc`."""

    straight: np.ndarray  # |yaw_rate| < STRAIGHT_YAW_THRESHOLD
    safe_yaw: np.ndarray  # the yaw rate that divides, 1 on the straight branch
    r: np.ndarray  # signed radius v / yaw_rate
    sgn: np.ndarray  # sign of r, 1 at 0
    line: np.ndarray  # offset from the straight path, y cos(alpha) - x sin(alpha)
    cx: np.ndarray  # the object's offset from the circle center
    cy: np.ndarray
    dist: np.ndarray  # hypot(cx, cy)


def _arc(v, yaw_rate, x, y, sin_a, cos_a) -> _Arc:
    """The host-path circle at broadcast float inputs; no validation.  Huge
    finite inputs overflow to an infinite or NaN offset, which the callers
    reject with their own message."""
    straight = np.abs(yaw_rate) < STRAIGHT_YAW_THRESHOLD
    safe_yaw = np.where(straight, 1.0, yaw_rate)
    with np.errstate(over="ignore", invalid="ignore"):
        r = v / safe_yaw
        sgn = np.where(r >= 0.0, 1.0, -1.0)
        line = y * cos_a - x * sin_a
        cx = x + sin_a * r
        cy = y - cos_a * r
        return _Arc(straight, safe_yaw, r, sgn, line, cx, cy, np.hypot(cx, cy))


def _lateral_offset_arrays(v, yaw_rate, x, y, sin_a, cos_a) -> np.ndarray:
    """Vectorized signed lateral offset; inputs broadcast, no validation.

    The heading offset enters as its sine and cosine, taken with `math.sin`
    and `math.cos` by every caller (`mc_validate` passes 0.0 and 1.0, their
    values at zero) so that scalar and array paths agree.
    """
    v = np.asarray(v, dtype=float)
    yaw_rate = np.asarray(yaw_rate, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)

    arc = _arc(v, yaw_rate, x, y, sin_a, cos_a)
    with np.errstate(over="ignore", invalid="ignore"):
        # Algebraically r - sgn(r) * d with d the distance to the circle
        # center, rewritten as a quotient so nothing cancels when |r| is large.
        curved = -(x * x + y * y - 2.0 * arc.r * arc.line) / (
            arc.sgn * (arc.dist + np.abs(arc.r))
        )
    return np.where(arc.straight, arc.line, curved)


def _jacobian_arrays(v, yaw_rate, x, y, sin_a, cos_a) -> np.ndarray:
    """Gradient of the lateral offset w.r.t. (v, yaw_rate, x, y) over
    broadcast inputs, shape (..., 4); no validation.

    At the circle center the position components are 0/0 and come out NaN;
    the caller validates.
    """
    v, yaw_rate, x, y, sin_a, cos_a = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (v, yaw_rate, x, y, sin_a, cos_a))
    )
    arc = _arc(v, yaw_rate, x, y, sin_a, cos_a)
    safe_yaw, r, sgn, dist = arc.safe_yaw, arc.r, arc.sgn, arc.dist
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        across = x * cos_a + y * sin_a
        d_yaw_line = np.where(v == 0.0, 0.0, -across * across / (2.0 * v))
        # d(offset)/dr = 1 - sgn * (r - line) / dist; when the two terms
        # nearly cancel (large |r|) use dist^2 - (r - line)^2 = across^2
        # instead.
        w = sgn * (r - arc.line)
        num = np.where(w > 0.0, across * across / (dist + w), dist - w)
        d_r = num / dist
        curved = np.stack(
            [d_r / safe_yaw, -d_r * r / safe_yaw, -sgn * arc.cx / dist, -sgn * arc.cy / dist],
            axis=-1,
        )
    line = np.stack([np.zeros_like(v), d_yaw_line, -sin_a, cos_a], axis=-1)
    return np.where(arc.straight[..., None], line, curved)


def lateral_path_offset(host: HostState, x: float, y: float) -> float:
    """Signed lateral offset of the point (x, y) from the host path.

    Positive offsets are left of the path.  On a curve the offset is the
    signed distance to the circular arc of radius v / yaw_rate; on a straight
    path it degenerates to y * cos(alpha) - x * sin(alpha).

    Parameters
    ----------
    host : HostState
        Speed, yaw rate and heading offset defining the path.
    x, y : float
        Object position in the host frame, meters.
    """
    _check_position(x, y)
    return float(
        _lateral_offset_arrays(
            host.v, host.yaw_rate, x, y, math.sin(host.alpha), math.cos(host.alpha)
        )
    )


def jacobian_lateral_offset(host: HostState, x: float, y: float) -> np.ndarray:
    """Gradient of the lateral offset w.r.t. (v, yaw_rate, x, y).

    Returns a length-4 array.  On the straight branch the yaw-rate component
    is the analytic limit -(x*cos(alpha) + y*sin(alpha))^2 / (2 v), which keeps
    the gradient continuous across the branch switch.

    Raises
    ------
    SingularityError
        If (x, y) coincides with the circle center, where the offset is not
        differentiable.
    """
    _check_position(x, y)
    sin_a, cos_a = math.sin(host.alpha), math.cos(host.alpha)
    jac = _jacobian_arrays(host.v, host.yaw_rate, x, y, sin_a, cos_a)
    # The position components are NaN at the circle center (0/0), and also
    # where the center's coordinates overflow; only the first is singular,
    # and only the distance to the center tells them apart.
    if np.isnan(jac[2:]).any():
        if _arc(host.v, host.yaw_rate, x, y, sin_a, cos_a).dist == 0.0:
            raise SingularityError(
                "offset gradient is undefined at the path circle center"
            )
    return jac


def transform_to_path(host: HostState, x: float, y: float, variances) -> GaussianScalar:
    """First-order propagation of the measured uncertainty through the offset map.

    `variances` are the four independent input variances in (v, yaw_rate,
    x, y) order, as scenario files carry them.  The mean is the offset at
    (host, x, y) and the variance J diag(variances) J^T, with J the offset
    gradient there: `_transform_arrays` on one row, so it gives `run`'s
    bits.  At the circle center it raises SingularityError.
    """
    _check_position(x, y)
    variances = np.asarray(variances, dtype=float)
    if variances.shape != (4,):
        raise InputDomainError(f"variances must have shape (4,), got {variances.shape}")
    if not (np.isfinite(variances) & (variances >= 0.0)).all():
        raise InputDomainError(f"variances must be finite and >= 0, got {variances.tolist()}")
    sin_a, cos_a = math.sin(host.alpha), math.cos(host.alpha)
    inputs = np.array([host.v, host.yaw_rate, x, y])
    mean, std = _transform_arrays(inputs, variances, sin_a, cos_a)
    if math.isnan(std):
        jacobian_lateral_offset(host, x, y)
    return GaussianScalar(float(mean), float(std))


def _transform_arrays(
    inputs: np.ndarray, variances: np.ndarray, sin_a, cos_a
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized `transform_to_path`.

    `inputs` and `variances` are (..., 4) in (v, yaw_rate, x, y) order.
    Returns the offset mean and standard deviation; one is NaN or infinite
    wherever `transform_to_path` would raise for a valid heading offset
    (non-finite input, negative speed, invalid variance, circle center,
    non-finite result), and the caller validates.  `invalid` is the one test
    of those input domains: `mc_validate` skips by it, and `_engine` fails
    by it, adding only `_check_object`'s x > 0 and finite v_lat.
    """
    v, yaw_rate, x, y = np.moveaxis(inputs, -1, 0)
    mean = _lateral_offset_arrays(v, yaw_rate, x, y, sin_a, cos_a)
    jac = _jacobian_arrays(v, yaw_rate, x, y, sin_a, cos_a)
    with np.errstate(invalid="ignore", over="ignore"):
        t = (jac * variances) * jac  # summed as sum(axis=-1) does, but from t0, not +0.0
        var = ((t[..., 0] + t[..., 1]) + t[..., 2]) + t[..., 3]
    var = np.maximum(var, 0.0)  # clamp rounding negatives and -0.0, keep NaN
    invalid = (
        ~np.isfinite(variances).all(axis=-1)
        | (variances < 0.0).any(axis=-1)
        | ~np.isfinite(inputs).all(axis=-1)
        | (v < 0.0)
    )
    return np.where(invalid, np.nan, mean), np.sqrt(var)


def hellinger_distance(p: Sequence[float], q: Sequence[float]) -> float:
    """Hellinger distance between two discrete distributions, in [0, 1].

    H(p, q) = sqrt(1 - sum_i sqrt(p_i * q_i)).  Inputs must have the same
    length, be nonnegative and each sum to 1 within 1e-9.
    """
    p_arr = np.asarray(p, dtype=float)
    q_arr = np.asarray(q, dtype=float)
    if p_arr.shape != q_arr.shape:
        raise InputDomainError(
            f"distributions must have equal length, got {p_arr.shape} and {q_arr.shape}"
        )
    p_arr, q_arr = p_arr.reshape(1, -1), q_arr.reshape(1, -1)
    # NaN is not nonnegative either; +inf fails the sum.
    if not ((p_arr >= 0.0).all() and (q_arr >= 0.0).all()):
        raise InputDomainError("distributions must be nonnegative")
    for total in (p_arr.sum(), q_arr.sum()):
        if abs(total - 1.0) > 1e-9:
            raise InputDomainError(f"distribution must sum to 1, got {total}")
    return float(_hellinger_rows(p_arr, q_arr)[0])


def _hellinger_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """`hellinger_distance` of each row pair of two (P, K) arrays, unchecked."""
    coeff = np.sqrt(p * q).sum(axis=-1)
    return np.sqrt(1.0 - np.minimum(coeff, 1.0))


# ---------------------------------------------------------------------------
# Monte-Carlo validation of the first-order propagation
# ---------------------------------------------------------------------------


# The most grid points, draws per point and histogram bins `mc_validate`
# takes.  Each grid point keeps its coordinates and result, about 440 bytes,
# so the points take up to 0.45 GB.  A point's draws are one (4, samples)
# array, 32 MB at the cap, and three are alive: the current point's and the
# two the helper thread draws ahead, 96 MB.  The current point's offsets and
# bin indices add to a peak of about 0.18 GB (by tracemalloc).  A block of
# points holds their edges and counts, at most `_MC_BLOCK_EDGES` edges or one
# point's, and the normal CDF of the edges peaks at about nine times that:
# about 11 MB at the bins cap (one point, by tracemalloc).
MAX_MC_POINTS = 10**6
MAX_MC_SAMPLES = 10**6
MAX_MC_BINS = 10**5


@dataclass(frozen=True)
class GridSpec:
    """Evaluation grid over object position (range/bearing) and host motion.

    Points are the cartesian product of linspaces over x 1..110 m, bearing
    -21..21 deg, v 1..70 m/s and yaw rate -0.7..0.7 rad/s, with the object
    position built as x = range, y = x * tan(bearing).  The default
    8 x 4 x 4 x 4 grid has 512 points.
    """

    x_steps: int = 8
    bearing_steps: int = 4
    v_steps: int = 4
    yaw_steps: int = 4

    def __post_init__(self) -> None:
        names = ("x_steps", "bearing_steps", "v_steps", "yaw_steps")
        for name in names:
            _check_count(name, getattr(self, name), 1)
        # Multiplied as Python ints, which cannot wrap as numpy integers can.
        points = math.prod(int(getattr(self, name)) for name in names)
        if points > MAX_MC_POINTS:
            raise InputDomainError(
                f"the grid must have at most {MAX_MC_POINTS} points, got {points}"
            )

    def points(self) -> Iterator[tuple[float, float, float, float]]:
        """Yield (x, y, v, yaw_rate) grid points in row-major order."""
        xs = np.linspace(1.0, 110.0, self.x_steps)
        bearings = np.radians(np.linspace(-21.0, 21.0, self.bearing_steps))
        vs = np.linspace(1.0, 70.0, self.v_steps)
        yaws = np.linspace(-0.7, 0.7, self.yaw_steps)
        for x, b, v, yaw in itertools.product(xs, bearings, vs, yaws):
            yield float(x), float(x * math.tan(b)), float(v), float(yaw)


@dataclass(frozen=True)
class McPointResult:
    """One grid point of the Monte-Carlo propagation check."""

    x: float
    y: float
    v: float
    yaw_rate: float
    hellinger: float  # NaN when status != "ok"
    status: str  # "ok" or "skipped"


# The input variances of every grid point, in `transform_to_path`'s order:
# (v, yaw_rate, x, y).
DEFAULT_MC_VARIANCES = (0.25, 1e-4, 0.04, 0.04)

# Histogram edges scored together by `mc_validate`: a block holds
# `max(1, _MC_BLOCK_EDGES // (bins + 1))` points, 64 at the default 100 bins.
_MC_BLOCK_EDGES = 64 * 101


# The standard normal CDF, ported from Cephes (S. L. Moshier, Cephes Math
# Library: ndtr.c for erf and erfc, exp.c for the exponential).  Numerator
# coefficients are highest degree first; the denominators have an implicit
# leading 1.  They are 0-d arrays because numpy converts a Python float
# operand again on every call.
def _coefficients(*values: float) -> tuple[np.ndarray, ...]:
    return tuple(np.array(v) for v in values)


_ERF_T = _coefficients(
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = _coefficients(
    3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
_ERFC_P = _coefficients(
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = _coefficients(
    1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_ERFC_R = _coefficients(
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = _coefficients(
    2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
_EXP_P = _coefficients(
    1.26177193074810590878e-4, 3.02994407707441961300e-2, 9.99999999999999999910e-1,
)
_EXP_Q = _coefficients(
    3.00198505138664455042e-6, 2.52448340349684104192e-3, 2.27265548208155028766e-1,
    2.00000000000000000009e0,
)
_SQRT1_2 = 7.07106781186547524401e-1
_LOG2E = 1.4426950408889634073599
_LN2_HI = 6.93145751953125e-1  # ln 2 = _LN2_HI + _LN2_LO; n * _LN2_HI is exact
_LN2_LO = 1.42860682030941723212e-6
# Cephes' erfc(z) is 0 where z * z > MAXLOG, which for a double z holds
# exactly where z > sqrt(MAXLOG).
_ERFC_ZMAX = math.sqrt(7.09782712893383996843e2)


def _polevl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """Cephes polevl: the polynomial with coefficients `coef` at x, by
    Horner's rule."""
    y = x * coef[0]
    y += coef[1]
    for c in coef[2:]:
        y *= x
        y += c
    return y


def _p1evl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """Cephes p1evl: `_polevl` with a leading coefficient 1 before `coef`."""
    y = x + coef[0]
    for c in coef[1:]:
        y *= x
        y += c
    return y


def _exp_neg(xx: np.ndarray) -> np.ndarray:
    """exp(-xx) for 0 <= xx <= MAXLOG by Cephes' exp: 2^n exp(r) with
    n = floor(-xx log2(e) + 1/2) and r = -xx - n ln2, where exp(r) =
    1 + 2 r P(r^2) / (Q(r^2) - r P(r^2))."""
    n = np.floor(xx * -_LOG2E + 0.5)
    u = n * _LN2_HI + xx + n * _LN2_LO  # -r
    uu = u * u
    up = _polevl(uu, _EXP_P) * u
    return np.ldexp(1.0 - up / (_polevl(uu, _EXP_Q) + up) * 2.0, n.astype(np.int32))


def _ndtr(a) -> np.ndarray:
    """The standard normal CDF, elementwise, by the algorithm of Cephes `ndtr`.

    With z = |a| / sqrt2: 0.5 + 0.5 erf(a / sqrt2) for z < 1/sqrt2, else
    0.5 erfc(z), mirrored to 1 - 0.5 erfc(z) for a > 0.  erf is x T(x^2) /
    U(x^2); erfc is 1 - erf below z = 1, exp(-z^2) P(z) / Q(z) below 8,
    exp(-z^2) R(z) / S(z) beyond, and 0 where z^2 > MAXLOG.  exp is Cephes'
    own (Cody-Waite reduction by ln 2, a rational approximation, `ldexp`),
    so every step is +, -, *, /, floor or ldexp and the bits depend on
    neither the C library nor the CPU.  NaN stays NaN.

    Each branch runs on the values its boolean mask picks.  Where the result
    is exactly 1 (z >= 8, a > 0) or exactly 0 nothing is evaluated.
    """
    a = np.asarray(a, dtype=float)
    z = np.abs(a * _SQRT1_2)
    y = np.zeros(z.shape)  # 0.5 erfc(z) before the mirror; Phi where z < 1/sqrt2
    inner = ~(z >= 1.0)  # the erf tables, NaN included
    x = z[inner]
    xx = x * x
    erf = _polevl(xx, _ERF_T) * x / _p1evl(xx, _ERF_U)
    y[inner] = np.where(
        x < _SQRT1_2, 0.5 + np.copysign(0.5 * erf, a[inner]), 0.5 * (1.0 - erf)
    )
    for branch, num, den in (
        ((z >= 1.0) & (z < 8.0), _ERFC_P, _ERFC_Q),
        ((z >= 8.0) & (z <= _ERFC_ZMAX) & (a <= 0.0), _ERFC_R, _ERFC_S),
    ):
        x = z[branch]
        y[branch] = _exp_neg(x * x) * _polevl(x, num) / _p1evl(x, den) * 0.5
    return np.where((a > 0.0) & (z >= _SQRT1_2), 1.0 - y, y)


def _gaussian_bin_masses(means: np.ndarray, stds: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Probability mass of N(means[i], stds[i]^2) per bin of row i of the
    (P, bins + 1) `edges`, including both open tails; every deviation is > 0."""
    cdf = _ndtr((edges - means[:, None]) / stds[:, None])
    return np.diff(cdf, axis=-1, prepend=0.0, append=1.0)


def _bin_index(samples: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """`np.searchsorted(edges, samples, side="left")` for the equal-width
    `edges` of a linspace, in O(n) where the arithmetic is right.

    The index is estimated arithmetically and kept where the real edges
    bracket its sample, edges[i - 1] < sample <= edges[i], with NaN beyond
    both ends; a NaN sample is estimated past the last edge, as
    `np.searchsorted` places it.  The samples the estimate misses, as where
    linspace collapses edges (a deviation tiny against the mean), take
    `np.searchsorted`'s index.
    """
    bins = len(edges) - 1
    with np.errstate(all="ignore"):
        guess = samples - edges[0]
        guess *= bins / (edges[-1] - edges[0])
        guess += 1.0
    # NaN to bins + 1; truncation is the floor once negatives are 0.
    np.fmin(guess, bins + 1, out=guess)
    np.fmax(guess, 0.0, out=guess)
    index = guess.astype(np.intp)
    padded = np.concatenate(([math.nan], edges, [math.nan]))
    missed = np.flatnonzero(
        (padded[1:].take(index) < samples) | (padded[:-1].take(index) >= samples)
    )
    index[missed] = np.searchsorted(edges, samples[missed], side="left")
    return index


def mc_validate(
    grid: GridSpec = GridSpec(), samples: int = 5000, bins: int = 100, seed: int = 0
) -> list[McPointResult]:
    """Score the first-order propagation against sampling on a grid.

    For every grid point the independent Gaussian inputs (variances
    `DEFAULT_MC_VARIANCES`, ordered v/yaw_rate/x/y, on a path with no
    heading offset) are propagated two ways: the first-order transform, and
    ``samples`` exact evaluations of the offset at random input draws.  Both
    densities are binned on a common grid of ``bins`` equal-width bins
    spanning the sampled mean +/- 6 sigma plus two open tails, and compared
    with the Hellinger distance.

    Each point uses an independent RNG stream seeded by (seed, point index),
    so results do not depend on evaluation order.  Speed draws are clipped at
    zero, where the offset map is still defined.

    The calling thread seeds each point's stream; one helper thread fills
    its standard normals, which numpy does without holding the GIL, up to
    two points ahead of the loop that scores them.  A point's draws depend
    only on its own seeded stream, so the results, and the bytes of
    `write_mc_csv`, depend on neither the thread nor the CPU count.  The
    loop scales and shifts the draws in place, z * scale + loc: numpy's
    `normal` computes loc + scale * z per element, and the two must keep
    giving the same bits.
    """
    _check_count("samples", samples, 2, MAX_MC_SAMPLES)
    _check_count("bins", bins, 2, MAX_MC_BINS)
    _check_count("seed", seed, 0)
    return _mc_points(list(grid.points()), samples, bins, seed)


def _mc_points(
    points: list[tuple[float, float, float, float]], samples: int, bins: int, seed: int
) -> list[McPointResult]:
    """`mc_validate` over (x, y, v, yaw_rate) points, settings unchecked."""
    scale = np.array([[math.sqrt(s)] for s in DEFAULT_MC_VARIANCES])
    sin_a, cos_a = 0.0, 1.0

    # The first-order Gaussians of all points at once.  A point is skipped
    # where `transform_to_path` would raise, that is where the mean or
    # deviation is not finite; that happens on no point of a `GridSpec`.
    xs, ys, vs, yaws = np.array(points, dtype=float).reshape(-1, 4).T
    inputs = np.stack([vs, yaws, xs, ys], axis=-1)
    with np.errstate(all="ignore"):
        means, stds = _transform_arrays(inputs, np.array(DEFAULT_MC_VARIANCES), sin_a, cos_a)
    valid = np.isfinite(means) & np.isfinite(stds)

    # Each point's draws, offsets and histogram stay in the loop; the
    # Gaussian masses and the distances are taken over the rows of a block
    # of points, which bounds the memory the rows take.  The loop seeds each
    # point's stream, that of the four `normal` calls (v, yaw rate, x, y) of
    # `samples` draws each; one helper thread only fills it, which numpy does
    # without holding the GIL, at most two points ahead of the loop.
    from concurrent.futures import ThreadPoolExecutor

    hellinger = np.full(len(points), math.nan)
    scored = np.flatnonzero(valid)
    block = max(1, _MC_BLOCK_EDGES // (bins + 1))
    with ThreadPoolExecutor(1) as pool:
        draws = (pool.submit(np.random.default_rng([seed, index]).standard_normal, (4, samples))
                 for index in scored.tolist())
        ahead = collections.deque(itertools.islice(draws, 2))
        for start in range(0, len(scored), block):
            rows = scored[start:start + block]
            edges = np.empty((len(rows), bins + 1))
            counts = np.empty((len(rows), bins + 2))
            for row, index in enumerate(rows.tolist()):
                ahead.extend(itertools.islice(draws, 1))
                # numpy's `normal` gives loc + scale * z per element: the
                # same bits as scaling and shifting z in place.
                drawn = ahead.popleft().result()
                drawn *= scale
                drawn += inputs[index, :, None]
                np.maximum(drawn[0], 0.0, out=drawn[0])
                offsets = _lateral_offset_arrays(*drawn, sin_a, cos_a)
                mu = float(offsets.mean())
                sd = float(offsets.std())
                span = 6.0 * sd if sd > 0.0 else 1.0
                edges[row] = np.linspace(mu - span, mu + span, bins + 1)
                counts[row] = np.bincount(_bin_index(offsets, edges[row]), minlength=bins + 2)
            hellinger[rows] = _hellinger_rows(
                counts / samples, _gaussian_bin_masses(means[rows], stds[rows], edges)
            )
    return [
        McPointResult(x, y, v, yaw_rate, h, "ok" if ok else "skipped")
        for (x, y, v, yaw_rate), h, ok in zip(points, hellinger.tolist(), valid.tolist())
    ]


MC_CSV_COLUMNS = (
    "x", "y", "v", "yaw_rate", "var_x", "var_y", "var_v", "var_yaw",
    "hellinger", "status",
)


def write_mc_csv(results: Iterable[McPointResult], out: TextIO) -> None:
    """Write Monte-Carlo validation results as CSV (deterministic byte-wise).

    The variance columns hold `DEFAULT_MC_VARIANCES`, the same on every row.
    """
    var_v, var_yaw, var_x, var_y = (repr(s) for s in DEFAULT_MC_VARIANCES)
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(MC_CSV_COLUMNS)
    for res in results:
        writer.writerow(
            [
                repr(res.x), repr(res.y), repr(res.v), repr(res.yaw_rate),
                var_x, var_y, var_v, var_yaw,
                "" if math.isnan(res.hellinger) else repr(res.hellinger),
                res.status,
            ]
        )
