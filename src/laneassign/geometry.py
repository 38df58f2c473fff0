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

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np


class InputDomainError(ValueError):
    """An input lies outside the transform's validated domain."""


class SingularityError(ValueError):
    """The requested quantity is undefined at this input (circle center)."""


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


@dataclass(frozen=True)
class ObjectMeasurement:
    """One object detection in the host frame.

    lateral_velocity_input is the object's lateral velocity along the path
    normal, used as the control input of both filters when available.
    """

    x: float
    y: float
    lateral_velocity_input: float | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise InputDomainError(
                f"object position must be finite, got ({self.x}, {self.y})"
            )
        if self.x <= 0.0:
            raise InputDomainError(f"objects must be ahead of the host, got x={self.x}")
        if self.lateral_velocity_input is not None and not math.isfinite(
            self.lateral_velocity_input
        ):
            raise InputDomainError("lateral velocity input must be finite")


@dataclass(frozen=True)
class InputVector:
    """Joint Gaussian over the transform inputs, ordered (v, yaw_rate, x, y).

    mean is a length-4 vector, covariance a symmetric 4x4 matrix with
    nonnegative diagonal in the same ordering.
    """

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.covariance, dtype=float)
        if mean.shape != (4,):
            raise InputDomainError(f"mean must have shape (4,), got {mean.shape}")
        if cov.shape != (4, 4):
            raise InputDomainError(f"covariance must be 4x4, got {cov.shape}")
        if not np.all(np.isfinite(mean)) or not np.all(np.isfinite(cov)):
            raise InputDomainError("mean and covariance must be finite")
        if np.abs(cov - cov.T).max() > 1e-12:
            raise InputDomainError("covariance must be symmetric")
        if (np.diag(cov) < 0.0).any():
            raise InputDomainError("covariance diagonal must be nonnegative")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)


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

    straight = np.abs(yaw_rate) < STRAIGHT_YAW_THRESHOLD
    safe_yaw = np.where(straight, 1.0, yaw_rate)
    # Huge finite inputs overflow to an infinite or NaN offset, which the
    # callers reject with their own message.
    with np.errstate(over="ignore", invalid="ignore"):
        r = v / safe_yaw
        sgn = np.where(r >= 0.0, 1.0, -1.0)
        # Algebraically r - sgn(r) * d with d the distance to the circle
        # center, rewritten as a quotient so nothing cancels when |r| is large.
        along = x * sin_a - y * cos_a
        dist = np.hypot(x + sin_a * r, y - cos_a * r)
        curved = -(x * x + y * y + 2.0 * r * along) / (sgn * (dist + np.abs(r)))
        line = y * cos_a - x * sin_a
    return np.where(straight, line, curved)


def _jacobian_arrays(v, yaw_rate, x, y, sin_a, cos_a) -> np.ndarray:
    """Gradient of the lateral offset w.r.t. (v, yaw_rate, x, y) over
    broadcast inputs, shape (..., 4); no validation.

    At the circle center the position components are 0/0 and come out NaN;
    the caller validates.
    """
    v, yaw_rate, x, y, sin_a, cos_a = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (v, yaw_rate, x, y, sin_a, cos_a))
    )
    across = x * cos_a + y * sin_a
    straight = np.abs(yaw_rate) < STRAIGHT_YAW_THRESHOLD
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d_yaw_line = np.where(v == 0.0, 0.0, -across * across / (2.0 * v))
        safe_yaw = np.where(straight, 1.0, yaw_rate)
        r = v / safe_yaw
        sgn = np.where(r >= 0.0, 1.0, -1.0)
        along = x * sin_a - y * cos_a
        cx = x + sin_a * r
        cy = y - cos_a * r
        dist = np.hypot(cx, cy)
        # d(offset)/dr = 1 - sgn * (r + along) / dist; when the two terms
        # nearly cancel (large |r|) use dist^2 - (r + along)^2 = across^2
        # instead.
        w = sgn * (r + along)
        num = np.where(w > 0.0, across * across / (dist + w), dist - w)
        d_r = num / dist
        curved = np.stack(
            [d_r / safe_yaw, -d_r * r / safe_yaw, -sgn * cx / dist, -sgn * cy / dist],
            axis=-1,
        )
    line = np.stack([np.zeros_like(v), d_yaw_line, -sin_a, cos_a], axis=-1)
    return np.where(straight[..., None], line, curved)


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
    if not (math.isfinite(x) and math.isfinite(y)):
        raise InputDomainError(f"object position must be finite, got ({x}, {y})")
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
    if not (math.isfinite(x) and math.isfinite(y)):
        raise InputDomainError(f"object position must be finite, got ({x}, {y})")
    sin_a, cos_a = math.sin(host.alpha), math.cos(host.alpha)
    jac = _jacobian_arrays(host.v, host.yaw_rate, x, y, sin_a, cos_a)
    # The position components are NaN at the circle center (0/0), and also
    # where the center's coordinates overflow; only the first is singular.
    if np.isnan(jac[2:]).any():
        r = host.v / host.yaw_rate
        if math.hypot(x + sin_a * r, y - cos_a * r) == 0.0:
            raise SingularityError(
                "offset gradient is undefined at the path circle center"
            )
    return jac


def transform_to_path(inputs: InputVector, alpha: float = 0.0) -> GaussianScalar:
    """First-order propagation of a Gaussian input through the offset map.

    The mean is the offset evaluated at the input mean; the variance is
    J V J^T with J the offset gradient at the mean.  A variance that comes
    out negative by rounding is clamped to zero.
    """
    v, yaw_rate, x, y = (float(c) for c in inputs.mean)
    host = HostState(v=v, yaw_rate=yaw_rate, alpha=alpha)
    mean = lateral_path_offset(host, x, y)
    jac = jacobian_lateral_offset(host, x, y)
    with np.errstate(over="ignore", invalid="ignore"):
        var = float(jac @ inputs.covariance @ jac)
    if var < 0.0:
        var = 0.0
    return GaussianScalar(mean, math.sqrt(var))


def _transform_arrays(
    inputs: np.ndarray, variances: np.ndarray, sin_a, cos_a
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized `transform_to_path` for diagonal input covariances.

    `inputs` and `variances` are (..., 4) in InputVector order.  Returns the
    offset mean and standard deviation; one is NaN or infinite wherever
    `transform_to_path` would raise for a valid heading offset (non-finite
    input, negative speed, invalid variance, circle center, non-finite
    result), and the caller validates.
    """
    v, yaw_rate, x, y = np.moveaxis(inputs, -1, 0)
    mean = _lateral_offset_arrays(v, yaw_rate, x, y, sin_a, cos_a)
    jac = _jacobian_arrays(v, yaw_rate, x, y, sin_a, cos_a)
    with np.errstate(invalid="ignore", over="ignore"):
        var = ((jac * variances) * jac).sum(axis=-1)
    var = np.maximum(var, 0.0)  # clamp rounding negatives, keep NaN
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
    return float(_hellinger_rows(p_arr.reshape(1, -1), q_arr.reshape(1, -1))[0])


def _hellinger_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """`hellinger_distance` of each row pair of two (P, K) arrays.  Raises
    the error of the first failing row."""
    # NaN is not nonnegative either; +inf fails the sum.
    negative = ~(p >= 0.0).all(axis=-1) | ~(q >= 0.0).all(axis=-1)
    totals = np.stack([p.sum(axis=-1), q.sum(axis=-1)], axis=-1)
    unnormalized = np.abs(totals - 1.0) > 1e-9
    failing = negative | unnormalized.any(axis=-1)
    if failing.any():
        row = int(np.argmax(failing))
        if negative[row]:
            raise InputDomainError("distributions must be nonnegative")
        total = totals[row, int(np.argmax(unnormalized[row]))]
        raise InputDomainError(f"distribution must sum to 1, got {total}")
    coeff = np.sqrt(p * q).sum(axis=-1)
    return np.sqrt(1.0 - np.minimum(coeff, 1.0))


# ---------------------------------------------------------------------------
# Monte-Carlo validation of the first-order propagation
# ---------------------------------------------------------------------------


# The most grid points, draws per point and histogram bins `mc_validate`
# takes.  Each grid point keeps its coordinates and result, about 440 bytes,
# so the points take up to 0.45 GB.  A point's draws are four 8 MB arrays at
# the cap, and its offsets and bin indices add to a peak of about 0.1 GB.  A
# block of points holds their edges and counts, at most `_MC_BLOCK_EDGES`
# edges or one point's, and the normal CDF of the edges peaks at about six
# times that: about 8 MB at the bins cap (one point, by tracemalloc).
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
        for name in ("x_steps", "bearing_steps", "v_steps", "yaw_steps"):
            steps = getattr(self, name)
            if steps < 1:
                raise InputDomainError(f"{name} must be >= 1, got {steps}")
        points = self.x_steps * self.bearing_steps * self.v_steps * self.yaw_steps
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
        for x in xs:
            for b in bearings:
                for v in vs:
                    for yaw in yaws:
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


# The input variances of every grid point, ordered like InputVector:
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
# Branch keys 1..9 of `_ndtr`, whose first positions bound its groups.
_NDTR_GROUPS = np.arange(1, 10)


def _polevl(x: np.ndarray, coef: tuple, out: np.ndarray) -> np.ndarray:
    """Cephes polevl: the polynomial with coefficients `coef` at x, by
    Horner's rule, in `out`."""
    np.multiply(x, coef[0], out=out)
    out += coef[1]
    for c in coef[2:]:
        out *= x
        out += c
    return out


def _p1evl(x: np.ndarray, coef: tuple, out: np.ndarray) -> np.ndarray:
    """Cephes p1evl: `_polevl` with a leading coefficient 1 before `coef`."""
    np.add(x, coef[0], out=out)
    for c in coef[1:]:
        out *= x
        out += c
    return out


def _ndtr(a) -> np.ndarray:
    """The standard normal CDF, elementwise, by the algorithm of Cephes `ndtr`.

    With z = |a| / sqrt2: 0.5 + 0.5 erf(a / sqrt2) for z < 1/sqrt2, else
    0.5 erfc(z), mirrored to 1 - 0.5 erfc(z) for a > 0.  erf is x T(x^2) /
    U(x^2); erfc is 1 - erf below z = 1, exp(-z^2) P(z) / Q(z) below 8,
    exp(-z^2) R(z) / S(z) beyond, and 0 where z^2 > MAXLOG.  exp is Cephes'
    own (Cody-Waite reduction by ln 2, a rational approximation, `ldexp`),
    so every step is +, -, *, /, floor or ldexp and the bits depend on
    neither the C library nor the CPU.  NaN stays NaN.

    The values are sorted by branch and sign (a stable sort of a small
    integer key), each branch runs on its contiguous slice, and the results
    are scattered back.  Where the result is exactly 1 (z >= 8, a > 0) or
    exactly 0 nothing is evaluated.
    """
    shape = np.shape(a)
    a = np.asarray(a, dtype=float).ravel()
    z = a * _SQRT1_2
    np.abs(z, out=z)
    # key = 2 * branch + (a > 0); branch 0 takes erf, 1 takes erfc = 1 - erf,
    # 2 P/Q, 3 R/S and 4 nothing.  NaN compares false: key 0.
    key = (z >= _SQRT1_2).view(np.uint8)
    key += z >= 1.0
    key += z >= 8.0
    key += z > _ERFC_ZMAX
    key += key
    key += a > 0.0
    order = np.argsort(key, kind="stable")
    b1, b2, b3, b4, b5, b6, b7, b8, b9 = np.searchsorted(key.take(order), _NDTR_GROUPS)
    zs = z.take(order)
    y = z  # z is not read again; y takes the results in sorted order
    work = np.empty((2, b7))
    if b4:
        zt = zs[:b4]
        zz, q = work[:, :b4]
        np.multiply(zt, zt, out=zz)
        erf = _polevl(zz, _ERF_T, y[:b4])
        erf *= zt
        erf /= _p1evl(zz, _ERF_U, q)
        # 0.5 + 0.5 erf(x), erf odd; then 0.5 (1 - erf(z)), mirrored
        y[:b2] *= 0.5
        np.subtract(0.5, y[:b1], out=y[:b1])
        y[b1:b2] += 0.5
        np.subtract(1.0, y[b2:b4], out=y[b2:b4])
        y[b2:b4] *= 0.5
        np.subtract(1.0, y[b3:b4], out=y[b3:b4])
    if b7 > b4:
        zt = zs[b4:b7]
        e = y[b4:b7]
        zz, px = work[:, b4:b7]
        # exp(-z^2) = 2^n exp(r) with n = floor(-z^2 log2(e) + 1/2); u = -r
        np.multiply(zt, zt, out=zz)
        np.multiply(zz, -_LOG2E, out=px)
        px += 0.5
        np.floor(px, out=px)
        n = px.astype(np.int32)
        u = np.multiply(px, _LN2_HI, out=e)
        u += zz
        px *= _LN2_LO
        u += px
        np.multiply(u, u, out=zz)
        # exp(r) = 1 + 2 r P(r^2) / (Q(r^2) - r P(r^2))
        rp = _polevl(zz, _EXP_P, px)
        rp *= u
        q = _polevl(zz, _EXP_Q, u)
        q += rp
        rp /= q
        rp *= 2.0
        np.subtract(1.0, rp, out=rp)
        np.ldexp(rp, n, out=e)
        m = b6 - b4
        if m:
            e[:m] *= _polevl(zt[:m], _ERFC_P, zz[:m])
            e[:m] /= _p1evl(zt[:m], _ERFC_Q, px[:m])
        if b7 > b6:
            e[m:] *= _polevl(zt[m:], _ERFC_R, zz[m:])
            e[m:] /= _p1evl(zt[m:], _ERFC_S, px[m:])
        e *= 0.5
        np.subtract(1.0, y[b5:b6], out=y[b5:b6])
    y[b7:b8] = 1.0
    y[b8:b9] = 0.0
    y[b9:] = 1.0
    zs[order] = y  # zs is free again: it takes the results in input order
    return zs.reshape(shape)


def _gaussian_bin_masses(means: np.ndarray, stds: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Probability mass of N(means[i], stds[i]^2) per bin of row i of the
    (P, bins + 1) `edges`, including both open tails; every deviation is > 0."""
    cdf = _ndtr((edges - means[:, None]) / stds[:, None])
    return np.diff(cdf, axis=-1, prepend=0.0, append=1.0)


def _bin_index(samples: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """`np.searchsorted(edges, samples, side="left")` for the equal-width
    `edges` of a linspace, in O(n).

    The index is first estimated arithmetically, then moved one bin at a
    time against the real edges until none moves: where linspace collapses
    edges (a deviation tiny against the mean) the estimate can be many bins
    off.  A NaN sample goes past the last edge, as in `np.searchsorted`.
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
    # below[i] = edges[i - 1] and above[i] = edges[i]; the NaN ends stop
    # the index at 0 and at bins + 1.
    padded = np.concatenate(([math.nan], edges, [math.nan]))
    below, above = padded[:-1], padded[1:]
    moving = np.arange(len(samples))
    at, values = index, samples
    while True:
        step = (above.take(at) < values).view(np.int8) - (below.take(at) >= values).view(np.int8)
        moved = np.flatnonzero(step)
        if not moved.size:
            return index
        moving = moving[moved]
        index[moving] += step[moved]
        at, values = index[moving], samples[moving]


def mc_validate(
    grid: GridSpec = GridSpec(), samples: int = 5000, bins: int = 100, seed: int = 0
) -> list[McPointResult]:
    """Score the first-order propagation against sampling on a grid.

    For every grid point the input Gaussian (diagonal covariance
    `DEFAULT_MC_VARIANCES`, ordered v/yaw_rate/x/y, on a path with no
    heading offset) is propagated two ways: the first-order transform, and
    ``samples`` exact evaluations of the offset at random input draws.  Both
    densities are binned on a common grid of ``bins`` equal-width bins
    spanning the sampled mean +/- 6 sigma plus two open tails, and compared
    with the Hellinger distance.

    Each point uses an independent RNG stream seeded by (seed, point index),
    so results do not depend on evaluation order.  Speed draws are clipped at
    zero, where the offset map is still defined.
    """
    if samples < 2:
        raise InputDomainError(f"samples must be >= 2, got {samples}")
    if samples > MAX_MC_SAMPLES:
        raise InputDomainError(f"samples must be <= {MAX_MC_SAMPLES}, got {samples}")
    if bins < 2:
        raise InputDomainError(f"bins must be >= 2, got {bins}")
    if bins > MAX_MC_BINS:
        raise InputDomainError(f"bins must be <= {MAX_MC_BINS}, got {bins}")
    if seed < 0:
        raise InputDomainError(f"seed must be >= 0, got {seed}")
    return _mc_points(list(grid.points()), samples, bins, seed)


def _mc_points(
    points: list[tuple[float, float, float, float]], samples: int, bins: int, seed: int
) -> list[McPointResult]:
    """`mc_validate` over (x, y, v, yaw_rate) points, settings unchecked."""
    sd_v, sd_yaw, sd_x, sd_y = (math.sqrt(s) for s in DEFAULT_MC_VARIANCES)
    sin_a, cos_a = 0.0, 1.0

    # The first-order Gaussians of all points at once.  A point is skipped
    # where `transform_to_path` would raise, that is where the mean or
    # deviation is not finite; that happens on no point of a `GridSpec`.
    xs, ys, vs, yaws = np.array(points, dtype=float).reshape(-1, 4).T
    with np.errstate(all="ignore"):
        means, stds = _transform_arrays(
            np.stack([vs, yaws, xs, ys], axis=-1),
            np.array(DEFAULT_MC_VARIANCES),
            sin_a,
            cos_a,
        )
    valid = np.isfinite(means) & np.isfinite(stds)

    # Each point's draws, offsets and histogram stay in the loop; the
    # Gaussian masses and the distances are taken over the rows of a block
    # of points, which bounds the memory the rows take.
    hellinger = np.full(len(points), math.nan)
    scored = np.flatnonzero(valid)
    block = max(1, _MC_BLOCK_EDGES // (bins + 1))
    for start in range(0, len(scored), block):
        rows = scored[start:start + block]
        edges = np.empty((len(rows), bins + 1))
        counts = np.empty((len(rows), bins + 2))
        for row, index in enumerate(rows.tolist()):
            x, y, v, yaw_rate = points[index]
            rng = np.random.default_rng([seed, index])
            draw_v = np.maximum(rng.normal(v, sd_v, samples), 0.0)
            draw_yaw = rng.normal(yaw_rate, sd_yaw, samples)
            draw_x = rng.normal(x, sd_x, samples)
            draw_y = rng.normal(y, sd_y, samples)
            offsets = _lateral_offset_arrays(
                draw_v, draw_yaw, draw_x, draw_y, sin_a, cos_a
            )
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
