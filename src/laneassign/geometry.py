"""Path-relative lateral coordinates with first-order uncertainty propagation.

The host vehicle's predicted path is a circular arc of radius r = v / yaw_rate
(a straight line when the yaw rate vanishes), anchored at the host position and
rotated by the heading offset alpha.  This module maps object positions from
the host frame onto the signed lateral offset from that path, propagates
Gaussian input uncertainty through the map to first order, and provides a
Monte-Carlo harness that scores the linearization with the Hellinger distance
between the propagated density and a sampled one.

Sign conventions: x forward, y to the left, positive yaw rate turns left, and
the lateral offset is positive for objects left of the path.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np
from scipy.special import ndtr


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
    and `math.cos` by every caller so that scalar and array paths agree.
    """
    v = np.asarray(v, dtype=float)
    yaw_rate = np.asarray(yaw_rate, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)

    straight = np.abs(yaw_rate) < STRAIGHT_YAW_THRESHOLD
    safe_yaw = np.where(straight, 1.0, yaw_rate)
    r = v / safe_yaw
    sgn = np.where(r >= 0.0, 1.0, -1.0)
    # Algebraically r - sgn(r) * d with d the distance to the circle center,
    # rewritten as a quotient so nothing cancels when |r| is large.
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
    if (p_arr < 0.0).any() or (q_arr < 0.0).any():
        raise InputDomainError("distributions must be nonnegative")
    for total in (p_arr.sum(), q_arr.sum()):
        if abs(total - 1.0) > 1e-9:
            raise InputDomainError(f"distribution must sum to 1, got {total}")
    coeff = float(np.sqrt(p_arr * q_arr).sum())
    return math.sqrt(max(0.0, 1.0 - min(coeff, 1.0)))


# ---------------------------------------------------------------------------
# Monte-Carlo validation of the first-order propagation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """Evaluation grid over object position (range/bearing) and host motion.

    Points are the cartesian product of linspaces over the four ranges, with
    the object position built as x = range, y = x * tan(bearing).  The default
    8 x 4 x 4 x 4 grid has 512 points.
    """

    x_steps: int = 8
    bearing_steps: int = 4
    v_steps: int = 4
    yaw_steps: int = 4
    x_range: tuple[float, float] = (1.0, 110.0)
    bearing_range_deg: tuple[float, float] = (-21.0, 21.0)
    v_range: tuple[float, float] = (1.0, 70.0)
    yaw_range: tuple[float, float] = (-0.7, 0.7)

    def __post_init__(self) -> None:
        for name in ("x_steps", "bearing_steps", "v_steps", "yaw_steps"):
            steps = getattr(self, name)
            if steps < 1:
                raise InputDomainError(f"{name} must be >= 1, got {steps}")

    def points(self) -> Iterator[tuple[float, float, float, float]]:
        """Yield (x, y, v, yaw_rate) grid points in row-major order."""
        xs = np.linspace(*self.x_range, self.x_steps)
        bearings = np.radians(np.linspace(*self.bearing_range_deg, self.bearing_steps))
        vs = np.linspace(*self.v_range, self.v_steps)
        yaws = np.linspace(*self.yaw_range, self.yaw_steps)
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
    var_x: float
    var_y: float
    var_v: float
    var_yaw: float
    hellinger: float  # NaN when status != "ok"
    status: str  # "ok" or "skipped"


# Default input variances, ordered like InputVector: (v, yaw_rate, x, y).
DEFAULT_MC_VARIANCES = (0.25, 1e-4, 0.04, 0.04)


def _gaussian_bin_masses(mean: float, std: float, edges: np.ndarray) -> np.ndarray:
    """Probability mass of N(mean, std^2) per bin, including both open tails."""
    if std == 0.0:
        masses = np.zeros(len(edges) + 1)
        masses[int(np.searchsorted(edges, mean, side="left"))] = 1.0
        return masses
    cdf = ndtr((edges - mean) / std)
    return np.diff(np.concatenate(([0.0], cdf, [1.0])))


def _empirical_bin_masses(samples: np.ndarray, edges: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(edges, samples, side="left")
    counts = np.bincount(idx, minlength=len(edges) + 1)
    return counts / samples.size


def mc_validate(
    grid: GridSpec | Iterable[tuple[float, float, float, float]] | None = None,
    samples: int = 5000,
    bins: int = 100,
    seed: int = 0,
    variances: Sequence[float] = DEFAULT_MC_VARIANCES,
    alpha: float = 0.0,
) -> list[McPointResult]:
    """Score the first-order propagation against sampling on a grid.

    For every grid point the input Gaussian (diagonal covariance from
    ``variances``, ordered v/yaw_rate/x/y) is propagated two ways: the
    first-order transform, and ``samples`` exact evaluations of the offset at
    random input draws.  Both densities are binned on a common grid of
    ``bins`` equal-width bins spanning the sampled mean +/- 6 sigma plus two
    open tails, and compared with the Hellinger distance.

    Each point uses an independent RNG stream seeded by (seed, point index),
    so results do not depend on evaluation order.  Speed draws are clipped at
    zero, where the offset map is still defined.
    """
    if samples < 2:
        raise InputDomainError(f"samples must be >= 2, got {samples}")
    if bins < 2:
        raise InputDomainError(f"bins must be >= 2, got {bins}")
    if seed < 0:
        raise InputDomainError(f"seed must be >= 0, got {seed}")
    var_v, var_yaw, var_x, var_y = (float(s) for s in variances)
    for name, value in (("var_v", var_v), ("var_yaw", var_yaw),
                        ("var_x", var_x), ("var_y", var_y)):
        if not math.isfinite(value) or value < 0.0:
            raise InputDomainError(f"{name} must be finite and >= 0, got {value}")

    if grid is None:
        grid = GridSpec()
    points = list(grid.points() if isinstance(grid, GridSpec) else grid)
    sin_a, cos_a = math.sin(alpha), math.cos(alpha)

    # The first-order Gaussians of all points at once.  A point is skipped
    # where `transform_to_path` would raise: every point for a heading
    # offset outside the host's domain, else where the mean or deviation is
    # not finite.
    valid_alpha = True
    try:
        HostState(0.0, 0.0, alpha)
    except InputDomainError:
        valid_alpha = False
    xs, ys, vs, yaws = np.array(points, dtype=float).reshape(-1, 4).T
    with np.errstate(all="ignore"):
        means, stds = _transform_arrays(
            np.stack([vs, yaws, xs, ys], axis=-1),
            np.array([var_v, var_yaw, var_x, var_y]),
            sin_a,
            cos_a,
        )
    valid = np.isfinite(means) & np.isfinite(stds) & valid_alpha

    results: list[McPointResult] = []
    for index, ((x, y, v, yaw_rate), ok) in enumerate(zip(points, valid.tolist())):
        h = math.nan
        if ok:
            rng = np.random.default_rng([seed, index])
            draw_v = np.maximum(rng.normal(v, math.sqrt(var_v), samples), 0.0)
            draw_yaw = rng.normal(yaw_rate, math.sqrt(var_yaw), samples)
            draw_x = rng.normal(x, math.sqrt(var_x), samples)
            draw_y = rng.normal(y, math.sqrt(var_y), samples)
            offsets = _lateral_offset_arrays(
                draw_v, draw_yaw, draw_x, draw_y, sin_a, cos_a
            )
            mu = float(offsets.mean())
            sd = float(offsets.std())
            span = 6.0 * sd if sd > 0.0 else 1.0
            edges = np.linspace(mu - span, mu + span, bins + 1)
            empirical = _empirical_bin_masses(offsets, edges)
            linearized = _gaussian_bin_masses(
                float(means[index]), float(stds[index]), edges
            )
            h = hellinger_distance(empirical, linearized)
        results.append(
            McPointResult(
                x, y, v, yaw_rate, var_x, var_y, var_v, var_yaw, h,
                "ok" if ok else "skipped",
            )
        )
    return results


MC_CSV_COLUMNS = (
    "x", "y", "v", "yaw_rate", "var_x", "var_y", "var_v", "var_yaw",
    "hellinger", "status",
)


def write_mc_csv(results: Iterable[McPointResult], out: TextIO) -> None:
    """Write Monte-Carlo validation results as CSV (deterministic byte-wise)."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(MC_CSV_COLUMNS)
    for res in results:
        writer.writerow(
            [
                repr(res.x), repr(res.y), repr(res.v), repr(res.yaw_rate),
                repr(res.var_x), repr(res.var_y), repr(res.var_v),
                repr(res.var_yaw),
                "" if math.isnan(res.hellinger) else repr(res.hellinger),
                res.status,
            ]
        )
