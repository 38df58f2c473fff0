#!/usr/bin/env python3
"""Walk through the path-coordinate transform and its accuracy claims.

Shows the signed lateral offset on a curve, the stability of the
implementation when the path is almost straight (where the textbook
formula loses every significant digit), the agreement between the
analytic gradient and finite differences, and a condensed view of the
Monte-Carlo validation of the first-order uncertainty propagation.
"""

import math

import numpy as np

from laneassign import (
    GridSpec,
    HostState,
    jacobian_lateral_offset,
    lateral_path_offset,
    mc_validate,
    transform_to_path,
)


def naive_offset(v, yaw_rate, x, y):
    # The formula as usually written: r - sign(r) * distance to center.
    # Algebraically exact, catastrophic in float64 once |r| gets large.
    r = v / yaw_rate
    return r - math.copysign(1.0, r) * math.hypot(x, y - r)


def show_offsets():
    print("signed lateral offset, host at 20 m/s")
    print(f"{'yaw rate':>10} {'radius':>12} {'offset of (50, 2)':>20}")
    for yaw in (0.2, 0.05, 0.01, 0.001, 0.0):
        host = HostState(v=20.0, yaw_rate=yaw)
        radius = "straight" if yaw == 0.0 else f"{20.0 / yaw:.0f} m"
        offset = lateral_path_offset(host, 50.0, 2.0)
        print(f"{yaw:>10} {radius:>12} {offset:>20.6f}")
    print()


def show_near_straight_stability():
    print("near-straight stability (object at (50, 2), v = 20 m/s)")
    print(f"{'yaw rate':>10} {'naive formula':>18} {'library':>18}")
    for yaw in (1e-6, 1e-8, 1e-10, 1e-12):
        naive = naive_offset(20.0, yaw, 50.0, 2.0)
        ours = lateral_path_offset(HostState(v=20.0, yaw_rate=yaw), 50.0, 2.0)
        print(f"{yaw:>10.0e} {naive:>18.12f} {ours:>18.12f}")
    print("(the limit is exactly 2.0; the naive difference of nearly equal")
    print(" squares goes to pieces around 1e-10 rad/s)")
    print()


def show_jacobian_agreement():
    host = HostState(v=20.0, yaw_rate=0.1)
    x, y = 40.0, 1.0
    jac = jacobian_lateral_offset(host, x, y)
    theta = np.array([20.0, 0.1, x, y])
    fd = np.empty(4)
    for i in range(4):
        h = 1e-5 * max(abs(theta[i]), 1.0)
        hi, lo = theta.copy(), theta.copy()
        hi[i] += h
        lo[i] -= h
        fd[i] = (
            lateral_path_offset(HostState(hi[0], hi[1]), hi[2], hi[3])
            - lateral_path_offset(HostState(lo[0], lo[1]), lo[2], lo[3])
        ) / (2.0 * h)
    print("gradient at v=20, yaw=0.1, object (40, 1)")
    print(f"{'':>12} {'d/dv':>12} {'d/dyaw':>12} {'d/dx':>12} {'d/dy':>12}")
    print(f"{'analytic':>12} " + " ".join(f"{g:>12.6f}" for g in jac))
    print(f"{'central FD':>12} " + " ".join(f"{g:>12.6f}" for g in fd))
    print()


def show_propagation():
    mean = (20.0, 0.1, 40.0, 1.0)
    variances = np.array([0.25, 1e-4, 0.04, 0.04])
    z = transform_to_path(HostState(*mean[:2]), *mean[2:], variances)
    print("first-order propagation of a noisy detection")
    print("  input mean  (v, yaw, x, y) =", mean)
    print("  input sigma (v, yaw, x, y) =",
          tuple(float(s) for s in np.sqrt(variances).round(3)))
    print(f"  lateral offset ~ N({z.mean:.4f}, {z.std:.4f}^2) m")
    print()


def show_mc_validation():
    # A coarse version of the full 512-point validation: how well does the
    # propagated Gaussian match a sampled histogram across the envelope?
    grid = GridSpec(x_steps=4, bearing_steps=3, v_steps=3, yaw_steps=3)
    results = mc_validate(grid=grid, samples=5000, seed=0)
    distances = np.array([r.hellinger for r in results if r.status == "ok"])
    print(f"Monte-Carlo check on {len(results)} grid points, 5000 draws each")
    print(f"  Hellinger distance: median {np.median(distances):.3f}, "
          f"90th pct {np.percentile(distances, 90):.3f}, "
          f"max {distances.max():.3f}")
    print(f"  points below 0.15: {np.mean(distances < 0.15):.1%}")
    print("  (the max sits at the x=1 m / v=1 m/s corner of the envelope,")
    print("   where the offset is most curved; the full 512-point grid is")
    print("   exercised by the acceptance suite)")


def main():
    show_offsets()
    show_near_straight_stability()
    show_jacobian_agreement()
    show_propagation()
    show_mc_validation()


if __name__ == "__main__":
    main()
