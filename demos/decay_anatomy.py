"""Walk through the decay arithmetic one quantity at a time.

A cluster-cell's density is a sum of exponentially decayed point
freshnesses.  This script prints the derived thresholds for the
reference configuration and then feeds one cell a burst followed by
silence, showing the crossing times.
"""

import math

from streampeaks import (
    DecayParams,
    absorb,
    active_threshold,
    decay_density,
    deletion_horizon,
    freshness,
    total_freshness,
)


def main() -> None:
    params = DecayParams(a=0.998, lam=1.0, v=1000.0, beta=0.0021)
    print("decay base a          ", params.a)
    print("decay rate lambda     ", params.lam)
    print("expected arrivals v   ", params.v, "points/s")
    print("activation fraction b ", params.beta)
    print()
    total = total_freshness(params)
    threshold = active_threshold(params)
    horizon = deletion_horizon(params)
    print(f"total stream freshness caps at {total:,.0f}")
    print(f"a cell is active from {threshold:,.0f} density upward")
    print(f"an untouched outlier cell is safe to delete after "
          f"{horizon:.4f}s")
    print()

    print("one point, left alone:")
    for dt in (0.0, 1.0, 10.0, 100.0, 1000.0):
        print(f"  after {dt:6.0f}s its freshness is "
              f"{freshness(params, 0.0, dt):.6f}")
    print()

    print("a cell fed 1200 points in 1.2s, then starved:")
    rho, t = 0.0, 0.0
    crossed = None
    for i in range(1200):
        t = i / params.v
        rho = absorb(params, rho, max(t - 1.0 / params.v, 0.0), t)
        if crossed is None and rho >= threshold:
            crossed = (i + 1, t, rho)
    print(f"  activates at point {crossed[0]} (t={crossed[1]:.3f}s) with "
          f"density {crossed[2]:,.1f}; the burst ends at {rho:,.1f}")
    for dt in (1.0, 5.0, 20.0, 60.0):
        rho_later = decay_density(params, rho, t, t + dt)
        state = "active" if rho_later >= threshold else "inactive"
        print(f"  {dt:4.0f}s of silence -> density {rho_later:8.1f} ({state})")
    fall = math.log(threshold / rho) / (params.lam * math.log(params.a))
    print(f"  it falls back below the threshold {fall:.2f}s after "
          "the last arrival")


if __name__ == "__main__":
    main()
