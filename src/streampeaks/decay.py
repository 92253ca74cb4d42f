"""Exponential freshness decay for stream points and cluster cells.

A point that arrived at time ``t_i`` has freshness ``a**(lam*(t - t_i))``
at time ``t``.  A cell's density is the freshness sum of the points it
absorbed, but it is never stored materialized: cells keep the density
value from their last update together with that update's timestamp, and
readers decay it on demand.  Multiplying by the shared decay factor
preserves the relative order of any two densities, which is what makes
the lazy representation safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Decay factors below this are treated as zero so that ancient cells
# compare as exactly equal instead of trading denormal noise.
FRESHNESS_FLOOR = 1e-12


@dataclass(frozen=True)
class DecayParams:
    """Decay configuration: base ``a``, rate ``lam``, arrival rate ``v``
    and the active-density fraction ``beta``.

    ``beta`` must satisfy ``(1 - a**lam) / v < beta < 1`` so that the
    activation threshold sits strictly between one fresh point and the
    total freshness ceiling.
    """

    a: float = 0.998
    lam: float = 1.0
    v: float = 1000.0
    beta: float = 0.0021

    def __post_init__(self):
        for name in ("a", "lam", "v", "beta"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not 0.0 < self.a < 1.0:
            raise ValueError(f"decay base must be in (0, 1), got {self.a}")
        if self.lam <= 0.0:
            raise ValueError(f"decay rate must be positive, got {self.lam}")
        if self.v <= 0.0:
            raise ValueError(f"arrival rate must be positive, got {self.v}")
        lo = (1.0 - self.a**self.lam) / self.v
        if not lo < self.beta < 1.0:
            raise ValueError(
                f"beta={self.beta} outside legal range ({lo}, 1); "
                "the activation threshold would not exceed a single fresh point"
            )


def decay_factor(params: DecayParams, dt: float) -> float:
    """``a**(lam*dt)`` with the underflow floor applied."""
    if dt < 0.0:
        raise ValueError(f"negative decay interval {dt}")
    f = params.a ** (params.lam * dt)
    return f if f >= FRESHNESS_FLOOR else 0.0


def freshness(params: DecayParams, t_i: float, t: float) -> float:
    """Freshness of a point that arrived at ``t_i``, observed at ``t >= t_i``."""
    return decay_factor(params, t - t_i)


def decay_density(params: DecayParams, rho_last: float, t_last: float, t: float) -> float:
    """Density recorded at ``t_last``, decayed forward to ``t``."""
    if rho_last < 0.0:
        raise ValueError(f"negative density {rho_last}")
    return rho_last * decay_factor(params, t - t_last)


def absorb(params: DecayParams, rho_last: float, t_last: float, t: float) -> float:
    """Density after decaying to ``t`` and absorbing one point there.

    Equivalent to recomputing the freshness sum over every absorbed
    point, because decay distributes over the sum.
    """
    return rho_last * decay_factor(params, t - t_last) + 1.0


def total_freshness(params: DecayParams) -> float:
    """Freshness ceiling ``v / (1 - a**lam)`` of an unbounded stream."""
    return params.v / (1.0 - params.a**params.lam)


def active_threshold(params: DecayParams) -> float:
    """Density at or above which a cell counts as active: ``beta`` times
    the total-freshness ceiling."""
    return params.beta * total_freshness(params)


def deletion_horizon(params: DecayParams) -> float:
    """Seconds an untouched inactive cell must sit before deletion is safe.

    ``(log_a(1 - a**lam) - log_a(beta*v)) / (lam*v)``.  When ``beta*v``
    does not exceed ``1 - a**lam`` the formula goes nonpositive, meaning
    a threshold-density cell already decays below one fresh point
    immediately; deletion is then always safe and the horizon is 0.0.
    """
    la = math.log(params.a)
    horizon = (math.log(1.0 - params.a**params.lam) / la - math.log(params.beta * params.v) / la) / (
        params.lam * params.v
    )
    if horizon <= 0.0:
        return 0.0
    return horizon


def density_order_key(params: DecayParams, rho_last: float, t_last: float) -> float:
    """Time-invariant ordering key for lazily decayed densities.

    ``ln(rho) + lam*|ln a|*t`` orders two cells exactly as their decayed
    densities would at any common query time, so ordering decisions made
    at different moments can never disagree.  ``rho_last`` must be
    positive (every live cell holds at least one point's freshness).
    """
    if rho_last <= 0.0:
        raise ValueError("density order key requires a positive density")
    return math.log(rho_last) + params.lam * abs(math.log(params.a)) * t_last
