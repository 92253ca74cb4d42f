"""Synthetic stream generation from planted moving-source scenarios.

A scenario is a set of sources on a shared clock.  Every source owns a
piecewise-linear center path, a piecewise-linear share of the arrival
rate, and a birth/death interval; at any instant the shares of the
living sources must sum to 1.  Points are emitted on a fixed arrival
grid (one point every 1/rate seconds), so a scenario's ground truth is
exactly its source timeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Union

import numpy as np

from streampeaks.cells import Coords, StreamPoint
from streampeaks.errors import ConfigError

ShareCurve = tuple[tuple[float, float], ...]
CenterPath = tuple[tuple[float, Coords], ...]

# Gaussian draws are clipped to this many standard deviations so a
# planted source has a hard spatial footprint.
CLIP_SIGMAS = 3.0


def _share_at(curve: ShareCurve, t: float) -> float:
    if t <= curve[0][0]:
        return curve[0][1]
    for (t0, v0), (t1, v1) in zip(curve, curve[1:]):
        if t <= t1:
            w = (t - t0) / (t1 - t0)
            return v0 + w * (v1 - v0)
    return curve[-1][1]


def _center_at(path: CenterPath, t: float) -> Coords:
    if t <= path[0][0]:
        return path[0][1]
    for (t0, c0), (t1, c1) in zip(path, path[1:]):
        if t <= t1:
            w = (t - t0) / (t1 - t0)
            return tuple(a + w * (b - a) for a, b in zip(c0, c1))
    return path[-1][1]


@dataclass(frozen=True)
class GaussianSource:
    """Moving isotropic Gaussian emitter."""

    name: str
    stddev: float
    path: CenterPath
    share: ShareCurve
    birth: float = 0.0
    death: float = math.inf

    def center(self, t: float) -> Coords:
        return _center_at(self.path, t)

    def share_at(self, t: float) -> float:
        return _share_at(self.share, t)

    def sample(self, t: float, rng: np.random.Generator) -> Coords:
        c = self.center(t)
        z = np.clip(rng.standard_normal(len(c)), -CLIP_SIGMAS, CLIP_SIGMAS)
        return tuple(ci + self.stddev * zi for ci, zi in zip(c, z))


@dataclass(frozen=True)
class UniformSource:
    """Background noise: uniform draws over a fixed box."""

    name: str
    low: Coords
    high: Coords
    share: ShareCurve
    birth: float = 0.0
    death: float = math.inf

    def share_at(self, t: float) -> float:
        return _share_at(self.share, t)

    def sample(self, t: float, rng: np.random.Generator) -> Coords:
        u = rng.random(len(self.low))
        return tuple(lo + ui * (hi - lo)
                     for lo, hi, ui in zip(self.low, self.high, u))


Source = Union[GaussianSource, UniformSource]


@dataclass(frozen=True)
class PlantedScenario:
    """A named source timeline emitting `rate` points/s for `duration` s."""

    name: str
    dim: int
    rate: float
    duration: float
    sources: tuple[Source, ...]

    def __post_init__(self):
        if self.rate <= 0.0 or self.duration <= 0.0:
            raise ConfigError("scenario rate and duration must be positive")
        if not self.sources:
            raise ConfigError("scenario has no sources")

    def live_at(self, t: float) -> list[Source]:
        return [s for s in self.sources if s.birth <= t < s.death]


def draw_stream(scenario: PlantedScenario,
                seed: int) -> Iterator[StreamPoint]:
    """The scenario's point stream, labeled by source name, drawn one
    point per step.

    Deterministic in (scenario, seed): every point costs one uniform
    draw to pick its source plus one fixed-size coordinate draw.  A
    negative seed raises ``ConfigError`` here, before any draw.
    """
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    return _draws(scenario, np.random.default_rng(seed))


def _draws(scenario: PlantedScenario,
           rng: np.random.Generator) -> Iterator[StreamPoint]:
    for i in range(round(scenario.rate * scenario.duration)):
        t = i / scenario.rate
        live = scenario.live_at(t)
        shares = [s.share_at(t) for s in live]
        total = sum(shares)
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(
                f"shares of live sources sum to {total} at t={t}, expected 1")
        u = rng.random() * total
        acc = 0.0
        chosen = live[-1]
        for s, w in zip(live, shares):
            acc += w
            if u < acc:
                chosen = s
                break
        yield StreamPoint(chosen.sample(t, rng), t, chosen.name)


def generate(scenario: PlantedScenario, seed: int) -> list[StreamPoint]:
    """The whole of ``draw_stream(scenario, seed)`` as a list."""
    return list(draw_stream(scenario, seed))


def _sds() -> PlantedScenario:
    """Two blobs that approach and merge, a late blob that emerges after
    the originals fade, then splits in two.

    The coordinate scale is chosen so that, at a cell radius of 1.6, the
    initial inter-blob dependency link sits just above 5 while the
    intra-blob links bunch near 2: that makes 5 a workable operator
    threshold and keeps the threshold-learning objective solvable.
    """
    spread = 1.1
    left = GaussianSource(
        name="L", stddev=spread,
        path=((0.0, (-3.0, 0.0)), (2.0, (-3.0, 0.0)), (9.0, (-1.1, 0.0)),
              (20.0, (-1.1, 0.0))),
        share=((0.0, 0.5), (11.5, 0.5), (12.0, 0.35), (13.0, 0.35),
               (13.9, 0.0)),
        death=13.9)
    right = GaussianSource(
        name="R", stddev=spread,
        path=((0.0, (3.0, 0.0)), (2.0, (3.0, 0.0)), (9.0, (1.1, 0.0)),
              (20.0, (1.1, 0.0))),
        share=left.share, death=13.9)
    north_share: ShareCurve = ((11.5, 0.0), (12.0, 0.15), (13.0, 0.15),
                               (13.9, 0.5), (20.0, 0.5))
    north_a = GaussianSource(
        name="N1", stddev=spread, birth=11.5,
        path=((11.5, (0.0, 9.0)), (15.0, (0.0, 9.0)), (19.0, (-2.8, 9.0)),
              (20.0, (-2.8, 9.0))),
        share=north_share)
    north_b = GaussianSource(
        name="N2", stddev=spread, birth=11.5,
        path=((11.5, (0.0, 9.0)), (15.0, (0.0, 9.0)), (19.0, (2.8, 9.0)),
              (20.0, (2.8, 9.0))),
        share=north_share)
    return PlantedScenario(name="sds", dim=2, rate=1000.0, duration=20.0,
                           sources=(left, right, north_a, north_b))


def _mix() -> PlantedScenario:
    """Three drifting blobs over light background noise; exercises every
    cell lifecycle transition without any planted narrative."""
    a = GaussianSource(
        name="A", stddev=1.0,
        path=((0.0, (-4.0, 0.0)), (10.0, (-4.0, 3.0))),
        share=((0.0, 0.34),))
    b = GaussianSource(
        name="B", stddev=1.3,
        path=((0.0, (4.0, 0.0)), (10.0, (4.0, -3.0))),
        share=((0.0, 0.33),))
    c = GaussianSource(
        name="C", stddev=0.8,
        path=((0.0, (0.0, 5.0)), (10.0, (0.0, -5.0))),
        share=((0.0, 0.27),))
    noise = UniformSource(
        name="noise", low=(-8.0, -8.0), high=(8.0, 8.0),
        share=((0.0, 0.06),))
    return PlantedScenario(name="mix", dim=2, rate=1000.0, duration=10.0,
                           sources=(a, b, c, noise))


def _hds() -> PlantedScenario:
    """Axis-aligned Gaussian mixture in 8 dimensions plus uniform noise.

    Stands in for a high-dimensional workload; documented as an
    approximation, no published generator exists to reproduce.
    """
    dim = 8
    sources: list[Source] = []
    for k in range(5):
        center = tuple(6.0 if j == k else 0.0 for j in range(dim))
        sources.append(GaussianSource(
            name=f"G{k}", stddev=1.0,
            path=((0.0, center),),
            share=((0.0, 0.19),)))
    sources.append(UniformSource(
        name="noise", low=(-4.0,) * dim, high=(10.0,) * dim,
        share=((0.0, 0.05),)))
    return PlantedScenario(name="hds", dim=dim, rate=500.0, duration=10.0,
                           sources=tuple(sources))


def builtin(name: str) -> PlantedScenario:
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise ConfigError(
            f"unknown scenario {name!r}, have {', '.join(sorted(_BUILTINS))}"
        ) from None
    return factory()


def builtin_names() -> list[str]:
    return sorted(_BUILTINS)


_BUILTINS = {"sds": _sds, "mix": _mix, "hds": _hds}
