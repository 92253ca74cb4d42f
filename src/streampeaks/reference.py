"""Batch reference implementations and quality metrics.

Everything here trades speed for directness: densities are pairwise
counts, dependencies are nested argmin loops.  The streaming engine is
validated against these, never the other way round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Optional, Sequence

import numpy as np

from streampeaks.cells import CellSpace, seed_distance
from streampeaks.decay import DecayParams, freshness
from streampeaks.deptree import Cluster, ClusterSnapshot
from streampeaks.errors import MissingLabels


@dataclass(frozen=True)
class BatchParams:
    """Static density-peaks parameters: neighborhood radius ``d_c``,
    outlier density cutoff ``xi`` and dependency cut ``tau``."""

    d_c: float
    xi: float
    tau: float

    def __post_init__(self):
        for name in ("d_c", "xi", "tau"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class BatchResult:
    """Per-point densities and dependencies, plus the induced clusters.

    Indices into the input point list stand in for cell ids; outlier
    points carry no dependency.
    """

    rho: tuple[int, ...]
    delta: tuple[float, ...]
    dep: tuple[Optional[int], ...]
    outliers: tuple[int, ...]
    clusters: tuple[Cluster, ...]


def batch_dp(points: Sequence[Sequence[float]], params: BatchParams
             ) -> BatchResult:
    """Classic density-peaks over a finite point set.

    A point's density is the count of points strictly within ``d_c``
    (itself included).  Points with density at most ``xi`` are outliers
    and take no part in dependencies.  Among the rest, each point
    depends on its nearest strictly-denser neighbor, equal densities
    broken toward the lower index, and clusters are the dependency
    subtrees left after cutting links longer than ``tau``.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if n == 0:
        raise ValueError("empty point set")
    if pts.ndim != 2:
        raise ValueError("points must share one dimensionality")
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=-1))
    rho = (dist < params.d_c).sum(axis=1)

    order = sorted(range(n), key=lambda i: (-rho[i], i))
    core = [i for i in order if rho[i] > params.xi]
    outliers = tuple(sorted(i for i in range(n) if rho[i] <= params.xi))

    delta = [math.inf] * n
    dep: list[Optional[int]] = [None] * n
    for pos, i in enumerate(core):
        best, best_j = math.inf, None
        for j in core[:pos]:
            d = dist[i, j]
            if d < best or (d == best and (best_j is None or j < best_j)):
                best, best_j = d, j
        delta[i], dep[i] = best, best_j

    root: dict[int, int] = {}
    for i in core:
        j = dep[i]
        root[i] = i if (j is None or delta[i] > params.tau) else root[j]
    groups: dict[int, list[int]] = {}
    for i in core:
        groups.setdefault(root[i], []).append(i)
    clusters = tuple(Cluster(r, tuple(sorted(ms)))
                     for r, ms in sorted(groups.items()))
    return BatchResult(tuple(int(x) for x in rho), tuple(delta), tuple(dep),
                       outliers, clusters)


def recompute_all(space: CellSpace, t: float
                  ) -> dict[int, tuple[Optional[int], float]]:
    """Dependencies of every active cell, rebuilt from nothing.

    Quadratic in the number of active cells: sort by density read at
    ``t`` (equal densities break toward the lower id), then take each
    cell's nearest predecessor.  The result has the same shape as the
    incremental tree's ``forest_state`` so the two can be compared for
    exact equality.
    """
    active = sorted(space.active_ids(),
                    key=lambda cid: (-space.cell_density_at(cid, t), cid))
    out: dict[int, tuple[Optional[int], float]] = {}
    for pos, cid in enumerate(active):
        seed = space.cell(cid).seed
        best, best_j = math.inf, None
        for j in active[:pos]:
            d = seed_distance(seed, space.cell(j).seed)
            if d < best or (d == best and (best_j is None or j < best_j)):
                best, best_j = d, j
        out[cid] = (best_j, best)
    return out


@dataclass(frozen=True)
class LabeledAssignment:
    """One labeled point and the cell that absorbed it."""

    cell_id: int
    label: Hashable
    t: float


def weighted_purity(snapshot: ClusterSnapshot,
                    assignments: Iterable[LabeledAssignment],
                    params: DecayParams, t: float) -> float:
    """Freshness-weighted purity of a clustering against point labels.

    Each labeled point contributes its freshness at ``t`` to the cluster
    its cell belongs to; points whose cells are outliers or already
    recycled contribute nothing.  Purity is the dominant-label share of
    each cluster, averaged by weight.
    """
    membership = snapshot.membership()
    weight: dict[tuple[int, Hashable], float] = {}
    total = 0.0
    for a in assignments:
        cluster = membership.get(a.cell_id)
        if cluster is None:
            continue
        w = freshness(params, a.t, t)
        weight[cluster, a.label] = weight.get((cluster, a.label), 0.0) + w
        total += w
    if total <= 0.0:
        raise MissingLabels("no labeled point falls inside any cluster")
    dominant: dict[int, float] = {}
    for (cluster, _), w in weight.items():
        dominant[cluster] = max(dominant.get(cluster, 0.0), w)
    return sum(dominant.values()) / total
