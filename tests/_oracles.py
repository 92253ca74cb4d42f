"""Test oracles and hooks: the batch density-peaks definition, scratch
rebuilds, size bounds and readers for the files the engine only writes.

Everything here trades speed for directness: densities are pairwise
counts, dependencies are nested argmin loops.  The streaming engine is
validated against these, never the other way round.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from streampeaks.cells import CellSpace, seed_distance
from streampeaks.decay import DecayParams, deletion_horizon
from streampeaks.deptree import Cluster, ClusterSnapshot, DPTree
from streampeaks.errors import StreamFormatError
from streampeaks.evolution import EvolutionEvent
from streampeaks.streams import open_text
from streampeaks.tau import ALPHA_GRID, NoConsistentAlpha, UndefinedObjective


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
    """Classic density-peaks over a finite point set (Rodriguez & Laio,
    Science 2014).

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


def reference_objective(alpha: float, tau: float, deltas) -> float:
    """``tau.objective`` as first written: one O(n) pass per call."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly inside (0, 1)")
    ds = [d for d in deltas if math.isfinite(d)]
    intra = [d for d in ds if d <= tau]
    inter = [d for d in ds if d > tau]
    intra_sum = sum(intra)
    if not inter or not intra or intra_sum <= 0.0:
        raise UndefinedObjective(
            f"tau={tau} leaves {len(inter)} inter / {len(intra)} intra links")
    mean = sum(ds) / len(ds)
    return (alpha * sum(inter) / (len(inter) * mean)
            + (1.0 - alpha) * (len(intra) * mean) / intra_sum)


def reference_learn_alpha(deltas, tau0: float) -> float:
    """``tau.learn_alpha`` as first written: ``reference_objective`` for
    tau0 and for every rival partition at each grid alpha, O(99·k·n)."""
    ds = [d for d in deltas if math.isfinite(d)]
    intra0 = [d for d in ds if d <= tau0]
    inter0 = [d for d in ds if d > tau0]
    if not intra0 or not inter0:
        raise UndefinedObjective(
            f"initial tau={tau0} does not induce a valid partition")
    part0 = len(intra0)
    rivals = [tau for tau in sorted(set(ds))[:-1]
              if len([d for d in ds if d <= tau]) != part0]
    if not rivals:
        raise NoConsistentAlpha(
            "only one candidate partition exists; nothing to learn from")
    feasible = [alpha for alpha in ALPHA_GRID
                if all(reference_objective(alpha, tau0, ds)
                       < reference_objective(alpha, tau, ds)
                       for tau in rivals)]
    if not feasible:
        raise NoConsistentAlpha(
            f"no grid alpha makes tau={tau0} optimal for these distances")
    return feasible[(len(feasible) - 1) // 2]


def density_filter_skips(rho_c_before: float, rho_c_after: float,
                         rho_cp_before: float, rho_cp_after: float) -> bool:
    """True when cell c cannot need a dependency update after c' absorbed
    a point: either c' was already denser than c, or c is still at least
    as dense as c'.  Only cells whose density order against c' flipped
    can possibly relink; the engine's band slice is this rule.
    """
    return rho_c_before < rho_cp_before or rho_c_after >= rho_cp_after


def triangle_filter_skips(dist_p_c: float, dist_p_cp: float, delta_c: float) -> bool:
    """True when the absorbed point's distances to both seeds already
    prove the seeds lie further apart than c's current dependent
    distance, so the exact seed distance never needs computing.
    ``DPTree._relink_to`` applies this rule inline.
    """
    return abs(dist_p_c - dist_p_cp) > delta_c


def check_order_index(tree: DPTree) -> bool:
    """The tree's sorted rank list matches its key map exactly."""
    expect = sorted((-k, c) for c, k in tree.key.items())
    return tree._order == expect


def denser(tree: DPTree, a: int, b: int) -> bool:
    """True when active cell a outranks b (id breaks density ties)."""
    return (-tree.key[a], a) < (-tree.key[b], b)


def same_clustering(a: ClusterSnapshot, b: ClusterSnapshot) -> bool:
    """Equality on everything except the outlier list."""
    return a.time == b.time and a.tau == b.tau and a.clusters == b.clusters


def count_delta(event: EvolutionEvent) -> int:
    """Change in cluster count the event accounts for."""
    if event.kind == "Split":
        return len(event.new_ids) - 1
    if event.kind == "Merge":
        return -(len(event.old_ids) - 1)
    if event.kind == "Emerge":
        return 1
    if event.kind == "Disappear":
        return -1
    return 0


def capacity_bound(params: DecayParams) -> int:
    """Most cells the reservoir can ever hold: horizon backlog plus the
    activation budget, ``ceil(horizon*v + 1/beta)``."""
    return math.ceil(deletion_horizon(params) * params.v + 1.0 / params.beta)


def active_bound(params: DecayParams) -> int:
    """Most cells that can be active at once, ``ceil(1/beta)``: total
    stream freshness tops out at v/(1-a**lam) and each active cell holds
    at least a beta share of it."""
    return math.ceil(1.0 / params.beta)


_EVENT_FIELDS = ("time", "kind", "old_ids", "new_ids", "adjust_kind", "cause")


def read_events(path: Path) -> list[EvolutionEvent]:
    """Inverse of ``streams.write_events``."""
    events: list[EvolutionEvent] = []
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            rec = json.loads(line)
            if tuple(rec) != _EVENT_FIELDS:
                raise StreamFormatError(
                    f"line {lineno}: event fields {tuple(rec)} != {_EVENT_FIELDS}")
            events.append(EvolutionEvent(
                time=rec["time"], kind=rec["kind"],
                old_ids=tuple(rec["old_ids"]), new_ids=tuple(rec["new_ids"]),
                adjust_kind=rec["adjust_kind"], cause=rec["cause"]))
    return events


def read_eval(path: Path) -> list[tuple[float, str, float]]:
    """Inverse of ``streams.write_eval``."""
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        return [(float(t), m, float(v)) for t, m, v in reader]
