"""Dependency forest over active cells and cluster extraction.

Each active cell depends on its nearest strictly-denser active cell,
with density ties broken by smaller id.  Cutting every dependency link
longer than the threshold tau leaves one subtree per cluster; the root
of each subtree is the cluster's center and id.

Because all densities decay at the same rate, the density ORDER of two
cells never changes between updates.  Order comparisons therefore use a
time-invariant key (see ``density_order_key``), which guarantees that a
linking decision made at absorption time and a from-scratch rebuild
made later see exactly the same ordering.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import NamedTuple, Optional

from streampeaks.cells import CellSpace, Coords, seed_distance
from streampeaks.decay import density_order_key
from streampeaks.errors import CellStateError

FILTER_MODES = ("off", "density", "both")


def density_filter_skips(rho_c_before: float, rho_c_after: float,
                         rho_cp_before: float, rho_cp_after: float) -> bool:
    """True when cell c cannot need a dependency update after c' absorbed
    a point: either c' was already denser than c, or c is still at least
    as dense as c'.  Only cells whose density order against c' flipped
    can possibly relink.
    """
    return rho_c_before < rho_cp_before or rho_c_after >= rho_cp_after


def triangle_filter_skips(dist_p_c: float, dist_p_cp: float, delta_c: float) -> bool:
    """True when the absorbed point's distances to both seeds already
    prove the seeds lie further apart than c's current dependent
    distance, so the exact seed distance never needs computing.
    """
    return abs(dist_p_c - dist_p_cp) > delta_c


class Relink(NamedTuple):
    cell: int
    old_dep: Optional[int]
    new_dep: Optional[int]
    old_delta: float
    new_delta: float


@dataclass(frozen=True)
class Cluster:
    """One cluster: the root cell is the center and the cluster id."""

    root: int
    members: tuple[int, ...]


@dataclass(frozen=True)
class ClusterSnapshot:
    time: float
    tau: float
    clusters: tuple[Cluster, ...]
    outlier_cells: tuple[int, ...]

    def cluster_ids(self) -> tuple[int, ...]:
        return tuple(c.root for c in self.clusters)

    def membership(self) -> dict[int, int]:
        """cell id -> cluster (root) id."""
        out: dict[int, int] = {}
        for c in self.clusters:
            for m in c.members:
                out[m] = c.root
        return out

    def same_clustering(self, other: "ClusterSnapshot") -> bool:
        """Equality on everything except the outlier list."""
        return (self.time == other.time and self.tau == other.tau
                and self.clusters == other.clusters)


class PointDistances:
    """Distances from the arriving point to every live seed, read from
    the store's last seed search without copying it.

    Valid until the store next adds or removes a cell, which the engine
    never does between an absorption and its dependency updates.
    """

    def __init__(self, space: CellSpace):
        self._scan = space.last_scan
        self._row_of = space.row_of

    def get(self, cell_id: int) -> float:
        return float(self._scan[self._row_of[cell_id]])


class DPTree:
    """Single-rooted dependency forest over the active cells.

    ``_order`` holds (-key, id) pairs sorted ascending, densest first,
    so the cells a density jump overtook sit in one contiguous slice.
    ``seed_distance_evals`` counts seed-to-seed distances computed by
    dependency maintenance; the update filters exist to shrink it.
    """

    def __init__(self, space: CellSpace, *, filters: str = "both"):
        if filters not in FILTER_MODES:
            raise ValueError(f"unknown filter mode {filters!r}")
        self.space = space
        self.filters = filters
        self.parent: dict[int, Optional[int]] = {}
        self.delta: dict[int, float] = {}
        self.key: dict[int, float] = {}
        self._order: list[tuple[float, int]] = []
        self.seed_distance_evals = 0
        self.filter_skips = 0

    @classmethod
    def build(cls, space: CellSpace, *, filters: str = "both") -> "DPTree":
        """Forest from scratch over the currently active cells.

        Inserting densest-first means no insertion ever triggers a
        relink, so this is also the reference the incremental updates
        are tested against.
        """
        tree = cls(space, filters=filters)
        params = space.params
        order = sorted(
            space.active_ids(),
            key=lambda cid: (-density_order_key(params, space.cell(cid).rho_last,
                                                space.cell(cid).t_last), cid))
        for cid in order:
            tree.insert_active(cid)
        return tree

    def __contains__(self, cell_id: int) -> bool:
        return cell_id in self.parent

    def __len__(self) -> int:
        return len(self.parent)

    def nodes(self) -> list[int]:
        return list(self.parent)

    def forest_state(self) -> dict[int, tuple[Optional[int], float]]:
        """Immutable view used for exact equality comparisons."""
        return {c: (self.parent[c], self.delta[c]) for c in self.parent}

    def _dist(self, a: Coords, b: Coords) -> float:
        self.seed_distance_evals += 1
        return seed_distance(a, b)

    def _rank(self, cell_id: int) -> tuple[float, int]:
        return (-self.key[cell_id], cell_id)

    def _fresh_key(self, cell_id: int) -> float:
        cell = self.space.cell(cell_id)
        return density_order_key(self.space.params, cell.rho_last, cell.t_last)

    def denser(self, a: int, b: int) -> bool:
        """True when active cell a outranks b (id breaks density ties)."""
        return self._rank(a) < self._rank(b)

    def compute_dependency(self, c: int) -> tuple[Optional[int], float]:
        """Nearest strictly-denser active cell and its seed distance.

        Full scan of the denser set: the from-scratch reference that
        incremental updates must agree with.  The density order is
        decay-invariant, so the answer does not depend on when it is
        asked.
        """
        if c not in self.key:
            raise CellStateError(f"cell {c} is not in the tree")
        prefix_end = bisect_left(self._order, self._rank(c))
        seed_c = self.space.cell(c).seed
        best = math.inf
        best_ids: list[int] = []
        for _, e in self._order[:prefix_end]:
            d = self._dist(seed_c, self.space.cell(e).seed)
            if d < best:
                best, best_ids = d, [e]
            elif d == best:
                best_ids.append(e)
        if not best_ids:
            return None, math.inf
        return min(best_ids), best

    def insert_active(self, c: int,
                      point_dists: Optional[PointDistances] = None) -> list[Relink]:
        """Add a newly activated cell; relink cells it now dominates.

        Returns the relinks of OTHER cells; the new cell's own link is
        readable from the tree directly.
        """
        cell = self.space.cell(c)
        if not cell.active:
            raise CellStateError(f"cell {c} is not active")
        if c in self.parent:
            raise CellStateError(f"cell {c} is already in the tree")
        self.key[c] = self._fresh_key(c)
        rank_c = self._rank(c)
        insort(self._order, rank_c)
        self.parent[c], self.delta[c] = self.compute_dependency(c)

        pos = bisect_left(self._order, rank_c)
        records = self._relink_to(c, [e for _, e in self._order[pos + 1:]],
                                  point_dists)
        records.sort(key=lambda rec: rec.cell)
        return records

    def _relink_to(self, c: int, candidates: list[int],
                   point_dists: Optional[PointDistances]) -> list[Relink]:
        """Link to c every candidate whose seed lies nearer to c than to
        its current dependency (equal distance goes to the smaller id).

        With both filters on, the triangle filter rules candidates out
        from the absorbed point's distances before any exact seed
        distance is computed.
        """
        use_triangle = self.filters == "both" and point_dists is not None
        dist_p_c = point_dists.get(c) if use_triangle else 0.0
        records = []
        seed_c = self.space.cell(c).seed
        for e in candidates:
            de = self.delta[e]
            if (use_triangle and math.isfinite(de)
                    and triangle_filter_skips(point_dists.get(e), dist_p_c, de)):
                self.filter_skips += 1
                continue
            d = self._dist(seed_c, self.space.cell(e).seed)
            pe = self.parent[e]
            if d < de or (d == de and pe is not None and c < pe):
                records.append(Relink(e, pe, c, de, d))
                self.parent[e], self.delta[e] = c, d
        return records

    def on_density_increase(self, c: int,
                            point_dists: Optional[PointDistances] = None) -> list[Relink]:
        """Re-establish the forest after cell c absorbed a point.

        Only cells whose density order against c flipped (the slice c
        overtook in ``_order``) can need a new link; with filters off
        every cell now ranked below c is checked instead, as the
        maximal-work baseline.
        """
        if c not in self.key:
            raise CellStateError(f"cell {c} is not in the tree")
        old_rank = self._rank(c)
        pos_old = bisect_left(self._order, old_rank)
        del self._order[pos_old]
        self.key[c] = self._fresh_key(c)
        new_rank = self._rank(c)
        pos_new = bisect_left(self._order, new_rank)
        band = [e for _, e in self._order[pos_new:pos_old]]
        self._order.insert(pos_new, new_rank)

        if self.filters == "off":
            candidates = [e for _, e in self._order[pos_new + 1:]]
        else:
            candidates = band
            self.filter_skips += len(self._order) - pos_new - 1 - len(band)
        records = self._relink_to(c, candidates, point_dists)

        # c's own denser set shrank by exactly the band; its stored link
        # can only be stale if the old dependency is in that band.
        old_dep = self.parent[c]
        if self.filters == "off" or old_dep in band:
            dep, delta = self.compute_dependency(c)
            if (dep, delta) != (old_dep, self.delta[c]):
                records.append(Relink(c, old_dep, dep, self.delta[c], delta))
                self.parent[c], self.delta[c] = dep, delta
        records.sort(key=lambda rec: rec.cell)
        return records

    def remove_subtree(self, c: int) -> list[int]:
        """Detach c and every descendant and return their ids, sorted;
        remaining links are untouched.

        Sound because any cell depending on a removed cell is that
        cell's child, hence itself inside the removed subtree.  A cell
        ranks below its dependency, so walking the ranks after c meets
        each parent before the cells that depend on it.
        """
        if c not in self.parent:
            raise CellStateError(f"cell {c} is not in the tree")
        pos = bisect_left(self._order, self._rank(c))
        removed = {c}
        kept = []
        for rank in self._order[pos + 1:]:
            if self.parent[rank[1]] in removed:
                removed.add(rank[1])
            else:
                kept.append(rank)
        self._order[pos:] = kept
        for x in removed:
            del self.parent[x], self.delta[x], self.key[x]
        return sorted(removed)

    def extract_clusters(self, tau: float, t: float,
                         outliers: tuple[int, ...] = ()) -> ClusterSnapshot:
        """Cut every link with delta > tau; each component is a cluster."""
        if tau <= 0.0:
            raise ValueError("tau must be positive")
        root_of: dict[int, int] = {}
        for c in self.parent:
            chain: list[int] = []
            x = c
            while x not in root_of:
                p = self.parent[x]
                if p is None or self.delta[x] > tau:
                    root_of[x] = x
                    break
                chain.append(x)
                x = p
            r = root_of[x]
            for y in chain:
                root_of[y] = r
        by_root: dict[int, list[int]] = {}
        for c, r in root_of.items():
            by_root.setdefault(r, []).append(c)
        clusters = tuple(Cluster(root=r, members=tuple(sorted(ms)))
                         for r, ms in sorted(by_root.items()))
        return ClusterSnapshot(time=t, tau=tau, clusters=clusters,
                               outlier_cells=tuple(sorted(outliers)))

    def check_order_index(self) -> bool:
        """Test hook: the sorted rank list matches the key map exactly."""
        expect = sorted((-k, c) for c, k in self.key.items())
        return self._order == expect
