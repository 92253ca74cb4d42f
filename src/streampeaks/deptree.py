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
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator, Optional

from streampeaks.cells import CellSpace, seed_distance
from streampeaks.decay import density_order_key
from streampeaks.errors import CellStateError

FILTER_MODES = ("off", "density", "both")


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


class PointDistances:
    """Distances from the arriving point to every live seed, read from
    the store's last seed search without copying it: the point lies
    ``scan[row_of[cell_id]]`` from that cell's seed.

    Valid until the store next adds or removes a cell, which the engine
    never does between an absorption and its dependency updates.
    """

    def __init__(self, space: CellSpace):
        self.scan = space.last_scan
        self.row_of = space.row_of


class DPTree:
    """Single-rooted dependency forest over the active cells.

    ``_order`` holds (-key, id) pairs sorted ascending, densest first,
    so the cells a density jump overtook sit in one contiguous slice.

    ``seed_dists`` caches the seed distance of every pair of tree cells
    that dependency maintenance has examined, stored both ways round
    (``seed_dists[a][b] == seed_dists[b][a]``).  Seeds never move and
    cell ids are never reused, so an entry stays exact while both cells
    are in the tree; ``remove_subtree`` drops a removed cell's entries
    on both sides, so the cache holds at most |tree|·(|tree|−1) entries.

    ``seed_distance_evals`` counts the seed pairs dependency maintenance
    examines, cache hits included, so it does not depend on the cache;
    the update filters exist to shrink it.
    """

    def __init__(self, space: CellSpace, *, filters: str = "both"):
        if filters not in FILTER_MODES:
            raise ValueError(f"unknown filter mode {filters!r}")
        self.space = space
        self.filters = filters
        self.parent: dict[int, Optional[int]] = {}
        self.delta: dict[int, float] = {}
        self.key: dict[int, float] = {}
        self.seed_dists: dict[int, dict[int, float]] = {}
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

    def sparsest_first(self) -> Iterator[tuple[float, int]]:
        """(order key, id) of every tree cell, sparsest first.  Read it
        to the end or drop it before changing the tree."""
        return ((-neg_key, c) for neg_key, c in reversed(self._order))

    def forest_state(self) -> dict[int, tuple[Optional[int], float]]:
        """Immutable view used for exact equality comparisons."""
        return {c: (self.parent[c], self.delta[c]) for c in self.parent}

    def _rank(self, cell_id: int) -> tuple[float, int]:
        return (-self.key[cell_id], cell_id)

    def _fresh_key(self, cell_id: int) -> float:
        cell = self.space.cell(cell_id)
        return density_order_key(self.space.params, cell.rho_last, cell.t_last)

    def compute_dependency(self, c: int) -> tuple[Optional[int], float]:
        """Nearest strictly-denser active cell and its seed distance.

        Full scan of the denser set: the from-scratch reference that
        incremental updates must agree with.  The density order is
        decay-invariant, so the answer does not depend on when it is
        asked.
        """
        if c not in self.key:
            raise CellStateError(f"cell {c} is not in the tree")
        prefix = self._order[:bisect_left(self._order, self._rank(c))]
        self.seed_distance_evals += len(prefix)
        cells, dists = self.space.cells, self.seed_dists
        row = dists[c]
        cached = row.get
        seed_c = cells[c].seed
        best, best_id = math.inf, None
        for _, e in prefix:
            d = cached(e)
            if d is None:
                d = row[e] = dists[e][c] = seed_distance(seed_c, cells[e].seed)
            if d < best:
                best, best_id = d, e
            elif d == best and (best_id is None or e < best_id):
                best_id = e
        return best_id, best

    def insert_active(self, c: int,
                      point_dists: Optional[PointDistances] = None) -> None:
        """Add a newly activated cell; relink cells it now dominates."""
        cell = self.space.cell(c)
        if not cell.active:
            raise CellStateError(f"cell {c} is not active")
        if c in self.parent:
            raise CellStateError(f"cell {c} is already in the tree")
        self.key[c] = self._fresh_key(c)
        pos = bisect_left(self._order, self._rank(c))
        # The new cell's row starts empty, so fill it, both ways round,
        # from one kernel call over its denser prefix.
        denser = [e for _, e in self._order[:pos]]
        dists = self.seed_dists
        row = dists[c] = dict(zip(denser, self.space.seed_distances(c, denser)))
        for e, d in row.items():
            dists[e][c] = d
        self._rise(c, len(self._order), point_dists)

    def on_density_increase(self, c: int,
                            point_dists: Optional[PointDistances] = None) -> int:
        """Re-establish the forest after cell c absorbed a point; returns
        how many cells changed link."""
        if c not in self.key:
            raise CellStateError(f"cell {c} is not in the tree")
        pos_old = bisect_left(self._order, self._rank(c))
        del self._order[pos_old]
        self.key[c] = self._fresh_key(c)
        return self._rise(c, pos_old, point_dists)

    def _rise(self, c: int, pos_old: int,
              point_dists: Optional[PointDistances]) -> int:
        """Put c, out of ``_order`` with its key just raised, back in rank
        order, and return how many cells changed link.  ``pos_old`` is
        where c ranked before the rise: ``len(_order)`` for a cell new to
        the tree, which so overtakes every cell ranked below it.

        Only cells whose density order against c flipped (the band c
        overtook) can need a new link; with filters off every cell now
        ranked below c is checked instead, as the maximal-work baseline.
        The links and cache pairs ``_relink_to`` touches all lie below
        c, and c's own dependency reads only pairs above it, so the two
        can run in either order.
        """
        rank = self._rank(c)
        pos = bisect_left(self._order, rank)
        band = [e for _, e in self._order[pos:pos_old]]
        self._order.insert(pos, rank)
        if self.filters == "off":
            candidates = [e for _, e in self._order[pos + 1:]]
        else:
            candidates = band
            self.filter_skips += len(self._order) - pos - 1 - len(band)
        relinks = self._relink_to(c, candidates, point_dists)

        # A new cell has no link yet.  Otherwise c's denser set shrank by
        # exactly the band, so its link can only be stale if the old
        # dependency is in that band.
        if c not in self.parent:
            self.parent[c], self.delta[c] = self.compute_dependency(c)
        elif self.filters == "off" or self.parent[c] in band:
            link = self.compute_dependency(c)
            if link != (self.parent[c], self.delta[c]):
                self.parent[c], self.delta[c] = link
                relinks += 1
        return relinks

    def _relink_to(self, c: int, candidates: list[int],
                   point_dists: Optional[PointDistances]) -> int:
        """Link to c every candidate whose seed lies nearer to c than to
        its current dependency (equal distance goes to the smaller id);
        returns how many were relinked.

        With both filters on, the triangle filter rules candidates out
        from the absorbed point's distances before any seed distance is
        examined: the seeds of e and c lie at least |d(p,e) − d(p,c)|
        apart, so a gap wider than delta[e] proves e keeps its link.
        """
        if not candidates:
            return 0
        use_triangle = self.filters == "both" and point_dists is not None
        if use_triangle:
            # A memoryview reads the scan as Python floats, bit for bit,
            # without making a numpy scalar per candidate.
            scan, row_of = memoryview(point_dists.scan), point_dists.row_of
            dist_p_c = scan[row_of[c]]
        cells, dists = self.space.cells, self.seed_dists
        parent, delta = self.parent, self.delta
        row = dists[c]
        cached = row.get
        seed_c = cells[c].seed
        inf = math.inf
        relinks = skips = 0
        for e in candidates:
            de = delta[e]
            if (use_triangle and de < inf
                    and abs(scan[row_of[e]] - dist_p_c) > de):
                skips += 1
                continue
            d = cached(e)
            if d is None:
                d = row[e] = dists[e][c] = seed_distance(seed_c, cells[e].seed)
            if d < de or (d == de and parent[e] is not None and c < parent[e]):
                parent[e], delta[e] = c, d
                relinks += 1
        self.filter_skips += skips
        self.seed_distance_evals += len(candidates) - skips
        return relinks

    def remove_subtree(self, c: int) -> list[int]:
        """Detach c and every descendant and return their ids, sorted;
        remaining links are untouched, and the removed cells' cached
        seed distances are dropped on both sides.

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
        dists = self.seed_dists
        for x in removed:
            del self.parent[x], self.delta[x], self.key[x]
            for e in dists.pop(x).keys() - removed:
                del dists[e][x]
        return sorted(removed)

    def extract_clusters(self, tau: float, t: float,
                         outliers: tuple[int, ...] = ()) -> ClusterSnapshot:
        """Cut every link with delta > tau; each component is a cluster.

        One walk in rank order settles every root: a cell ranks below
        its dependency, so the dependency's root is already known.
        """
        if tau <= 0.0:
            raise ValueError("tau must be positive")
        parent, delta = self.parent, self.delta
        root_of: dict[int, int] = {}
        for _, c in self._order:
            p = parent[c]
            root_of[c] = c if p is None or delta[c] > tau else root_of[p]
        by_root: dict[int, list[int]] = {}
        for c, r in root_of.items():
            by_root.setdefault(r, []).append(c)
        clusters = tuple(Cluster(root=r, members=tuple(sorted(ms)))
                         for r, ms in sorted(by_root.items()))
        return ClusterSnapshot(time=t, tau=tau, clusters=clusters,
                               outlier_cells=tuple(sorted(outliers)))
