"""Cluster-cell store: point assignment, lazy densities, seed search.

Each arriving point is absorbed by the cell whose seed is nearest,
provided that seed lies within the assignment radius r; otherwise the
point founds a new inactive cell seeded at its own coordinates.  Cell
densities are stored as (value, timestamp) pairs and decayed on read,
so the store does no per-tick maintenance work.  Every live seed also
sits in one dense matrix, so a seed search is one vectorized pass, and
a buffered run of points is searched in blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from streampeaks.decay import DecayParams, absorb, decay_density
from streampeaks.errors import (
    DimensionMismatch,
    NonFiniteInput,
    OutOfOrderTimestamp,
    UnknownCell,
)

Coords = tuple[float, ...]

_INITIAL_CAPACITY = 16

# A block of B points against n seeds: its two kernel temporaries, (dim,
# B, n) against the store and at most (dim, B, B) within the block, hold
# at most _BLOCK_FLOATS float64s together (256 KB); at 512 KB, hds peak
# RSS read 2.6% above the per-point search, at 256 KB 1%.  Past
# _BLOCK_POINTS points, the pairwise part and the in-block founder scan
# cost more than the per-block overhead a larger block saves.
_BLOCK_FLOATS = 1 << 15
_BLOCK_POINTS = 64


def seed_distance(a: Coords, b: Coords) -> float:
    """Euclidean distance between two coordinate tuples.

    Written once and used by every scalar code path (relinking, scratch
    rebuilds in tests) so that repeated evaluation of the same pair is
    bit-identical.  ``block_distances`` repeats its order of operations
    over whole arrays and so returns the same bits.
    """
    s = 0.0
    for x, y in zip(a, b):
        d = x - y
        s += d * d
    return math.sqrt(s)


def block_distances(points: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """Distances between points and seeds, each entry with the bits of
    ``seed_distance`` of its pair.

    Both arrays hold coordinates down their first axis and broadcast
    over the rest: a ``(dim, B, 1)`` block of points against ``(dim, 1,
    n)`` seeds gives a ``(B, n)`` array, and one ``(dim, 1)`` point
    against ``(dim, n)`` seeds gives ``(n,)``.  The squares are summed
    dimension by dimension, in ``seed_distance``'s order (seed minus
    point is the exact negation of point minus seed, so the squares
    agree).  The temporary holds ``dim`` times the result's floats.
    """
    sq = seeds - points
    sq *= sq
    out = sq[0]
    for j in range(1, len(sq)):
        out += sq[j]
    return np.sqrt(out, out=out)


@dataclass(frozen=True)
class StreamPoint:
    coords: Coords
    t: float
    label: Optional[str] = None

    @classmethod
    def of(cls, coords: Iterable[float], t: float,
           label: Optional[str] = None) -> "StreamPoint":
        return cls(tuple(float(x) for x in coords), float(t), label)


@dataclass
class ClusterCell:
    """One decaying summary cell.

    ``active`` marks membership of the dependency forest; the forest
    itself (``DPTree``) holds each active cell's dependency and its
    dependent distance.
    """

    id: int
    seed: Coords
    rho_last: float
    t_last: float
    active: bool = False


class AssignResult(NamedTuple):
    """Outcome of one point assignment.

    ``created`` False means the point was absorbed by cell ``cell_id``
    (then ``distance`` <= r); True means the point founded that cell.
    """

    cell_id: int
    distance: float
    created: bool
    t: float


class CellSpace:
    """All live cluster-cells, active tree members and reservoir outliers.

    Single-mutator: only the engine's ingest loop writes.  New cells get
    id = ordinal of the founding point, which keeps ids stable across
    runs that differ only in recycling behaviour.

    Seeds are also kept column-major in ``_seeds`` (shape ``(dim,
    capacity)``) with the owning ids in ``_ids``: rows ``[0, len)`` are
    live, ``row_of`` maps a cell id to its row.  Rows stay in id order:
    a new cell's id is its ordinal, larger than every live id, and it
    takes the next row; ``remove_cells`` closes the gaps it leaves
    without reordering the rows behind them.

    Every seed search goes through one kernel, ``block_distances``:
    ``assign_point`` scans with a block of one point, ``assign_points``
    with blocks of many, and ``seed_distances`` serves the dependency
    forest.  The kernel sums squares dimension by dimension, so each
    distance has the bits of ``seed_distance``.
    Never reduce with ``sum(axis=)``, ``einsum``, ``norm`` or
    ``np.add.reduce``: their summation order differs.

    Exact ties go to the smallest id.  Since the rows are in id order,
    the first minimum ``argmin`` finds is that id.  In a block, a cell
    founded inside the block has a larger id than every seed live
    before it, so an earlier seed wins an exact tie, and a running
    in-block best that moves only on a strictly smaller distance keeps
    the older founder.
    """

    def __init__(self, params: DecayParams, r: float, dim: int):
        if not 0.0 < r < math.inf:
            raise ValueError(
                f"assignment radius r must be positive and finite, got {r}")
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        self.params = params
        self.r = float(r)
        self.dim = int(dim)
        self.cells: dict[int, ClusterCell] = {}
        self.last_t = -math.inf
        self.points_seen = 0
        self.row_of: dict[int, int] = {}
        self._seeds = np.empty((self.dim, _INITIAL_CAPACITY))
        self._ids = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        # Distances from the most recent seed search to every seed then
        # live, indexed by row; the dependency-update triangle filter
        # reads them through ``row_of``.
        self.last_scan = np.empty(0)

    def __len__(self) -> int:
        return len(self.cells)

    def __contains__(self, cell_id: int) -> bool:
        return cell_id in self.cells

    def cell(self, cell_id: int) -> ClusterCell:
        try:
            return self.cells[cell_id]
        except KeyError:
            raise UnknownCell(cell_id) from None

    def active_ids(self) -> list[int]:
        return [cid for cid, c in self.cells.items() if c.active]

    def inactive_ids(self) -> list[int]:
        return [cid for cid, c in self.cells.items() if not c.active]

    def _check_coords(self, coords: Coords) -> None:
        if len(coords) != self.dim:
            raise DimensionMismatch(
                f"point has dimension {len(coords)}, stream declared {self.dim}")
        if not all(map(math.isfinite, coords)):
            raise NonFiniteInput(f"point has a non-finite coordinate: {coords}")

    def _check_point(self, p: StreamPoint, watermark: float) -> float:
        """Validate p against the time watermark; returns its timestamp."""
        self._check_coords(p.coords)
        t = float(p.t)
        if not math.isfinite(t):
            raise NonFiniteInput(f"point has a non-finite timestamp: {t}")
        if t < watermark:
            raise OutOfOrderTimestamp(
                f"point at t={t} after watermark t={watermark}")
        return t

    def _scan(self, coords: Coords) -> Optional[tuple[int, float]]:
        """Nearest seed by one kernel pass over the seed matrix; fills
        ``last_scan``."""
        n = len(self.cells)
        if n == 0:
            self.last_scan = np.empty(0)
            return None
        scan = block_distances(np.array(coords)[:, None], self._seeds[:, :n])
        self.last_scan = scan
        row = scan.argmin()
        return int(self._ids[row]), float(scan[row])

    def assign_point(self, p: StreamPoint) -> AssignResult:
        """Absorb p into the nearest cell within r, or found a new cell.

        Input is validated before any state changes, so a rejected point
        leaves the store exactly as it was.
        """
        t = self._check_point(p, self.last_t)
        return self._settle(p.coords, t, self._scan(p.coords))

    def assign_points(self, points: Sequence[StreamPoint]) -> list[AssignResult]:
        """``[assign_point(p) for p in points]``, with the same results,
        cells, rows and ``last_scan``, searched in blocks.

        Every point is validated first, so a rejected run leaves the
        store exactly as it was.  Each block makes one kernel call
        against the seeds live before it and one against its own points
        that may found a cell, sized from the store's size and the
        dimension so the two temporaries together stay within
        ``_BLOCK_FLOATS``; then its points are settled in order.
        """
        watermark = self.last_t
        for p in points:
            watermark = self._check_point(p, watermark)
        results: list[AssignResult] = []
        start = 0
        while start < len(points):
            block = points[start:start + self._block_size(len(self.cells))]
            start += len(block)
            results += self._assign_block(block)
        return results

    def _block_size(self, n: int) -> int:
        """Largest B <= ``_BLOCK_POINTS`` with dim·B·(n + B) <=
        ``_BLOCK_FLOATS``, and at least 1."""
        cap = _BLOCK_FLOATS // self.dim
        fit = (math.isqrt(n * n + 4 * cap) - n) // 2
        return max(1, min(_BLOCK_POINTS, fit))

    def _assign_block(self, block: Sequence[StreamPoint]) -> list[AssignResult]:
        n = len(self.cells)
        coords = np.array([p.coords for p in block], dtype=float).T
        before = block_distances(coords[:, :, None], self._seeds[:, None, :n])
        if n:
            # The nearest earlier seed of every point; the first minimum
            # is the smallest id among exact ties.
            arg = before.argmin(axis=1)
            best = before[np.arange(len(block)), arg].tolist()
            ids = self._ids[arg].tolist()
        else:
            ids, best = [None] * len(block), [math.inf] * len(block)
        # Only a point with no earlier seed within r can found a cell, so
        # only those points are needed as seeds within the block.
        maybe = [i for i, d in enumerate(best) if d > self.r]
        column = {i: k for k, i in enumerate(maybe)}
        within = block_distances(coords[:, :, None], coords[:, None, maybe])
        pair = memoryview(within)
        founders: list[tuple[int, int]] = []  # (column of within, cell id)
        results = []
        for i, p in enumerate(block):
            cid, dist = ids[i], best[i]
            for k, fid in founders:
                d = pair[i, k]
                if d < dist:
                    cid, dist = fid, d
            res = self._settle(p.coords, float(p.t),
                               None if cid is None else (cid, dist))
            if res.created:
                founders.append((column[i], res.cell_id))
            results.append(res)
        # The last point's scan saw every founder but its own cell.
        cols = [k for k, _ in founders[:len(founders) - res.created]]
        self.last_scan = np.concatenate((before[-1], within[-1, cols]))
        return results

    def _settle(self, coords: Coords, t: float,
                found: Optional[tuple[int, float]]) -> AssignResult:
        """Absorb the validated point into the cell of ``found``, its
        nearest seed and that seed's distance, when that lies within r;
        else found a new cell."""
        ordinal = self.points_seen
        self.points_seen += 1
        self.last_t = t
        if found is not None and found[1] <= self.r:
            cid, dist = found
            cell = self.cells[cid]
            cell.rho_last = absorb(self.params, cell.rho_last, cell.t_last, t)
            cell.t_last = t
            return AssignResult(cid, dist, False, t)
        cell = ClusterCell(id=ordinal, seed=coords, rho_last=1.0, t_last=t)
        self._add_row(cell)
        return AssignResult(cell.id, found[1] if found is not None else math.inf,
                            True, t)

    def seed_distances(self, cell_id: int, others: list[int]) -> list[float]:
        """Seed distances from one cell to each cell of ``others``, in
        order, from one kernel call."""
        if not others:
            return []
        row_of = self.row_of
        row = row_of[cell_id]
        rows = [row_of[e] for e in others]
        return block_distances(self._seeds[:, row:row + 1],
                               self._seeds[:, rows]).tolist()

    def _add_row(self, cell: ClusterCell) -> None:
        row = len(self.cells)
        if row == len(self._ids):
            seeds = np.empty((self.dim, 2 * row))
            seeds[:, :row] = self._seeds
            self._seeds = seeds
            self._ids = np.concatenate((self._ids, np.empty_like(self._ids)))
        self._seeds[:, row] = cell.seed
        self._ids[row] = cell.id
        self.row_of[cell.id] = row
        self.cells[cell.id] = cell

    def cell_density_at(self, cell_id: int, t: float) -> float:
        cell = self.cell(cell_id)
        return decay_density(self.params, cell.rho_last, cell.t_last, t)

    def remove_cells(self, cell_ids: Sequence[int]) -> None:
        """Forget recycled cells, given by distinct ids, entirely; their
        seeds leave the search set.

        Every id is checked before anything changes.  The live rows
        between and behind the removed ones close up in order, one
        slice copy per run of kept rows, so the rows stay in id order.
        """
        cells, row_of = self.cells, self.row_of
        for cid in cell_ids:
            if cid not in cells:
                raise UnknownCell(cid)
        if not cell_ids:
            return
        n = len(cells)
        rows = sorted([row_of.pop(cid) for cid in cell_ids])
        for cid in cell_ids:
            del cells[cid]
        first = end = rows[0]
        rows.append(n)
        seeds, ids = self._seeds, self._ids
        for i in range(len(rows) - 1):
            lo, hi = rows[i] + 1, rows[i + 1]
            if lo < hi:
                seeds[:, end:end + hi - lo] = seeds[:, lo:hi]
                ids[end:end + hi - lo] = ids[lo:hi]
                end += hi - lo
        if end > first:
            row_of.update(zip(ids[first:end].tolist(), range(first, end)))
