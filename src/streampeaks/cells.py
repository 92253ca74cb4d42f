"""Cluster-cell store: point assignment, lazy densities, seed search.

Each arriving point is absorbed by the cell whose seed is nearest,
provided that seed lies within the assignment radius r; otherwise the
point founds a new inactive cell seeded at its own coordinates.  Cell
densities are stored as (value, timestamp) pairs and decayed on read,
so the store does no per-tick maintenance work.  Every live seed also
sits in one dense matrix, so a seed search is one vectorized pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

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


def seed_distance(a: Coords, b: Coords) -> float:
    """Euclidean distance between two coordinate tuples.

    Written once and used by every scalar code path (relinking, scratch
    rebuilds in tests) so that repeated evaluation of the same pair is
    bit-identical.  ``CellSpace.nearest_seed`` repeats its order of
    operations over whole seed columns and so returns the same bits.
    """
    s = 0.0
    for x, y in zip(a, b):
        d = x - y
        s += d * d
    return math.sqrt(s)


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


@dataclass(frozen=True)
class AssignResult:
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
    live, ``row_of`` maps a cell id to its row, and removing a cell
    moves the last row into the freed one.
    """

    def __init__(self, params: DecayParams, r: float, dim: int):
        if r <= 0.0:
            raise ValueError("assignment radius r must be positive")
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

    def _scan(self, coords: Coords) -> Optional[tuple[int, float]]:
        """Nearest seed by one pass over the seed matrix; fills
        ``last_scan``.

        Squares are summed dimension by dimension, in ``seed_distance``'s
        order, so every distance carries the same bits as the scalar
        function (seed minus point is the exact negation of point minus
        seed, so the squares agree).  Never reduce with ``sum(axis=)``,
        ``einsum`` or ``norm``: their summation order differs.  Exact
        ties go to the smallest id.
        """
        n = len(self.cells)
        if n == 0:
            self.last_scan = np.empty(0)
            return None
        diff = self._seeds[:, :n] - np.array(coords)[:, None]
        diff *= diff
        scan = diff[0]
        for j in range(1, self.dim):
            scan += diff[j]
        np.sqrt(scan, out=scan)
        self.last_scan = scan
        best = scan[scan.argmin()]
        rows = (scan == best).nonzero()[0]
        cid = self._ids[rows].min() if len(rows) > 1 else self._ids[rows[0]]
        return int(cid), float(best)

    def nearest_seed(self, p: StreamPoint) -> Optional[tuple[int, float]]:
        """Nearest seed over ALL cells, active and inactive."""
        self._check_coords(p.coords)
        return self._scan(p.coords)

    def assign_point(self, p: StreamPoint) -> AssignResult:
        """Absorb p into the nearest cell within r, or found a new cell.

        Input is validated before any state changes, so a rejected point
        leaves the store exactly as it was.
        """
        coords = p.coords
        self._check_coords(coords)
        t = float(p.t)
        if not math.isfinite(t):
            raise NonFiniteInput(f"point has a non-finite timestamp: {t}")
        if t < self.last_t:
            raise OutOfOrderTimestamp(
                f"point at t={t} after watermark t={self.last_t}")
        ordinal = self.points_seen
        self.points_seen += 1
        self.last_t = t
        found = self._scan(coords)
        if found is not None and found[1] <= self.r:
            cid, dist = found
            cell = self.cells[cid]
            cell.rho_last = absorb(self.params, cell.rho_last, cell.t_last, t)
            cell.t_last = t
            return AssignResult(cid, dist, created=False, t=t)
        cell = ClusterCell(id=ordinal, seed=coords, rho_last=1.0, t_last=t)
        self._add_row(cell)
        return AssignResult(cell.id, found[1] if found is not None else math.inf,
                            created=True, t=t)

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

    def remove_cell(self, cell_id: int) -> ClusterCell:
        """Forget a recycled cell entirely; its seed leaves the search set."""
        cell = self.cell(cell_id)
        del self.cells[cell_id]
        row = self.row_of.pop(cell_id)
        last = len(self.cells)
        if row != last:
            moved = int(self._ids[last])
            self._seeds[:, row] = self._seeds[:, last]
            self._ids[row] = moved
            self.row_of[moved] = row
        return cell
