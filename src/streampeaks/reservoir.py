"""Inactive-cell reservoir: activation, deactivation sweeps, recycling.

Cells too sparse for the dependency tree wait here.  Absorptions may
push one over the activation threshold, a decay sweep pulls faded tree
cells back down, and cells untouched beyond the deletion horizon are
recycled outright: by then their residual density is worth less than a
single fresh point, so forgetting them cannot change any later result
by more than one arrival.
"""

from __future__ import annotations

from typing import Optional

from streampeaks.cells import CellSpace
from streampeaks.decay import active_threshold, deletion_horizon
from streampeaks.deptree import DPTree, PointDistances
from streampeaks.errors import CellStateError


class OutlierReservoir:
    """Tracks inactive cells and their last-absorption times.

    Owns the activation/deactivation state transitions between the cell
    store and the dependency tree; single mutator (the engine loop).
    ``last_touch`` is kept in touch order: stream time never goes back,
    and a touch re-inserts its key, so the times read in insertion
    order never decrease.  Callers that put several cells at once put
    them in ``(t, id)`` order.
    """

    def __init__(self, space: CellSpace, tree: DPTree):
        self.space = space
        self.tree = tree
        self.threshold = active_threshold(space.params)
        self.horizon = deletion_horizon(space.params)
        self.last_touch: dict[int, float] = {}

    def __len__(self) -> int:
        return len(self.last_touch)

    def __contains__(self, cell_id: int) -> bool:
        return cell_id in self.last_touch

    def ids(self) -> list[int]:
        return sorted(self.last_touch)

    def put(self, cell_id: int, t: float) -> None:
        """Track an inactive cell; re-putting an existing id is a no-op."""
        if cell_id in self.last_touch:
            return
        if self.space.cell(cell_id).active:
            raise CellStateError(f"cell {cell_id} is active")
        self.last_touch[cell_id] = t

    def try_activate(self, cell_id: int, t: float,
                     point_dists: Optional[PointDistances] = None) -> bool:
        """After an absorption at t: promote the cell into the tree when
        its density reached the activation threshold (inclusive).

        Returns True on activation.  Otherwise the absorption still
        refreshes the cell's recycling clock.
        """
        if cell_id not in self.last_touch:
            raise CellStateError(f"cell {cell_id} is not in the reservoir")
        if self.space.cell_density_at(cell_id, t) >= self.threshold:
            del self.last_touch[cell_id]
            self.space.cell(cell_id).active = True
            self.tree.insert_active(cell_id, point_dists)
            return True
        del self.last_touch[cell_id]
        self.last_touch[cell_id] = t
        return False

    def deactivate_sweep(self, t: float) -> list[list[int]]:
        """Move every active cell that decayed below the threshold, plus
        its whole subtree, back into the reservoir.

        Children are never denser than parents, so the below-threshold
        set is closed under descendants; removing one subtree per
        maximal faded cell covers it exactly.
        """
        below = {c for c in self.tree.nodes()
                 if self.space.cell_density_at(c, t) < self.threshold}
        roots = sorted(c for c in below
                       if self.tree.parent[c] is None or self.tree.parent[c] not in below)
        moved = []
        for r in roots:
            if r not in self.tree:
                continue
            subtree = self.tree.remove_subtree(r)
            for c in subtree:
                self.space.cell(c).active = False
                self.put(c, t)
            moved.append(subtree)
        return moved

    def recycle(self, t: float) -> list[int]:
        """Delete every cell untouched for longer than the horizon.

        The expired cells are a prefix of ``last_touch``: its times
        never decrease in touch order, and float subtraction is
        monotone, so ``t - touched`` never increases along it.  The
        scan stops at the first cell still inside the horizon.
        """
        doomed = []
        for c, touched in self.last_touch.items():
            if t - touched <= self.horizon:
                break
            doomed.append(c)
        doomed.sort()
        for c in doomed:
            del self.last_touch[c]
            self.space.remove_cell(c)
        return doomed
