"""Cluster evolution: snapshot diffing and the append-only event log.

Cluster identity is the root cell id.  Two consecutive snapshots are
joined by lineage edges: a surviving root connects its old cluster to
its new one (in either direction), and a cluster whose root vanished
passes its identity to whichever new cluster took a strict majority of
its members.  Merges are then exactly the new clusters with several
predecessors, splits the old clusters with several successors, emerges
and disappears the unmatched ones.  Membership changes that leave the
cluster count alone become adjust events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from streampeaks.deptree import ClusterSnapshot
from streampeaks.errors import OutOfOrderTimestamp

EVENT_KINDS = ("Merge", "Split", "Emerge", "Disappear", "Adjust")
ADJUST_KINDS = ("MovedBetweenClusters", "OutliersJoined", "BecameOutliers")

CAUSE_MERGE = "link-below-tau"
CAUSE_SPLIT = "link-above-tau"
CAUSE_ACTIVATION = "activation"
CAUSE_DEACTIVATION = "deactivation"
CAUSE_RELINK = "relink"
CAUSE_ROOT_CHANGE = "root-change"


@dataclass(frozen=True)
class EvolutionEvent:
    time: float
    kind: str
    old_ids: tuple[int, ...] = ()
    new_ids: tuple[int, ...] = ()
    adjust_kind: Optional[str] = None
    cause: Optional[str] = None

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}")
        n_old, n_new = len(self.old_ids), len(self.new_ids)
        ok = {
            "Merge": n_old >= 2 and n_new == 1,
            "Split": n_old == 1 and n_new >= 2,
            "Emerge": n_old == 0 and n_new == 1,
            "Disappear": n_old == 1 and n_new == 0,
            "Adjust": self.adjust_kind in ADJUST_KINDS,
        }[self.kind]
        if not ok:
            raise ValueError(f"{self.kind} with {n_old} old / {n_new} new ids")


class EventLog:
    """Append-only, time-ordered event record."""

    def __init__(self):
        self._events: list[EvolutionEvent] = []

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[EvolutionEvent]:
        return iter(self._events)

    def append(self, event: EvolutionEvent) -> None:
        if self._events and event.time < self._events[-1].time:
            raise OutOfOrderTimestamp(
                f"event at t={event.time} after t={self._events[-1].time}")
        self._events.append(event)


def _lineage_edges(prev: ClusterSnapshot, next_: ClusterSnapshot,
                   prev_m: dict[int, int], next_m: dict[int, int]
                   ) -> tuple[set[tuple[int, int]], dict[int, int]]:
    edges: set[tuple[int, int]] = set()
    survivors = set()
    for p in prev.cluster_ids():
        if p in next_m:
            edges.add((p, next_m[p]))
            survivors.add(p)
    # A member promoted to root only continues the old cluster when the
    # old root is still around; a dead root passes identity by majority.
    for n in next_.cluster_ids():
        if n in prev_m and prev_m[n] in survivors:
            edges.add((prev_m[n], n))
    handovers: dict[int, int] = {}
    for cluster in prev.clusters:
        if cluster.root in survivors:
            continue
        members = set(cluster.members)
        # A strict majority can land in at most one new cluster.
        for nc in next_.clusters:
            if 2 * len(members & set(nc.members)) > len(members):
                edges.add((cluster.root, nc.root))
                handovers[cluster.root] = nc.root
                break
    return edges, handovers


def diff_snapshots(prev: ClusterSnapshot, next_: ClusterSnapshot
                   ) -> list[EvolutionEvent]:
    """Evolution events taking prev to next.

    Emitted in replay order: merges and splits, then emerges and
    disappears, then adjusts; deterministic within each group.
    """
    if prev.time > next_.time:
        raise OutOfOrderTimestamp(
            f"snapshots out of order: {prev.time} > {next_.time}")
    if prev.clusters == next_.clusters:
        # Every lineage edge is a self-edge, and no cell moved, joined
        # or left a cluster.
        return []
    t = next_.time
    prev_m = prev.membership()
    next_m = next_.membership()
    edges, handovers = _lineage_edges(prev, next_, prev_m, next_m)
    preds: dict[int, list[int]] = {n: [] for n in next_.cluster_ids()}
    succs: dict[int, list[int]] = {p: [] for p in prev.cluster_ids()}
    for p, n in sorted(edges):
        preds[n].append(p)
        succs[p].append(n)

    merges, splits, emerges, disappears = [], [], [], []
    for n, ps in preds.items():
        if len(ps) >= 2:
            merges.append(EvolutionEvent(t, "Merge", tuple(sorted(ps)), (n,),
                                         cause=CAUSE_MERGE))
        elif not ps:
            emerges.append(EvolutionEvent(t, "Emerge", (), (n,),
                                          cause=CAUSE_ACTIVATION))
    for p, ns in succs.items():
        if len(ns) >= 2:
            splits.append(EvolutionEvent(t, "Split", (p,), tuple(sorted(ns)),
                                         cause=CAUSE_SPLIT))
        elif not ns:
            disappears.append(EvolutionEvent(t, "Disappear", (p,), (),
                                             cause=CAUSE_DEACTIVATION))

    covered = set()
    for e in merges:
        covered.update((p, e.new_ids[0]) for p in e.old_ids)
    for e in splits:
        covered.update((e.old_ids[0], n) for n in e.new_ids)

    emerged = {e.new_ids[0] for e in emerges}
    gone = {e.old_ids[0] for e in disappears}

    adjusts = []
    for p, n in sorted(handovers.items()):
        if (p, n) in covered:
            continue
        adjusts.append(EvolutionEvent(t, "Adjust", (p,), (n,),
                                      adjust_kind="MovedBetweenClusters",
                                      cause=CAUSE_ROOT_CHANGE))
        covered.add((p, n))

    moved_pairs = sorted({(prev_m[c], next_m[c]) for c in prev_m
                          if c in next_m and prev_m[c] != next_m[c]})
    for p, n in moved_pairs:
        # Moves in or out of emerging and disappearing clusters are
        # already told by those events.
        if (p, n) in covered or p in handovers or p in gone or n in emerged:
            continue
        adjusts.append(EvolutionEvent(t, "Adjust", (p,), (n,),
                                      adjust_kind="MovedBetweenClusters",
                                      cause=CAUSE_RELINK))
    joined = {next_m[c] for c in next_m.keys() - prev_m.keys()}
    for n in next_.cluster_ids():
        if n in joined and n not in emerged:
            adjusts.append(EvolutionEvent(t, "Adjust", (), (n,),
                                          adjust_kind="OutliersJoined",
                                          cause=CAUSE_ACTIVATION))
    left = {prev_m[c] for c in prev_m.keys() - next_m.keys()}
    for p in prev.cluster_ids():
        if p in left and p not in gone:
            adjusts.append(EvolutionEvent(t, "Adjust", (p,), (),
                                          adjust_kind="BecameOutliers",
                                          cause=CAUSE_DEACTIVATION))

    return merges + splits + emerges + disappears + adjusts
