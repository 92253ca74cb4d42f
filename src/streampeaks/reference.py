"""Clustering quality against point labels, the score ``eval`` reports.

The batch density-peaks oracles the engine is tested against live with
the tests, in ``tests/_oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable

from streampeaks.decay import DecayParams, freshness
from streampeaks.deptree import ClusterSnapshot
from streampeaks.errors import MissingLabels


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
