"""Adaptive cut-distance control.

The cut distance tau decides which dependency links separate clusters.
A single objective scores any candidate tau against the current
multiset of dependent distances; the user's initial choice pins down
how much they weigh separation against compactness (alpha), and from
then on tau re-selects itself as the distance distribution drifts.

Re-selection screens, then verifies.  One sorted pass over the finite
distances gives every candidate's intra and inter sums, so each
candidate gets a screened score in O(n log n) overall.  Only the
candidates whose screened score is within a relative slack of the best
one are re-scored by the scalar ``objective``, and the reference rule
(strict ``<``, ties to the smaller tau) picks among them.  The chosen
tau is therefore the one an exhaustive scan with ``objective`` picks,
bit for bit; ``select_tau`` states the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, NamedTuple, Optional, Sequence

from streampeaks.errors import StreamClusteringError


class UndefinedObjective(StreamClusteringError):
    """The requested tau leaves one side of the partition empty."""


class NoConsistentAlpha(StreamClusteringError):
    """No grid alpha makes the user's initial tau optimal."""


ALPHA_GRID = tuple(i / 100.0 for i in range(1, 100))


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly inside (0, 1)")


@dataclass
class TauState:
    """Current threshold, learned preference, and the candidate
    distances it was last evaluated against."""

    alpha: float
    tau: float
    candidates: tuple[float, ...] = ()

    def __post_init__(self):
        _check_alpha(self.alpha)
        if self.tau <= 0.0:
            raise ValueError("tau must be positive")


class DecisionGraphPoint(NamedTuple):
    cell_id: int
    rho: float
    delta: float


def _finite(deltas: Iterable[float]) -> list[float]:
    return [d for d in deltas if math.isfinite(d)]


def _split(deltas: Sequence[float], tau: float) -> tuple[list[float], list[float]]:
    intra = [d for d in deltas if d <= tau]
    inter = [d for d in deltas if d > tau]
    return intra, inter


def objective(alpha: float, tau: float, deltas: Iterable[float]) -> float:
    """Score of cutting at tau: alpha weighs the (normalized) average
    separation of cut links, (1-alpha) the reciprocal compactness of
    kept links.  Lower is better.  Both partitions must be non-empty.
    """
    _check_alpha(alpha)
    ds = _finite(deltas)
    intra, inter = _split(ds, tau)
    intra_sum = sum(intra)
    if not inter or not intra or intra_sum <= 0.0:
        raise UndefinedObjective(
            f"tau={tau} leaves {len(inter)} inter / {len(intra)} intra links")
    mean = sum(ds) / len(ds)
    return (alpha * sum(inter) / (len(inter) * mean)
            + (1.0 - alpha) * (len(intra) * mean) / intra_sum)


def candidate_taus(deltas: Iterable[float]) -> list[float]:
    """Distinct finite distances that induce a valid two-sided
    partition: every distinct value except the largest (cutting at the
    maximum leaves no inter link)."""
    distinct = sorted(set(_finite(deltas)))
    return distinct[:-1]


def _cuts(ds: Sequence[float]) -> list[tuple[float, int, float, float]]:
    """Every candidate partition of ds, ascending, from one sorted pass:
    (tau, intra count, intra sum, inter sum).  The sums run in sorted
    order, so their low bits may differ from ``objective``'s."""
    srt = sorted(ds)
    above = list(accumulate(reversed(srt)))[-2::-1]  # sums of srt[i + 1:]
    return [(tau, kept, intra, inter) for kept, (tau, nxt, intra, inter)
            in enumerate(zip(srt, srt[1:], accumulate(srt), above), 1)
            if tau < nxt]


def _screen(alpha: float, ds: Sequence[float],
            cuts: Sequence[tuple[float, int, float, float]]) -> list[float]:
    """The objective of every cut, by ``objective``'s formula over the
    sorted pass's sums."""
    n = len(ds)
    mean = sum(ds) / n
    beta = 1.0 - alpha
    return [alpha * inter / ((n - k) * mean) + beta * (k * mean) / intra
            for _, k, intra, inter in cuts]


def _slack(n: int) -> float:
    """Relative gap between a screened and an ``objective`` score of one
    candidate that the screen tolerates: 1e-9, or twice the bound in
    ``select_tau`` once n passes about 560,000."""
    return max(1e-9, 16.0 * (n + 2) * 2.0 ** -53)


def select_tau(alpha: float, deltas: Iterable[float], *,
               previous: Optional[float] = None) -> float:
    """Candidate tau minimizing the objective, ties toward smaller tau.

    The objective only changes when the partition changes, so scanning
    the distinct distances is exhaustive.  With no valid candidate the
    previous tau is retained (or an error raised if there is none).

    Screen, then verify.  Every candidate is scored from one sorted
    pass, and only those within ``_slack(n)`` of the best screened score
    are re-scored by ``objective``, in the scan's order and with its
    strict ``<``.  The distances are non-negative, so any summation
    order of n of them, and the few operations after it, keep a score
    within gamma(2n+3) ~ (2n+3) * 2**-53 of its exact value: a screened
    and an ``objective`` score of one candidate differ by less than
    4 * gamma(2n+3) relative, and the slack is at least twice that.  So
    the exhaustive scan's winner, and every candidate tied with it,
    survives the screen, and every candidate dropped scores strictly
    worse under ``objective``.  The chosen tau is the exhaustive scan's,
    bit for bit, whether ``sum`` adds in sequence or compensates
    (barring overflow and underflow).
    """
    ds = _finite(deltas)
    cuts = _cuts(ds)
    best_tau, best_F = None, math.inf
    if cuts:
        _check_alpha(alpha)
        # Distances are non-negative, so only the smallest candidate can
        # keep intra links of zero total length; the scan raises there.
        tau, kept, intra_sum, _ = cuts[0]
        if intra_sum <= 0.0:
            raise UndefinedObjective(
                f"tau={tau} keeps {kept} intra links of zero total length")
        scores = _screen(alpha, ds, cuts)
        cutoff = min(scores) * (1.0 + _slack(len(ds)))
        for tau in [cut[0] for cut, s in zip(cuts, scores) if s <= cutoff]:
            F = objective(alpha, tau, ds)
            if F < best_F:
                best_tau, best_F = tau, F
    if best_tau is None:
        if previous is None:
            raise UndefinedObjective("no candidate tau induces a valid partition")
        return previous
    return best_tau


def learn_alpha(deltas: Iterable[float], tau0: float) -> float:
    """Alpha under which the user's initial tau beats every other
    candidate partition, taken from a 0.01-step grid.

    Feasibility is an interval (the objective is linear in alpha); the
    lower-median grid value is returned as the most drift-tolerant
    choice.
    """
    ds = _finite(deltas)
    intra0, inter0 = _split(ds, tau0)
    if not intra0 or not inter0:
        raise UndefinedObjective(
            f"initial tau={tau0} does not induce a valid partition")
    part0 = len(intra0)
    rivals = [tau for tau in candidate_taus(ds)
              if len(_split(ds, tau)[0]) != part0]
    if not rivals:
        raise NoConsistentAlpha(
            "only one candidate partition exists; nothing to learn from")
    feasible = [alpha for alpha in ALPHA_GRID
                if all(objective(alpha, tau0, ds) < objective(alpha, tau, ds)
                       for tau in rivals)]
    if not feasible:
        raise NoConsistentAlpha(
            f"no grid alpha makes tau={tau0} optimal for these distances")
    return feasible[(len(feasible) - 1) // 2]


def decision_graph(tree, t: float) -> list[DecisionGraphPoint]:
    """(density, dependent distance) per active cell, for operator
    inspection when picking the initial tau.

    The root's infinite distance is drawn at 1.1x the largest finite
    one (or 1.0 when it is the only cell) so the graph stays plottable;
    the sentinel never feeds the objective.
    """
    finite = _finite(tree.delta.values())
    ceiling = 1.1 * max(finite) if finite else 1.0
    rows = []
    for c in sorted(tree.nodes()):
        d = tree.delta[c]
        rows.append(DecisionGraphPoint(
            cell_id=c,
            rho=tree.space.cell_density_at(c, t),
            delta=d if math.isfinite(d) else ceiling))
    return rows
