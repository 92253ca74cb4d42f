"""Pipeline orchestration: assignment, density and dependency updates,
activation transitions, recycling, threshold re-selection, evolution.

One engine instance owns every structure (cell store, dependency tree,
reservoir, threshold state, event log) and mutates them from a single
ingest loop.  Dependencies update on every absorbed point; threshold
re-selection, decay sweeps, recycling and snapshot diffing run once
every ``sweep_interval`` points, so all evolution events carry sweep
timestamps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

from streampeaks.cells import AssignResult, CellSpace, StreamPoint
from streampeaks.decay import DecayParams, active_threshold
from streampeaks.deptree import (
    FILTER_MODES,
    ClusterSnapshot,
    DPTree,
    PointDistances,
)
from streampeaks.errors import ConfigError, EngineStateError
from streampeaks.evolution import EventLog, EvolutionEvent, diff_snapshots
from streampeaks.reservoir import OutlierReservoir
from streampeaks.streams import SnapshotRow, open_text
from streampeaks.tau import (
    DecisionGraphPoint,
    TauState,
    candidate_taus,
    decision_graph,
    learn_alpha,
    select_tau,
)

CONFIG_KEYS = ("a", "lambda", "v", "beta", "r", "tau0", "alpha",
               "init_cell_count", "sweep_interval", "recycle", "filters")

_BOOL_WORDS = {"on": True, "true": True, "1": True,
               "off": False, "false": False, "0": False}


@dataclass(frozen=True)
class EngineConfig:
    """Run configuration; every field maps to one config-file key."""

    r: float
    a: float = 0.998
    lam: float = 1.0
    v: float = 1000.0
    beta: float = 0.0021
    tau0: Optional[float] = None
    alpha: Optional[float] = None
    init_cell_count: int = 10
    sweep_interval: int = 100
    recycle: bool = True
    filters: str = "both"

    def __post_init__(self):
        self.decay_params()
        for name in ("r", "tau0", "alpha"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.r <= 0.0:
            raise ConfigError("r must be positive")
        if self.tau0 is not None and self.tau0 <= 0.0:
            raise ConfigError("tau0 must be positive")
        if self.alpha is not None and not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha must lie strictly inside (0, 1)")
        if self.init_cell_count < 2:
            raise ConfigError("init_cell_count must be at least 2")
        if self.sweep_interval < 1:
            raise ConfigError("sweep_interval must be at least 1")
        if self.filters not in FILTER_MODES:
            raise ConfigError(
                f"filters must be one of {', '.join(FILTER_MODES)}")

    def decay_params(self) -> DecayParams:
        try:
            return DecayParams(self.a, self.lam, self.v, self.beta)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "EngineConfig":
        """Parse the flat key=value format; `#` starts a comment."""
        seen: dict[str, str] = {}
        with open_text(path, ConfigError) as fh:
            text = fh.read()
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in CONFIG_KEYS:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            if key in seen:
                raise ConfigError(f"line {lineno}: duplicate key {key!r}")
            seen[key] = value
        return cls.from_mapping(seen)

    @classmethod
    def from_mapping(cls, mapping: dict[str, str]) -> "EngineConfig":
        """Config from key -> string pairs, as ``to_mapping`` writes
        them; anything else raises ``ConfigError``."""
        if not isinstance(mapping, dict):
            raise ConfigError(
                f"config must map keys to strings, got {type(mapping).__name__}")
        if "r" not in mapping:
            raise ConfigError("missing required key 'r'")
        kwargs: dict = {}
        try:
            for key, value in mapping.items():
                if not isinstance(value, str):
                    raise ConfigError(f"value of {key!r} must be a string, "
                                      f"got {value!r}")
                if key in ("a", "v", "beta", "r", "tau0", "alpha"):
                    kwargs[key] = float(value)
                elif key == "lambda":
                    kwargs["lam"] = float(value)
                elif key in ("init_cell_count", "sweep_interval"):
                    kwargs[key] = int(value)
                elif key == "recycle":
                    if value.lower() not in _BOOL_WORDS:
                        raise ConfigError(f"recycle must be on or off, got {value!r}")
                    kwargs["recycle"] = _BOOL_WORDS[value.lower()]
                elif key == "filters":
                    kwargs["filters"] = {"density-only": "density"}.get(value, value)
                else:
                    raise ConfigError(f"unknown key {key!r}")
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return cls(**kwargs)

    def to_mapping(self) -> dict[str, str]:
        """Inverse of from_mapping, for state files."""
        out = {"r": repr(self.r), "a": repr(self.a), "lambda": repr(self.lam),
               "v": repr(self.v), "beta": repr(self.beta),
               "init_cell_count": str(self.init_cell_count),
               "sweep_interval": str(self.sweep_interval),
               "recycle": "on" if self.recycle else "off",
               "filters": self.filters}
        if self.tau0 is not None:
            out["tau0"] = repr(self.tau0)
        if self.alpha is not None:
            out["alpha"] = repr(self.alpha)
        return out


class StreamEngine:
    """Single-owner streaming clusterer.

    Lifecycle: construct, ``initialize`` on a buffered prefix, then
    ``process_point`` for the rest of the stream.  Snapshot and counter
    reads change no state and may be taken at any moment between calls;
    nothing here is safe to call concurrently with the owner.
    """

    def __init__(self, config: EngineConfig, dim: int):
        self.config = config
        self.params = config.decay_params()
        self.space = CellSpace(self.params, config.r, dim)
        self.tree: Optional[DPTree] = None
        self.reservoir: Optional[OutlierReservoir] = None
        self.tau_state: Optional[TauState] = None
        self.alpha_learned: Optional[float] = None
        self.log = EventLog()
        self.last_snapshot: Optional[ClusterSnapshot] = None
        self.last_assign: Optional[AssignResult] = None
        self.prefix_assignments: list[AssignResult] = []
        self._since_sweep = 0
        self._counts = {"new_cells": 0, "relinks": 0, "activations": 0,
                        "deactivations": 0, "recycled_cells": 0, "sweeps": 0}

    @property
    def initialized(self) -> bool:
        return self.tree is not None

    @property
    def now(self) -> float:
        """The engine's clock: the timestamp of the last point taken."""
        return self.space.last_t

    @property
    def sweep_count(self) -> int:
        """Sweeps run so far."""
        return self._counts["sweeps"]

    def initialize(self, points: Sequence[StreamPoint]) -> list[DecisionGraphPoint]:
        """Build cells from a buffered prefix, link the dependency
        forest, learn alpha for the configured tau0, and emit the
        decision graph.

        The activity partition is settled once at the buffer's last
        timestamp, so initialization matches a sweep boundary exactly.
        A buffer that fails leaves the engine untouched, so it can be
        initialized again.  ``prefix_assignments`` keeps the buffer's
        assignment results, in buffer order.
        """
        if self.initialized:
            raise EngineStateError("engine is already initialized")
        if self.config.tau0 is None:
            raise ConfigError("tau0 is required to initialize")
        points = list(points)
        if not points:
            raise ConfigError("initialization buffer is empty")
        space = CellSpace(self.params, self.config.r, self.space.dim)
        assigned = space.assign_points(points)
        t = space.last_t
        if len(space) < self.config.init_cell_count:
            raise ConfigError(
                f"initialization buffer produced {len(space)} cells, "
                f"need at least {self.config.init_cell_count}")
        threshold = active_threshold(self.params)
        for cell in space.cells.values():
            cell.active = space.cell_density_at(cell.id, t) >= threshold
        tree = DPTree.build(space, filters=self.config.filters)
        deltas = list(tree.delta.values())
        if self.config.alpha is not None:
            alpha = self.config.alpha
        else:
            alpha = learn_alpha(deltas, self.config.tau0)
            self.alpha_learned = alpha
        self.space, self.tree = space, tree
        self.prefix_assignments = assigned
        self._counts["new_cells"] += len(space)
        self.reservoir = OutlierReservoir(space, tree)
        for t_last, cid in sorted((space.cell(cid).t_last, cid)
                                  for cid in space.inactive_ids()):
            self.reservoir.put(cid, t_last)
        self.tau_state = TauState(alpha, self.config.tau0,
                                  tuple(candidate_taus(deltas)))
        graph = decision_graph(tree, t)
        self.last_snapshot = tree.extract_clusters(
            self.config.tau0, t, outliers=tuple(self.reservoir.ids()))
        return graph

    def process_point(self, p: StreamPoint) -> list[EvolutionEvent]:
        """Ingest one point; returns the events of the sweep it closed,
        or [] between sweep boundaries."""
        if not self.initialized:
            raise EngineStateError("initialize the engine before processing")
        res = self.space.assign_point(p)
        self.last_assign = res
        if res.created:
            self._counts["new_cells"] += 1
            self.reservoir.put(res.cell_id, res.t)
        else:
            pd = PointDistances(self.space)
            if self.space.cell(res.cell_id).active:
                relinks = self.tree.on_density_increase(res.cell_id, pd)
                self._counts["relinks"] += len(relinks)
            elif self.reservoir.try_activate(res.cell_id, res.t, pd):
                self._counts["activations"] += 1
        self._since_sweep += 1
        if self._since_sweep >= self.config.sweep_interval:
            return self._sweep(res.t)
        return []

    def _sweep(self, t: float) -> list[EvolutionEvent]:
        self._counts["sweeps"] += 1
        self._since_sweep = 0
        moved = self.reservoir.deactivate_sweep(t)
        self._counts["deactivations"] += sum(len(s) for s in moved)
        if self.config.recycle:
            self._counts["recycled_cells"] += len(self.reservoir.recycle(t))
        st = self.tau_state
        deltas = list(self.tree.delta.values())
        tau = select_tau(st.alpha, deltas, previous=st.tau)
        self.tau_state = TauState(st.alpha, tau, tuple(candidate_taus(deltas)))
        snap = self.tree.extract_clusters(tau, t,
                                          outliers=tuple(self.reservoir.ids()))
        events = diff_snapshots(self.last_snapshot, snap)
        for e in events:
            self.log.append(e)
        self.last_snapshot = snap
        return events

    def snapshot_rows(self) -> list[SnapshotRow]:
        """Flat per-cell rows of the engine's latest clustering, in cell
        id order; outliers carry cluster id -1 and an infinite delta."""
        snap = self.last_snapshot
        membership = snap.membership()
        rows: list[SnapshotRow] = []
        for cid in sorted(set(membership) | set(snap.outlier_cells)):
            cell = self.space.cell(cid)
            rows.append((cid, membership.get(cid, -1),
                         self.space.cell_density_at(cid, snap.time),
                         self.tree.delta.get(cid, math.inf), cell.seed))
        return rows

    def counters(self) -> dict[str, int]:
        out = {"points": self.space.points_seen, **self._counts,
               "events": len(self.log)}
        out["seed_distance_evals"] = self.tree.seed_distance_evals if self.tree else 0
        out["filter_skips"] = self.tree.filter_skips if self.tree else 0
        return out
