"""Density-mountain clustering for evolving data streams.

The package tracks a stream's density landscape with decaying
cluster-cells, links them into a dependency tree, and cuts the tree at
an adaptive distance threshold to report clusters and their evolution
(emerge, disappear, merge, split, adjust) in real time.

The usual entry point is :class:`StreamEngine`; the ``streampeaks``
command drives it from files.
"""

from streampeaks.cells import AssignResult, CellSpace, StreamPoint
from streampeaks.decay import (
    DecayParams,
    absorb,
    active_threshold,
    decay_density,
    deletion_horizon,
    freshness,
    total_freshness,
)
from streampeaks.deptree import Cluster, ClusterSnapshot, DPTree
from streampeaks.engine import EngineConfig, StreamEngine
from streampeaks.errors import (
    CellStateError,
    ConfigError,
    DimensionMismatch,
    EngineStateError,
    MissingLabels,
    NonFiniteInput,
    OutOfOrderTimestamp,
    StreamClusteringError,
    StreamFormatError,
    UnknownCell,
)
from streampeaks.evolution import EventLog, EvolutionEvent, diff_snapshots
from streampeaks.reservoir import OutlierReservoir
from streampeaks.scenarios import builtin, builtin_names, generate
from streampeaks.tau import (
    DecisionGraphPoint,
    NoConsistentAlpha,
    TauState,
    UndefinedObjective,
    decision_graph,
    learn_alpha,
    select_tau,
)

__all__ = [
    "AssignResult",
    "CellSpace",
    "CellStateError",
    "Cluster",
    "ClusterSnapshot",
    "ConfigError",
    "DPTree",
    "DecayParams",
    "DecisionGraphPoint",
    "DimensionMismatch",
    "EngineConfig",
    "EngineStateError",
    "EventLog",
    "EvolutionEvent",
    "MissingLabels",
    "NoConsistentAlpha",
    "NonFiniteInput",
    "OutOfOrderTimestamp",
    "OutlierReservoir",
    "StreamClusteringError",
    "StreamEngine",
    "StreamFormatError",
    "StreamPoint",
    "TauState",
    "UndefinedObjective",
    "UnknownCell",
    "absorb",
    "active_threshold",
    "builtin",
    "builtin_names",
    "decay_density",
    "decision_graph",
    "deletion_horizon",
    "diff_snapshots",
    "freshness",
    "generate",
    "learn_alpha",
    "select_tau",
    "total_freshness",
]

__version__ = "0.1.0"
