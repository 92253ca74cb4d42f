"""Command-line surface: stream generation, initialization, runs, eval.

Exit codes: 0 success, 2 usage and configuration errors and files that
cannot be read or written, 3 malformed input rows, 4 evaluation on a
label-free stream.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

from streampeaks.cells import StreamPoint
from streampeaks.deptree import Cluster, ClusterSnapshot
from streampeaks.engine import EngineConfig, StreamEngine
from streampeaks.errors import (
    ConfigError,
    MissingLabels,
    StreamClusteringError,
    StreamFormatError,
)
from streampeaks.reference import LabeledAssignment, weighted_purity
from streampeaks.scenarios import builtin, builtin_names, generate
from streampeaks.streams import (
    SnapshotRow,
    list_snapshots,
    read_snapshot,
    read_stream,
    write_counters,
    write_decision_graph,
    write_eval,
    write_events,
    write_snapshot,
    write_stream,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FORMAT = 3
EXIT_LABELS = 4


def _cmd_gen(args: argparse.Namespace) -> int:
    points = generate(builtin(args.scenario), args.seed)
    write_stream(args.out, points, labeled=True)
    return EXIT_OK


def _cmd_init(args: argparse.Namespace) -> int:
    """Consume the whole input file as the initialization buffer and
    save a state file that lets `run` resume after it."""
    config = EngineConfig.from_file(args.config)
    if args.tau0 is not None:
        config = replace(config, tau0=args.tau0)
    if config.tau0 is None:
        raise ConfigError("tau0 is required: set it in the config "
                          "or pass --tau0")
    points, _ = read_stream(args.input)
    if not points:
        raise ConfigError("input stream has no points")
    engine = StreamEngine(config, dim=len(points[0].coords))
    graph = engine.initialize(points)
    if args.emit_decision_graph:
        write_decision_graph(args.emit_decision_graph, graph)
    state = {
        "config": config.to_mapping(),
        "alpha": engine.tau_state.alpha,
        "alpha_learned": engine.alpha_learned is not None,
        "consumed": len(points),
        "dim": len(points[0].coords),
        "initial_clusters": len(engine.last_snapshot.clusters),
    }
    Path(args.state).write_text(json.dumps(state, indent=2) + "\n")
    return EXIT_OK


def _resume(state_path: str, points: Sequence[StreamPoint]
            ) -> tuple[StreamEngine, Sequence[StreamPoint]]:
    """Rebuild the engine recorded in the state file by replaying the
    consumed prefix; runs are deterministic, so the result is exact."""
    try:
        state = json.loads(Path(state_path).read_text())
        if not isinstance(state, dict):
            raise ConfigError("expected a JSON object")
        config = EngineConfig.from_mapping(state["config"])
        alpha, consumed, dim = state["alpha"], state["consumed"], state["dim"]
        if not (type(alpha) in (int, float) and type(consumed) is int
                and type(dim) is int):
            raise ConfigError("alpha must be a number, consumed and dim integers")
        if consumed < 1:
            raise ConfigError(f"consumed must be at least 1, got {consumed}")
        config = replace(config, alpha=float(alpha))
    except (KeyError, ValueError, json.JSONDecodeError) as exc:
        raise ConfigError(f"unusable state file {state_path}: {exc}") from None
    if len(points) < consumed:
        raise ConfigError(f"state consumed {consumed} rows but the input "
                          f"has only {len(points)}")
    if points and len(points[0].coords) != dim:
        raise ConfigError(f"input has {len(points[0].coords)} coordinates, "
                          f"state expects {dim}")
    engine = StreamEngine(config, dim=dim)
    engine.initialize(points[:consumed])
    return engine, points[consumed:]


def _cmd_run(args: argparse.Namespace) -> int:
    points, _ = read_stream(args.input)
    engine, rest = _resume(args.state, points)
    snapshots_written = 0
    for p in rest:
        engine.process_point(p)
        if engine.sweep_count > snapshots_written:
            snapshots_written = engine.sweep_count
            if args.snapshots:
                write_snapshot(args.snapshots, snapshots_written, engine.now,
                               engine.snapshot_rows())
    if args.events:
        write_events(args.events, engine.log)
    if args.counters:
        write_counters(args.counters, engine.counters())
    return EXIT_OK


def _snapshot_from_rows(time: float, rows: Sequence[SnapshotRow]
                        ) -> ClusterSnapshot:
    members: dict[int, list[int]] = {}
    outliers: list[int] = []
    for cell_id, cluster_id, _rho, _delta, _seed in rows:
        if cluster_id < 0:
            outliers.append(cell_id)
        else:
            members.setdefault(cluster_id, []).append(cell_id)
    clusters = tuple(Cluster(root, tuple(sorted(ids)))
                     for root, ids in sorted(members.items()))
    return ClusterSnapshot(time, math.inf, clusters, tuple(sorted(outliers)))


def _cmd_eval(args: argparse.Namespace) -> int:
    points, labeled = read_stream(args.input)
    if not labeled:
        print("eval: input stream carries no labels", file=sys.stderr)
        return EXIT_LABELS
    engine, rest = _resume(args.state, points)
    files = list(list_snapshots(args.snapshots))
    assignments = [LabeledAssignment(res.cell_id, p.label, p.t)
                   for p, res in zip(points, engine.prefix_assignments)
                   if p.label is not None]
    rows: list[tuple[float, str, float]] = []
    seen_sweeps = 0
    for p in rest:
        engine.process_point(p)
        if p.label is not None:
            assignments.append(
                LabeledAssignment(engine.last_assign.cell_id, p.label, p.t))
        if engine.sweep_count > seen_sweeps:
            seen_sweeps = engine.sweep_count
            if seen_sweeps > len(files):
                raise ConfigError("run produced more sweeps than snapshot "
                                  "files; wrong --snapshots directory?")
            time, file_rows = read_snapshot(files[seen_sweeps - 1])
            if abs(time - engine.now) > 1e-6:
                raise ConfigError(
                    f"snapshot {files[seen_sweeps - 1].name} is at "
                    f"t={time}, replay reached t={engine.now}")
            snap = _snapshot_from_rows(time, file_rows)
            try:
                purity = weighted_purity(snap, assignments, engine.params, time)
            except MissingLabels:
                continue  # no clustered labeled mass yet, nothing to score
            rows.append((time, "weighted_purity", purity))
    write_eval(args.out, rows)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streampeaks",
        description="Density-peak clustering over evolving point streams.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a built-in synthetic stream")
    gen.add_argument("--scenario", required=True, choices=builtin_names())
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen)

    init = sub.add_parser(
        "init", help="buffer a stream prefix and learn the run state")
    init.add_argument("input", help="stream CSV used as the buffer")
    init.add_argument("--config", required=True)
    init.add_argument("--state", required=True, help="state file to write")
    init.add_argument("--tau0", type=float, default=None,
                      help="operator threshold; overrides the config")
    init.add_argument("--emit-decision-graph", metavar="PATH", default=None)
    init.set_defaults(func=_cmd_init)

    run = sub.add_parser("run", help="consume a stream from a saved state")
    run.add_argument("input", help="full stream CSV, prefix included")
    run.add_argument("--state", required=True)
    run.add_argument("--events", default=None, help="event log to write")
    run.add_argument("--snapshots", default=None,
                     help="directory for per-sweep clustering CSVs")
    run.add_argument("--counters", default=None, help="counter CSV to write")
    run.set_defaults(func=_cmd_run)

    ev = sub.add_parser("eval", help="score snapshots against labels")
    ev.add_argument("input", help="labeled stream CSV")
    ev.add_argument("--state", required=True)
    ev.add_argument("--snapshots", required=True)
    ev.add_argument("--out", required=True)
    ev.set_defaults(func=_cmd_eval)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except StreamFormatError as exc:
        print(f"streampeaks {args.command}: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except (StreamClusteringError, OSError) as exc:
        print(f"streampeaks {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
