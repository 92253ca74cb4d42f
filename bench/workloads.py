"""The benchmark's four workloads and one measured pass of each.

A pass drives one fresh engine over a whole stream, closed loop and
single-threaded: the next point goes in only when ``process_point``
returns.  Library workloads call the engine directly; ``mix-cli`` runs
the ``init`` and ``run`` commands in-process through
``streampeaks.cli.main``.  Every pass ends with its output checks, made
outside the timed region.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import math
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import streampeaks.cli as cli
from streampeaks.cells import StreamPoint
from streampeaks.deptree import DPTree
from streampeaks.engine import EngineConfig, StreamEngine
from streampeaks.scenarios import (GaussianSource, PlantedScenario, builtin,
                                   generate)
from streampeaks.streams import read_counters, write_events
from streampeaks.tau import NoConsistentAlpha, UndefinedObjective, learn_alpha

from tracing import Tracer


def lattice_scenario() -> PlantedScenario:
    """100 static, equal-share blobs on a 10 x 10 grid with unit spacing.

    Each blob is narrow (sd 0.08, clipped at 3 sd) against r = 0.3, so
    it feeds one or two cells and about 90 cells stay active at once:
    the one workload where dependency maintenance, tau selection and
    snapshot diffing carry real load.
    """
    k = 10
    share = ((0.0, 1.0 / (k * k)),)
    sources = tuple(
        GaussianSource(name=f"B{i}_{j}", stddev=0.08,
                       path=((0.0, (float(i), float(j))),), share=share)
        for i in range(k) for j in range(k))
    return PlantedScenario(name="lattice", dim=2, rate=1000.0, duration=11.0,
                           sources=sources)


def operator_tau0(config: EngineConfig, prefix: list[StreamPoint]) -> float:
    """The initial threshold an operator settles on before alpha is
    learned: the configured tau0 when alpha can be learned for it, else
    the midpoint of the widest gap between the init prefix's dependent
    distances that admits a learned alpha, then the next widest.

    ``learn_alpha`` rightly rejects a tau0 that cuts no link, or that no
    grid alpha makes optimal.  On sds about one seed in eight puts the
    inter-blob link just under the shipped tau0 of 5.
    """
    probe = StreamEngine(dataclasses.replace(config, alpha=0.5),
                         dim=len(prefix[0].coords))
    probe.initialize(prefix)
    deltas = list(probe.tree.delta.values())
    distinct = sorted({d for d in deltas if math.isfinite(d)})
    by_gap = sorted(range(len(distinct) - 1),
                    key=lambda i: (distinct[i] - distinct[i + 1], i))
    for tau0 in [config.tau0] + [(distinct[i] + distinct[i + 1]) / 2
                                 for i in by_gap]:
        try:
            learn_alpha(deltas, tau0)
        except (UndefinedObjective, NoConsistentAlpha):
            continue
        return tau0
    raise NoConsistentAlpha("no gap in the decision graph admits a learned alpha")


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    init_points: int
    config: EngineConfig
    scenario: Callable[[], PlantedScenario]
    cli: bool = False


# Configurations follow the acceptance gate (sds) and the CLI round-trip
# tests (hds, mix); see README.md for why each workload exists.
_SHIPPED = dict(a=0.998, lam=1000.0, v=1000.0, beta=0.0021,
                sweep_interval=100)
WORKLOADS = {
    w.name: w for w in (
        Workload("sds", 7, 1000,
                 EngineConfig(r=1.6, tau0=5.0, init_cell_count=10, **_SHIPPED),
                 lambda: builtin("sds")),
        Workload("hds", 3, 500,
                 EngineConfig(r=2.0, a=0.998, lam=500.0, v=500.0, beta=0.0042,
                              tau0=6.0, alpha=0.05, sweep_interval=100),
                 # 22 s instead of 10 s: 105 sweeps per pass.
                 lambda: dataclasses.replace(builtin("hds"), duration=22.0)),
        Workload("lattice", 11, 1000,
                 EngineConfig(r=0.3, tau0=0.9, alpha=0.05, **_SHIPPED),
                 lattice_scenario),
        Workload("mix-cli", 5, 500,
                 EngineConfig(r=1.6, tau0=5.0, alpha=0.05, **_SHIPPED),
                 lambda: builtin("mix"), cli=True),
    )
}


@dataclass
class PassResult:
    """One pass: its timings, work counters, output digests and every
    check that failed.  ``points`` is the numerator of points/s."""

    setup_s: float = 0.0
    ingest_s: float = 0.0
    points: int = 0
    point_lat: list[float] = field(default_factory=list)
    sweep_lat: list[float] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(what)


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _check_forest(engine: StreamEngine, res: PassResult) -> None:
    """The incremental forest must equal a from-scratch rebuild."""
    res.attempted += 1
    if engine.tree.forest_state() != DPTree.build(engine.space).forest_state():
        res.fail("incremental forest differs from DPTree.build")


class Prepared:
    """A workload's generated input for one seed, plus the files the CLI
    workload reads and writes.  Generation time, which includes choosing
    tau0, is kept apart from every timed region."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.workload = workload
        self.config = workload.config
        self.dir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        if workload.cli:
            self.stream_csv = workdir / "stream.csv"
            rc = cli.main(["gen", "--scenario", workload.scenario().name,
                           "--seed", str(seed), "--out", str(self.stream_csv)])
            if rc != 0:
                raise RuntimeError(f"gen exited with {rc}")
            lines = self.stream_csv.read_text().splitlines(keepends=True)
            self.n_points = len(lines) - 1
            self.prefix_csv = workdir / "init.csv"
            self.prefix_csv.write_text("".join(lines[:workload.init_points + 1]))
            self.config_file = workdir / "run.conf"
            self.config_file.write_text("".join(
                f"{k} = {v}\n" for k, v in workload.config.to_mapping().items()))
            self.stream: list[StreamPoint] = []
        else:
            self.stream = generate(workload.scenario(), seed)
            self.n_points = len(self.stream)
            if workload.config.alpha is None:
                self.config = dataclasses.replace(
                    workload.config, tau0=operator_tau0(
                        workload.config, self.stream[:workload.init_points]))
        self.gen_s = time.perf_counter() - start


def run_pass(prep: Prepared, *, rows: bool = False,
             tracer: Optional[Tracer] = None,
             setup_only: bool = False) -> PassResult:
    """One timed pass.  ``rows`` also digests the snapshot rows of every
    sweep (the library check pass; the CLI always writes them).
    ``setup_only`` stops after the set-up: ``initialize`` on the prefix,
    or the ``init`` command."""
    run = _cli_pass if prep.workload.cli else _library_pass
    res = PassResult()
    try:
        run(prep, res, rows, tracer, setup_only)
    except Exception:
        res.fail(traceback.format_exc())
    return res


def _library_pass(prep: Prepared, res: PassResult, rows: bool,
                  tracer: Optional[Tracer], setup_only: bool) -> None:
    w = prep.workload
    engine = StreamEngine(prep.config, dim=len(prep.stream[0].coords))
    prefix, rest = prep.stream[:w.init_points], prep.stream[w.init_points:]
    clock = time.perf_counter
    lat, sweep_lat, snaps = res.point_lat, res.sweep_lat, []
    row_hash = hashlib.sha256()
    with tracer.installed() if tracer else contextlib.nullcontext():
        res.attempted += 1
        t0 = clock()
        engine.initialize(prefix)
        res.setup_s = clock() - t0
        if setup_only:
            return
        process = engine.process_point
        seen = engine.sweep_count
        start = clock()
        for p in rest:
            t0 = clock()
            try:
                process(p)
            except Exception:
                res.fail(traceback.format_exc())
            t1 = clock()
            lat.append(t1 - t0)
            if engine.sweep_count != seen:
                seen = engine.sweep_count
                sweep_lat.append(t1 - t0)
                snaps.append(engine.last_snapshot)
                if rows:
                    row_hash.update(repr((seen, engine.snapshot_rows())).encode())
        res.ingest_s = clock() - start
    res.attempted += len(rest)
    res.points = len(rest)
    events = prep.dir / "events.jsonl"
    write_events(events, engine.log)
    res.digests["events"] = _sha256_file(events)
    res.digests["clusters"] = hashlib.sha256(repr(snaps).encode()).hexdigest()
    if rows:
        res.digests["snapshot_rows"] = row_hash.hexdigest()
    res.counters = engine.counters()
    _check_forest(engine, res)


def _cli_pass(prep: Prepared, res: PassResult, rows: bool,
              tracer: Optional[Tracer], setup_only: bool) -> None:
    d = prep.dir
    state, events, counters = d / "state.json", d / "events.jsonl", d / "counters.csv"
    snapshots = d / "snapshots"
    shutil.rmtree(snapshots, ignore_errors=True)
    for stale in (state, events, counters):
        stale.unlink(missing_ok=True)
    clock = time.perf_counter
    lat, sweep_lat = res.point_lat, res.sweep_lat
    captured: list[StreamEngine] = []
    resume = cli._resume

    def timed_resume(*args):
        # Hands the run command's engine to the benchmark and times its
        # process_point calls exactly as the library loop does.
        engine, rest = resume(*args)
        captured.append(engine)
        process = engine.process_point
        seen = [engine.sweep_count]

        def timed(p):
            # A raising point aborts the run command, which then fails.
            res.attempted += 1
            t0 = clock()
            try:
                return process(p)
            finally:
                t1 = clock()
                lat.append(t1 - t0)
                if engine.sweep_count != seen[0]:
                    seen[0] = engine.sweep_count
                    sweep_lat.append(t1 - t0)

        engine.process_point = timed
        return engine, rest

    cli._resume = timed_resume
    try:
        with tracer.installed() if tracer else contextlib.nullcontext():
            res.attempted += 1
            t0 = clock()
            rc = cli.main(["init", str(prep.prefix_csv), "--config",
                           str(prep.config_file), "--state", str(state)])
            res.setup_s = clock() - t0
            if rc != 0:
                res.fail(f"init exited with {rc}")
                return
            if setup_only:
                return
            res.attempted += 1
            t0 = clock()
            rc = cli.main(["run", str(prep.stream_csv), "--state", str(state),
                           "--events", str(events), "--snapshots", str(snapshots),
                           "--counters", str(counters)])
            res.ingest_s = clock() - t0
            if rc != 0:
                res.fail(f"run exited with {rc}")
                return
    finally:
        cli._resume = resume
    res.points = prep.n_points
    engine = captured[0]
    res.digests["events"] = _sha256_file(events)
    snap_hash = hashlib.sha256()
    for path in sorted(snapshots.iterdir()):
        snap_hash.update(path.name.encode() + b"\n" + path.read_bytes())
    res.digests["snapshot_rows"] = snap_hash.hexdigest()
    res.counters = engine.counters()
    res.attempted += 1
    if read_counters(counters) != res.counters:
        res.fail("counters file differs from the engine's counters")
    _check_forest(engine, res)
