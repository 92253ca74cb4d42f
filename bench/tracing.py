"""Span tracing at the package's layer boundaries, installed from outside.

The benchmark does not edit the package: it swaps the public functions
at each layer boundary for timing wrappers, runs a pass, and puts the
originals back.  Functions the engine and the CLI imported by name are
wrapped where they are looked up (``streampeaks.engine.select_tau``,
``streampeaks.cli.write_snapshot`` ...), so the engine calls the
wrapper without knowing it.

Every span keeps its name, start, end, parent and self time in flat
arrays; a span's self time is its duration minus the durations of the
spans it directly caused.  Counters are recorded at the same boundaries
so that ratios are measured where the work happens.
"""

from __future__ import annotations

import contextlib
import os
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Iterator, Optional

import numpy as np

import streampeaks.cli as cli
import streampeaks.engine as engine
import streampeaks.tau as tau
from streampeaks.deptree import DPTree
from streampeaks.engine import StreamEngine
from streampeaks.cells import CellSpace
from streampeaks.reservoir import OutlierReservoir

# (span name, owner, attribute).  The owner is the class or module whose
# attribute the package code looks up at call time.
SPANS = (
    ("cells.assign_point", CellSpace, "assign_point"),
    ("deptree.on_density_increase", DPTree, "on_density_increase"),
    ("deptree.insert_active", DPTree, "insert_active"),
    ("deptree.remove_subtree", DPTree, "remove_subtree"),
    ("deptree.extract_clusters", DPTree, "extract_clusters"),
    ("deptree.build", DPTree, "build"),
    ("deptree.PointDistances", engine, "PointDistances"),
    ("reservoir.try_activate", OutlierReservoir, "try_activate"),
    ("reservoir.deactivate_sweep", OutlierReservoir, "deactivate_sweep"),
    ("reservoir.recycle", OutlierReservoir, "recycle"),
    ("tau.select_tau", engine, "select_tau"),
    ("tau.candidate_taus", engine, "candidate_taus"),
    ("tau.learn_alpha", engine, "learn_alpha"),
    ("tau.decision_graph", engine, "decision_graph"),
    ("evolution.diff_snapshots", engine, "diff_snapshots"),
    ("engine.process_point", StreamEngine, "process_point"),
    ("engine.initialize", StreamEngine, "initialize"),
    ("engine.snapshot_rows", StreamEngine, "snapshot_rows"),
    ("streams.read_stream", cli, "read_stream"),
    ("streams.write_snapshot", cli, "write_snapshot"),
    ("streams.write_events", cli, "write_events"),
    ("streams.write_counters", cli, "write_counters"),
    ("cli.main", cli, "main"),
)
SPAN_NAMES = tuple(name for name, _, _ in SPANS)

# Called too often to time without drowning the caller's self time:
# counted only.
COUNTED = (("tau.objective_calls", tau, "objective"),)


def _file_size(path) -> int:
    return os.stat(path).st_size


class Tracer:
    """In-memory span store plus the counters and samples taken at the
    wrapped boundaries.  One tracer serves every traced pass of a run;
    ``pass_index`` tags each span with the pass that produced it."""

    def __init__(self):
        self.pass_index = 0
        self._name_id = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.span_name = array("i")
        self.span_pass = array("i")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_self = array("d")
        self._stack: list[list] = []
        self.counts: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)

    def _after_hooks(self) -> dict[str, Callable]:
        """Counters and samples read right after a span closes, from the
        call's own arguments and result."""
        counts, samples = self.counts, self.samples

        def assign(args, kwargs, result):
            space = args[0]
            counts["cells.seeds_scanned"] += len(space.last_scan)
            samples["cells.live_cells"].append(len(space))

        def extract(args, kwargs, result):
            samples["deptree.active_cells"].append(len(args[0]))

        def try_activate(args, kwargs, result):
            counts["reservoir.try_activate_calls"] += 1
            counts["reservoir.try_activate_true"] += bool(result)

        def deactivate(args, kwargs, result):
            samples["reservoir.size"].append(len(args[0]))

        def candidates(args, kwargs, result):
            samples["tau.candidates"].append(len(result))

        def wrote_result(args, kwargs, result):
            counts["streams.bytes_written"] += _file_size(result)

        def wrote_first_arg(args, kwargs, result):
            counts["streams.bytes_written"] += _file_size(args[0])

        return {"cells.assign_point": assign,
                "deptree.extract_clusters": extract,
                "reservoir.try_activate": try_activate,
                "reservoir.deactivate_sweep": deactivate,
                "tau.candidate_taus": candidates,
                "streams.write_snapshot": wrote_result,
                "streams.write_events": wrote_first_arg,
                "streams.write_counters": wrote_first_arg}

    def _span(self, name: str, fn: Callable,
              after: Optional[Callable]) -> Callable:
        nid = self._name_id[name]
        stack = self._stack
        names, passes, parents = self.span_name, self.span_pass, self.span_parent
        starts, ends, selfs = self.span_start, self.span_end, self.span_self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            passes.append(self.pass_index)
            parents.append(stack[-1][0] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            selfs.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
                selfs[idx] = (t1 - t0) - frame[1]
            if after is not None:
                after(args, kwargs, result)
            if stack:
                # The hook's own cost is charged to no layer.
                stack[-1][1] += clock() - t0
            return result

        return traced

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every boundary for the duration of the block."""
        hooks = self._after_hooks()
        saved = []
        try:
            for name, owner, attr in SPANS:
                raw = owner.__dict__[attr]
                saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._span(name, raw.__func__,
                                                     hooks.get(name)))
                else:
                    wrapped = self._span(name, raw, hooks.get(name))
                setattr(owner, attr, wrapped)
            for name, owner, attr in COUNTED:
                raw = owner.__dict__[attr]
                saved.append((owner, attr, raw))
                setattr(owner, attr, self._counted(name, raw))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)
            self._stack.clear()

    def end_pass(self) -> dict[str, float]:
        """Counters and sample statistics of the pass just traced; clears
        them for the next pass."""
        c, s = self.counts, self.samples

        def p50(key):
            return float(np.median(s[key])) if s[key] else 0.0

        out = {
            "cells.seeds_scanned": c["cells.seeds_scanned"],
            "cells.live_cells_p50": p50("cells.live_cells"),
            "deptree.active_cells_p50": p50("deptree.active_cells"),
            "deptree.active_cells_max": max(s["deptree.active_cells"], default=0),
            "reservoir.activation_ratio": (
                c["reservoir.try_activate_true"] / c["reservoir.try_activate_calls"]
                if c["reservoir.try_activate_calls"] else 0.0),
            "reservoir.size_max": max(s["reservoir.size"], default=0),
            "tau.objective_calls": c["tau.objective_calls"],
            "tau.candidates_p50": p50("tau.candidates"),
            "streams.bytes_written": c["streams.bytes_written"],
        }
        c.clear()
        s.clear()
        self.pass_index += 1
        return out

    def span_summary(self, pass_wall: list[float]) -> dict[str, dict[str, float]]:
        """Per span: calls, self seconds and self share of the pass's
        wall time ``pass_wall`` (each the median over the traced passes),
        and the median self microseconds per call."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        passes = np.frombuffer(self.span_pass, dtype=np.int32)
        selfs = np.frombuffer(self.span_self, dtype=np.float64)
        n = max(self.pass_index, 1)
        wall = np.asarray(pass_wall, dtype=np.float64)
        out = {}
        for nid, name in enumerate(SPAN_NAMES):
            mask = names == nid
            mine = selfs[mask]
            per_pass = np.bincount(passes[mask], weights=mine, minlength=n)
            out[name] = {
                "calls": float(np.median(np.bincount(passes[mask], minlength=n))),
                "self_s": float(np.median(per_pass)),
                "self_share": float(np.median(per_pass / wall)),
                "self_p50_us": float(np.median(mine)) * 1e6 if len(mine) else 0.0,
            }
        return out

    def write(self, path: Path) -> None:
        """Every recorded span, as parallel arrays (name ids index
        ``names``; parent -1 marks a root span)."""
        np.savez_compressed(
            path, names=np.array(SPAN_NAMES),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            pass_index=np.frombuffer(self.span_pass, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            self_time=np.frombuffer(self.span_self, dtype=np.float64))
