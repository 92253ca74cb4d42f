#!/usr/bin/env python3
"""Run one streampeaks benchmark workload and print its metrics.

    python3 bench/run.py --workload sds --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from a source checkout: the package is imported from ``src/`` next
to this directory, never from an installed copy.  A run generates the
workload's stream from ``--seed`` (untimed), runs an untimed check pass
on it and on the workload's default seed, then repeats timed passes
over the same stream until ``--seconds`` have elapsed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the
traced ones, plus the tracing overhead between the two.  Metric names
and units are those of BENCHMARK.json.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Per-run details and the raw spans go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("sds", "hds", "lattice", "mix-cli")
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
# Set-up is short and noisy: time at least this many per run, topping up
# the timed passes with set-up-only repetitions.
SETUP_SAMPLES = 15


def _percentile(values, q: float) -> float:
    import numpy as np
    return float(np.percentile(values, q)) if len(values) else 0.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Run:
    """Bookkeeping for one workload run: operations, failures and the
    reasons for them."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def account(self, res, label: str) -> None:
        self.attempted += res.attempted
        self.failed += res.failed
        for problem in res.problems:
            self._note(f"{label}: {problem}")

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self._note(what)

    def _note(self, problem: str) -> None:
        # A run that fails on every pass keeps only its first reasons.
        if len(self.problems) < 20:
            self.problems.append(problem)


def _compare(run: Run, res, ref, label: str) -> None:
    """A pass must reproduce the check pass: same output digests and the
    same work counters."""
    run.check(all(ref.digests.get(k) == v for k, v in res.digests.items()),
              f"{label}: output digests differ from the check pass")
    run.check(res.counters == ref.counters,
              f"{label}: work counters differ from the check pass")


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from tracing import Tracer
    from workloads import WORKLOADS, Prepared, run_pass

    w = WORKLOADS[name]
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    workdir = OUT / f"tmp-{tag}-{os.getpid()}"
    clock = time.perf_counter
    run = Run()
    try:
        prep = Prepared(w, seed, workdir / "run")
        check = run_pass(prep, rows=True)
        run.account(check, "check pass")

        # Traced passes alternate with untraced ones, and each must
        # reproduce the untraced check pass byte for byte.
        tracer = Tracer() if trace else None
        plain, traced, layer = [], [], []
        peak_rss_mb = 0.0
        deadline = clock() + seconds
        while True:
            use_tracer = trace and len(plain) > len(traced)
            res = run_pass(prep, tracer=tracer if use_tracer else None)
            label = f"{'traced ' if use_tracer else ''}pass {len(plain) + len(traced)}"
            run.account(res, label)
            _compare(run, res, check, label)
            if use_tracer:
                traced.append(res)
                layer.append(tracer.end_pass())
            else:
                plain.append(res)
            if not peak_rss_mb:
                # Read once a full pass has run, before the latency
                # samples of later passes add to the high-water mark.
                peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024
            enough = len(plain) >= MIN_PASSES and (
                not trace or len(traced) >= MIN_TRACED_PASSES)
            if enough and clock() >= deadline:
                break
        setups = [r.setup_s for r in plain]
        while not trace and len(setups) < SETUP_SAMPLES:
            res = run_pass(prep, setup_only=True)
            run.account(res, "set-up repetition")
            setups.append(res.setup_s)

        golden = json.loads((HERE / "digests.json").read_text())[name]
        if seed == w.default_seed:
            ref = check
        else:
            ref = run_pass(Prepared(w, w.default_seed, workdir / "default"),
                           rows=True)
            run.account(ref, "default-seed check pass")
        for key in ("events", "snapshot_rows"):
            run.check(ref.digests.get(key) == golden[key],
                      f"default seed {w.default_seed}: {key} digest differs "
                      "from the recorded one")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lat = [x for r in plain for x in r.point_lat]
    sweeps = [x for r in plain for x in r.sweep_lat]
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "gen_s": prep.gen_s, "stream_points": prep.n_points,
        "tau0": prep.config.tau0,
        "passes": len(plain), "traced_passes": len(traced),
        "point_samples": len(lat), "sweep_samples": len(sweeps),
        "work_counters": dict(check.counters),
        "failed_frac": _ratio(run.failed, run.attempted),
        "problems": run.problems,
    }
    if not trace:
        detail["setup_samples"] = len(setups)
        metrics = {
            "points_per_s": _median([_ratio(r.points, r.ingest_s) for r in plain]),
            "point_p50_us": _percentile(lat, 50) * 1e6,
            "point_p99_us": _percentile(lat, 99) * 1e6,
            "sweep_p50_ms": _percentile(sweeps, 50) * 1e3,
            "sweep_p90_ms": _percentile(sweeps, 90) * 1e3,
            "setup_s": _median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        metrics = {}
        wall = [r.setup_s + r.ingest_s for r in traced]
        for span, stats in tracer.span_summary(wall).items():
            for key, value in stats.items():
                metrics[f"{span}.{key}"] = value
        run.check(all(lc == layer[0] for lc in layer),
                  "traced passes disagree on the layer counters")
        metrics.update(layer[0])
        c = defaultdict(int, check.counters)
        evals, skips = c["seed_distance_evals"], c["filter_skips"]
        metrics.update({
            "cells.new_cells": c["new_cells"],
            "cells.new_cell_frac": _ratio(c["new_cells"], c["points"]),
            "deptree.seed_distance_evals": evals,
            "deptree.filter_skips": skips,
            "deptree.filter_skip_ratio": _ratio(skips, skips + evals),
            "deptree.relinks": c["relinks"],
            "reservoir.activations": c["activations"],
            "reservoir.recycled_cells": c["recycled_cells"],
            "engine.sweeps": c["sweeps"],
            "evolution.events": c["events"],
            "evolution.events_per_sweep": _ratio(c["events"], c["sweeps"]),
            "trace.overhead_frac": _ratio(
                _median([r.ingest_s for r in traced]),
                _median([r.ingest_s for r in plain])) - 1.0,
        })
        detail["work_counters"].update(
            {k: layer[0][k] for k in ("cells.seeds_scanned", "tau.objective_calls")})
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{tag}-spans.npz")
    detail["metrics"] = metrics
    detail["correct"] = run.failed == 0
    detail["attempted"] = run.attempted
    detail["failed"] = run.failed
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")
    return detail


def _report(detail: dict, spec: dict) -> dict:
    """Print the run's metrics by name and unit; return the result line.

    The metrics are those BENCHMARK.json lists; the run's JSON file in
    ``bench/out/`` keeps every one computed."""
    kind = "per_layer" if detail["trace"] else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    metrics = detail["metrics"]
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics in BENCHMARK.json not measured: {sorted(missing)}")
    print(f"workload {detail['workload']} seed {detail['seed']}: "
          f"{detail['passes']} passes"
          + (f" + {detail['traced_passes']} traced" if detail["trace"] else "")
          + f"; stream of {detail['stream_points']} points prepared in "
          f"{detail['gen_s']:.3f} s (untimed)")
    samples = {"point_p50_us": "point_samples", "point_p99_us": "point_samples",
               "sweep_p50_ms": "sweep_samples", "sweep_p90_ms": "sweep_samples",
               "setup_s": "setup_samples", "points_per_s": "passes"}
    for name in units:
        n = f"  (n={detail[samples[name]]})" if name in samples else ""
        print(f"  {name:40s} {metrics[name]:>16.6g} {units[name]}{n}")
    print(f"  {'failed_frac':40s} {detail['failed_frac']:>16.6g} ratio  "
          f"({detail['failed']} of {detail['attempted']} operations)")
    print("  work counters: " + ", ".join(
        f"{k}={v}" for k, v in sorted(detail["work_counters"].items())))
    for problem in detail["problems"]:
        print(f"  FAILED {problem}")
    return {"correct": detail["correct"], "attempted": detail["attempted"],
            "failed": detail["failed"],
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units}}


def _run_all(args) -> int:
    """Every workload, one after another, each in its own process so that
    peak RSS is the workload's own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "streampeaks" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path[:0] = [str(SRC), str(HERE)]
    import streampeaks
    if not Path(streampeaks.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"bench: streampeaks imported from {streampeaks.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    detail = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(_report(detail, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
