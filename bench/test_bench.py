"""The benchmark's own checks.

    python3 -m pytest bench/test_bench.py

Each workload runs twice on one seed with tracing on: both runs must
pass their output checks and report exactly the same hardware-independent
work counters.  The benchmark must also refuse to run, printing no
result, where the package source is missing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

WORK_COUNTERS = (
    "deptree.seed_distance_evals", "deptree.filter_skips", "deptree.relinks",
    "cells.new_cells", "reservoir.recycled_cells", "reservoir.activations",
    "engine.sweeps", "evolution.events", "cells.seeds_scanned",
    "tau.objective_calls", "streams.bytes_written",
)


def _bench(root: Path, workload: str, seed: int, trace: int):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_work_counters_repeat_exactly(workload):
    seen = []
    for _ in range(2):
        proc = _bench(ROOT, workload, WORKLOADS[workload].default_seed, trace=1)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, proc.stdout
        seen.append({k: result["metrics"][k]["value"] for k in WORK_COUNTERS})
    assert seen[0] == seen[1]


def test_refuses_to_run_without_package_source():
    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "bench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _bench(bare, "sds", 1, trace=0)
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
