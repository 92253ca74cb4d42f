#!/usr/bin/env python3
"""Record the output digests every benchmark run is checked against.

    python3 bench/record_digests.py

For each workload's default seed this writes the sha256 of the event
log and of the per-sweep snapshot rows to ``bench/digests.json``.
Re-record only in a change that means to alter the package's output
bytes, and say so in that change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import WORKLOADS, Prepared, run_pass  # noqa: E402


def main() -> int:
    digests = {}
    workdir = HERE / "out" / "tmp-record"
    try:
        for name, w in WORKLOADS.items():
            res = run_pass(Prepared(w, w.default_seed, workdir / name), rows=True)
            if res.problems:
                print(f"{name}: " + "\n".join(res.problems), file=sys.stderr)
                return 1
            digests[name] = {"seed": w.default_seed,
                             "events": res.digests["events"],
                             "snapshot_rows": res.digests["snapshot_rows"]}
            print(name, digests[name])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (HERE / "digests.json").write_text(json.dumps(digests, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
