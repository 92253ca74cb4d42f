"""Maintenance filters: identical answers, a fraction of the work.

Every absorption can relink cells, and the naive response is to
re-measure every cell pair.  The density-band filter restricts the
check to cells whose rank the absorber just crossed; the triangle
filter then skips survivors that provably cannot relink.  This script
runs the same stream under all three settings and compares.
"""

from dataclasses import replace

from streampeaks import EngineConfig, StreamEngine, builtin, generate


def run(config, stream):
    engine = StreamEngine(config, dim=2)
    engine.initialize(stream[:1000])
    for p in stream[1000:]:
        engine.process_point(p)
    return engine


def main() -> None:
    stream = generate(builtin("sds"), seed=7)
    base = EngineConfig(r=1.6, a=0.998, lam=1000.0, v=1000.0, beta=0.0021,
                        tau0=5.0, alpha=0.01, init_cell_count=10,
                        sweep_interval=100)

    engines = {mode: run(replace(base, filters=mode), stream)
               for mode in ("off", "density", "both")}

    print("filters    distance evals   filter skips   relinks   events")
    for mode, engine in engines.items():
        c = engine.counters()
        print(f"  {mode:<8} {c['seed_distance_evals']:>14,} "
              f"{c['filter_skips']:>14,} {c['relinks']:>9,} "
              f"{c['events']:>8,}")
    print()

    off = engines["off"]
    for mode in ("density", "both"):
        same = (list(engines[mode].log) == list(off.log)
                and engines[mode].snapshot_rows() == off.snapshot_rows())
        print(f"filters={mode}: outputs identical to the unfiltered "
              f"run -> {same}")
    ratio = (off.counters()["seed_distance_evals"]
             / engines["both"].counters()["seed_distance_evals"])
    print(f"\nboth filters do the same job with {ratio:,.0f}x fewer "
          "distance evaluations")


if __name__ == "__main__":
    main()
