"""Acceptance gate: every shipped guarantee, one printed verdict per test.

Run with ``python3 -m pytest tests/test_acceptance.py -v -s`` to see the
verdict lines; each states what was measured and against which bound.
"""

import math
import time
from collections import defaultdict
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from streampeaks.cells import CellSpace, StreamPoint, seed_distance
from streampeaks.decay import (
    DecayParams,
    absorb,
    active_threshold,
    deletion_horizon,
    freshness,
    total_freshness,
)
from streampeaks.deptree import (
    Cluster,
    ClusterSnapshot,
    DPTree,
    PointDistances,
)
from streampeaks.engine import EngineConfig, StreamEngine
from streampeaks.evolution import diff_snapshots
from streampeaks.reservoir import OutlierReservoir
from streampeaks.scenarios import builtin, generate
from streampeaks.streams import list_snapshots, write_events, write_snapshot
from streampeaks.tau import select_tau

from _oracles import capacity_bound, count_delta, denser, same_clustering

REF = DecayParams(a=0.998, lam=1.0, v=1000.0, beta=0.0021)

# the moving-blob narrative: alpha is learned from the init buffer
SDS_CFG = EngineConfig(r=1.6, a=0.998, lam=1000.0, v=1000.0, beta=0.0021,
                       tau0=5.0, init_cell_count=10, sweep_interval=100)

# the same stream at unit expected rate; alpha set explicitly because no
# cell is active at init under the 1050-point threshold
UNIT_RATE_CFG = replace(SDS_CFG, lam=1.0, alpha=0.01)

MIX_CFG = EngineConfig(r=1.6, a=0.998, lam=1000.0, v=1000.0, beta=0.0021,
                       tau0=5.0, alpha=0.05, init_cell_count=10,
                       sweep_interval=100)


def verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {criterion}: {'PASS' if ok else 'FAIL'} [{detail}]",
          flush=True)
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def sds_stream():
    return generate(builtin("sds"), seed=7)


def _run_sds(config, stream):
    eng = StreamEngine(config, dim=2)
    eng.initialize(stream[:1000])
    records = []
    seen = 0
    for p in stream[1000:]:
        eng.process_point(p)
        if eng.sweep_count > seen:
            seen = eng.sweep_count
            records.append(SimpleNamespace(
                t=eng.now,
                dynamic=len(eng.last_snapshot.clusters),
                static=len(eng.tree.extract_clusters(
                    config.tau0, eng.now).clusters),
                actives=len(eng.space.active_ids()),
                reservoir=len(eng.reservoir),
                snapshot=eng.last_snapshot))
    return eng, records


@pytest.fixture(scope="module")
def narrative(sds_stream):
    eng, records = _run_sds(SDS_CFG, sds_stream)
    return SimpleNamespace(engine=eng, records=records, events=list(eng.log))


@pytest.fixture(scope="module")
def unit_rate_pair(sds_stream):
    on_eng, on_rec = _run_sds(UNIT_RATE_CFG, sds_stream)
    off_eng, off_rec = _run_sds(replace(UNIT_RATE_CFG, recycle=False),
                                sds_stream)
    return SimpleNamespace(on=on_eng, on_records=on_rec,
                           off=off_eng, off_records=off_rec)


def test_criterion_1_incremental_forest_equals_scratch_rebuild():
    stream = generate(builtin("mix"), seed=5)
    eng = StreamEngine(MIX_CFG, dim=2)
    eng.initialize(stream[:500])
    threshold = active_threshold(eng.params)
    start = time.perf_counter()
    sweeps = 0
    mismatches = 0
    for i, p in enumerate(stream[500:], start=1):
        eng.process_point(p)
        if i % MIX_CFG.sweep_interval:
            continue
        sweeps += 1
        t = eng.now
        should_be_active = {
            cid for cid in eng.space.cells
            if eng.space.cell_density_at(cid, t) >= threshold}
        scratch = DPTree.build(eng.space, filters=MIX_CFG.filters)
        tau = eng.tau_state.tau
        same = (set(eng.space.active_ids()) == should_be_active
                and eng.tree.parent == scratch.parent
                and eng.tree.delta == scratch.delta
                and same_clustering(eng.tree.extract_clusters(tau, t),
                                    scratch.extract_clusters(tau, t)))
        mismatches += 0 if same else 1
    elapsed = time.perf_counter() - start
    verdict(1, sweeps == 95 and mismatches == 0 and elapsed < 60.0,
            f"forest, partition and clustering equal a from-scratch rebuild "
            f"at all {sweeps} sweeps of a 10000-point stream; "
            f"{elapsed:.1f}s < 60s")


def test_criterion_2_filters_change_nothing_but_work(sds_stream, tmp_path):
    evals = {}
    for mode in ("both", "off"):
        root = tmp_path / mode
        eng = StreamEngine(replace(UNIT_RATE_CFG, lam=1000.0, filters=mode),
                           dim=2)
        eng.initialize(sds_stream[:1000])
        seen = 0
        for p in sds_stream[1000:]:
            eng.process_point(p)
            if eng.sweep_count > seen:
                seen = eng.sweep_count
                write_snapshot(root / "snaps", seen, eng.now,
                               eng.snapshot_rows())
        write_events(root / "events.jsonl", eng.log)
        evals[mode] = eng.counters()["seed_distance_evals"]
    events_equal = ((tmp_path / "both" / "events.jsonl").read_bytes()
                    == (tmp_path / "off" / "events.jsonl").read_bytes())
    both_files = list_snapshots(tmp_path / "both" / "snaps")
    off_files = list_snapshots(tmp_path / "off" / "snaps")
    snaps_equal = ([p.name for p in both_files] == [p.name for p in off_files]
                   and all(a.read_bytes() == b.read_bytes()
                           for a, b in zip(both_files, off_files)))
    ratio = evals["off"] / evals["both"]
    verdict(2, events_equal and snaps_equal and evals["both"] < evals["off"],
            f"event log and all {len(both_files)} snapshots byte-identical "
            f"with filters on vs off; distance evaluations "
            f"{evals['both']} vs {evals['off']} ({ratio:.0f}x fewer)")


def test_criterion_3_iterated_updates_match_direct_summation():
    presets = [
        REF,
        DecayParams(0.998, 1000.0, 1000.0, 0.0021),
        DecayParams(0.9, 2.0, 50.0, 0.05),
        DecayParams(0.99, 0.5, 10.0, 0.2),
        DecayParams(0.9999, 10.0, 5000.0, 0.001),
    ]
    rng = np.random.default_rng(20260815)
    worst = 0.0
    for i in range(10_000):
        params = presets[i % len(presets)]
        times = np.cumsum(rng.random(int(rng.integers(1, 31))) * 2.0)
        rho = 1.0
        for t_last, t in zip(times, times[1:]):
            rho = absorb(params, rho, t_last, t)
        direct = sum(freshness(params, ti, times[-1]) for ti in times)
        worst = max(worst, abs(rho - direct) / direct)
    verdict(3, worst <= 1e-9,
            f"10000 random absorption sequences, worst relative "
            f"disagreement {worst:.1e} <= 1e-9")


def test_criterion_4_thresholds_and_bounds(narrative, unit_rate_pair):
    threshold = active_threshold(REF)
    total = total_freshness(REF)
    horizon = deletion_horizon(REF)
    cap = capacity_bound(REF)
    active_cap = math.ceil(1.0 / REF.beta)
    numerics = (threshold == pytest.approx(1050.0, rel=1e-6)
                and total == pytest.approx(500_000.0, rel=1e-6)
                and horizon == pytest.approx(3.47479328826907, rel=1e-6)
                and round(horizon, 4) == 3.4748
                and cap == 3951 and active_cap == 477)
    unit = unit_rate_pair.on_records
    peak_active = max(r.actives for r in unit)
    peak_reservoir = max(r.reservoir for r in unit)
    live_sweeps = sum(1 for r in unit if r.actives > 0)
    narrative_peak = max(r.actives for r in narrative.records)
    bounds = (0 < peak_active <= active_cap and peak_reservoir < cap
              and live_sweeps > 0 and narrative_peak <= active_cap)
    verdict(4, numerics and bounds,
            f"threshold {threshold:.0f}, total {total:.0f}, horizon "
            f"{horizon:.4f}s, capacity {cap}; unit-rate run peaks at "
            f"{peak_active} active cells (<= {active_cap}, live at "
            f"{live_sweeps} sweeps) and {peak_reservoir} reservoir cells "
            f"(< {cap}); narrative run peaks at {narrative_peak} actives")


def test_criterion_5_lifecycle_event_order(narrative):
    structural = [e for e in narrative.events if e.kind != "Adjust"]
    it = iter(structural)
    wanted = ["Merge", "Emerge", "Disappear", "Split"]
    found = all(any(e.kind == kind for e in it) for kind in wanted)
    merges = [e.time for e in structural if e.kind == "Merge"]
    first_merge = merges[0] if merges else math.nan
    verdict(5, found and 8.0 <= first_merge <= 10.0,
            f"run contains Merge -> Emerge -> Disappear -> Split in order "
            f"({len(structural)} structural events); first Merge at "
            f"t={first_merge:.3f}s, inside 9s +- 1s")


def test_criterion_6_dynamic_tau_diverges_from_static(narrative):
    divergent = [r for r in narrative.records
                 if 3.5 <= r.t <= 8.5 and r.dynamic == 2 and r.static == 1]
    verdict(6, len(divergent) > 0,
            f"{len(divergent)} sweeps in the approach window report 2 "
            f"clusters dynamically where the fixed threshold reports 1 "
            f"(first at t={divergent[0].t:.3f}s)" if divergent else
            "no divergent sweep found in the approach window")


def test_criterion_7_recycling_never_changes_clusterings(unit_rate_pair):
    pair = unit_rate_pair
    mismatches = sum(
        0 if same_clustering(a.snapshot, b.snapshot) else 1
        for a, b in zip(pair.on_records, pair.off_records))
    logs_equal = list(pair.on.log) == list(pair.off.log)
    recycled = pair.on.counters()["recycled_cells"]
    verdict(7, mismatches == 0 and logs_equal and recycled > 0
            and len(pair.on_records) == len(pair.off_records),
            f"recycling on vs off: identical clusterings at all "
            f"{len(pair.on_records)} sweeps, identical event logs, "
            f"{recycled} cells actually recycled")


def test_criterion_8_ingest_rate_floor(sds_stream):
    eng = StreamEngine(SDS_CFG, dim=2)
    eng.initialize(sds_stream[:1000])
    rest = sds_stream[1000:]
    start = time.perf_counter()
    for p in rest:
        eng.process_point(p)
    elapsed = time.perf_counter() - start
    rate = len(rest) / elapsed
    verdict(8, rate >= 10_000,
            f"{len(rest)} points in {elapsed:.2f}s = {rate:,.0f} points/s "
            f">= 10,000 points/s ({1e6 * elapsed / len(rest):.1f} us/point)")


def _random_tree(rng, r=0.3):
    sp = CellSpace(REF, r=r, dim=2)
    n = int(rng.integers(5, 15))
    while len(sp.cells) < n:
        sp.assign_point(StreamPoint.of(rng.uniform(-5.0, 5.0, size=2), 0.0))
    for cell in sp.cells.values():
        cell.active = True
        cell.rho_last = 1.0 + 10.0 * float(rng.random())
    return sp, DPTree.build(sp)


def _delta_monotonicity_case(rng) -> None:
    """Absorption weakly raises the absorber's delta and only lowers (or
    id-tightens) the delta of every relinked cell."""
    sp, tree = _random_tree(rng)
    before = dict(tree.delta)
    c = int(rng.choice(tree.nodes()))
    res = sp.assign_point(StreamPoint.of(sp.cell(c).seed, 0.1))
    assert res.cell_id == c and not res.created
    relinks = tree.on_density_increase(c, PointDistances(sp))
    assert tree.delta[c] >= before[c]
    for rl in relinks:
        if rl.cell == c:
            continue
        assert rl.new_delta <= rl.old_delta
        if rl.new_delta == rl.old_delta:
            assert rl.old_dep is None or rl.new_dep < rl.old_dep


def _nearest_denser_case(rng) -> None:
    """No cell denser than c sits closer to c than c's recorded delta."""
    sp, tree = _random_tree(rng)
    c = int(rng.choice(tree.nodes()))
    sp.assign_point(StreamPoint.of(sp.cell(c).seed, 0.1))
    tree.on_density_increase(c, PointDistances(sp))
    for a in tree.nodes():
        seed_a = sp.cell(a).seed
        for b in tree.nodes():
            if a != b and denser(tree, b, a):
                assert seed_distance(seed_a, sp.cell(b).seed) >= tree.delta[a]


def _state_machine_suite(steps: int) -> None:
    """Every founded cell sits in exactly one of tree, reservoir, deleted."""
    params = DecayParams(a=0.9, lam=1.0, v=4.0, beta=0.3)
    sp = CellSpace(params, r=0.4, dim=2)
    tree = DPTree(sp)
    res = OutlierReservoir(sp, tree)
    rng = np.random.default_rng(3)
    deleted: set[int] = set()
    t = 0.0
    for step in range(steps):
        t += 0.02
        xy = (rng.normal(0.0, 1.0, size=2) if step % 3
              else rng.uniform(-4.0, 4.0, size=2))
        out = sp.assign_point(StreamPoint.of(xy, t))
        if out.created:
            res.put(out.cell_id, out.t)
        if not sp.cell(out.cell_id).active:
            res.try_activate(out.cell_id, t)
        if step % 50 == 49:
            res.deactivate_sweep(t)
            deleted.update(res.recycle(t))
        in_tree = set(tree.nodes())
        in_res = set(res.last_touch)
        assert not (in_tree & in_res)
        assert not (deleted & (in_tree | in_res))
        assert in_tree | in_res == set(sp.cells)
    assert deleted, "recycling never fired; the suite proved nothing"


def _rand_snapshot(rng, t: float) -> ClusterSnapshot:
    active = sorted(i for i in range(24) if rng.random() < 0.6)
    groups = defaultdict(list)
    for cid in active:
        groups[int(rng.integers(0, 6))].append(cid)
    clusters = tuple(sorted(
        (Cluster(min(ms), tuple(sorted(ms))) for ms in groups.values()),
        key=lambda c: c.root))
    outliers = tuple(sorted(set(range(24)) - set(active)))[:4]
    return ClusterSnapshot(t, 1.0, clusters, outliers)


def _diff_count_case(rng) -> None:
    """Event count deltas reconcile consecutive cluster counts."""
    prev = _rand_snapshot(rng, 0.0)
    nxt = _rand_snapshot(rng, 1.0)
    delta = sum(count_delta(e) for e in diff_snapshots(prev, nxt))
    assert len(prev.clusters) + delta == len(nxt.clusters)


def _scale_invariance_case(rng) -> None:
    """Scaling every link distance by k scales the chosen tau by k."""
    deltas = list(rng.uniform(0.1, 50.0, size=int(rng.integers(3, 13))))
    if len(set(deltas)) < 2:
        return
    alpha = float(rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]))
    k = float(10.0 ** rng.uniform(-2.0, 2.0))
    tau = select_tau(alpha, deltas)
    assert select_tau(alpha, [k * d for d in deltas]) \
        == pytest.approx(k * tau, rel=1e-9)


def test_criterion_9_property_suites():
    cases = 1000
    suites = [
        ("delta monotonicity", _delta_monotonicity_case),
        ("nearest denser", _nearest_denser_case),
        ("diff count consistency", _diff_count_case),
        ("tau scale invariance", _scale_invariance_case),
    ]
    counts = {}
    for name, case in suites:
        rng = np.random.default_rng(20260815)
        for _ in range(cases):
            case(rng)
        counts[name] = cases
    _state_machine_suite(cases)
    counts["state machine exclusivity"] = cases
    detail = ", ".join(f"{name} x{n}" for name, n in counts.items())
    verdict(9, all(n == cases for n in counts.values()) and len(counts) == 5,
            detail)
