"""Point-level differential harness: a hypothesis state machine feeds
one engine point by point and checks it against from-scratch references
after every point, plus a twin engine with the update filters off.
At every sweep, tau, its candidates, the snapshot and the events are
recomputed from the forest, whether the sweep re-selected them or kept
them because the forest had not changed.
At every point, the relinks counter must move by exactly the number of
links the point changed in the forest.

Streams sit on a lattice of multiples of r/2 (exact distance ties,
points exactly at r, repeated seeds), repeat timestamps, and jump past
the deletion horizon (1.12 s here) and past the freshness floor
(262 s), in 1 to 3 dimensions with sweep intervals 1 to 10.
"""

from collections import Counter

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

import streampeaks.engine as engine_module
from streampeaks.cells import StreamPoint, seed_distance
from streampeaks.decay import active_threshold
from streampeaks.deptree import DPTree
from streampeaks.engine import EngineConfig, StreamEngine
from streampeaks.evolution import diff_snapshots
from streampeaks.tau import candidate_taus, select_tau

from _oracles import changed_links, check_order_index

R = 1.0
BASE = dict(r=R, a=0.9, lam=1.0, v=4.0, beta=0.04, tau0=1.5, alpha=0.2,
            init_cell_count=2, recycle=True)
STEPS = (0.0, 0.0, 0.1, 0.1, 0.25, 1.5, 300.0)
SETTINGS = settings(max_examples=100, stateful_step_count=80, deadline=None,
                    derandomize=True, database=None)


def _descends_from(parent: dict, x: int, root: int) -> bool:
    while x is not None:
        if x == root:
            return True
        x = parent[x]
    return False


class EngineMachine(RuleBasedStateMachine):
    """``seen`` counts what the drawn streams exercised; a subclass
    supplies its own Counter."""

    seen: Counter

    @initialize(dim=st.integers(1, 3), interval=st.integers(1, 10),
                filters=st.sampled_from(["both", "density"]))
    def start(self, dim, interval, filters):
        self.dim = dim
        self.t = 0.0
        self.founded: set[int] = set()
        self.engine, self.twin = (
            StreamEngine(EngineConfig(sweep_interval=interval, filters=f,
                                      **BASE), dim=dim)
            for f in (filters, "off"))
        origin, far = (0.0,) * dim, (10 * R,) + (0.0,) * (dim - 1)
        buffer = [StreamPoint(c, 0.0) for c in (origin, origin, origin, far)]
        for eng in (self.engine, self.twin):
            eng.initialize(buffer)
        self.founded.update(self.engine.space.cells)
        self.threshold = active_threshold(self.engine.params)
        self.swept = False
        self._check_subtree_removals(self.engine.tree)
        self.links_at_sweep: dict = {}
        for eng in (self.engine, self.twin):
            self._record_links_at_sweeps(eng)

    def _record_links_at_sweeps(self, eng: StreamEngine) -> None:
        """Keep the forest's links as each sweep finds them."""
        sweep = eng._sweep

        def recorded(t):
            self.links_at_sweep[eng] = eng.tree.forest_state()
            return sweep(t)

        eng._sweep = recorded

    def _check_subtree_removals(self, tree: DPTree) -> None:
        """Every ``remove_subtree`` result must equal the cells whose
        parent chain reaches the removed root."""
        remove, seen = tree.remove_subtree, self.seen

        def checked(c):
            expect = sorted(x for x in tree.nodes()
                            if _descends_from(tree.parent, x, c))
            got = remove(c)
            assert got == expect
            assert check_order_index(tree)
            seen["removed_cells"] += len(got)
            return got

        tree.remove_subtree = checked

    @rule(steps=st.tuples(*[st.integers(-3, 3)] * 3), dt=st.sampled_from(STEPS))
    def point(self, steps, dt):
        self.t += dt
        p = StreamPoint(tuple(k * R / 2 for k in steps[:self.dim]), self.t)
        eng = self.engine
        sweeps, selections = eng.sweep_count, self.seen["selections"]
        tau_before, snap_before = eng.tau_state.tau, eng.last_snapshot
        before = {e: (e.tree.forest_state(), e.counters())
                  for e in (eng, self.twin)}
        events = eng.process_point(p)
        reselected = self.seen["selections"] > selections
        self.twin.process_point(p)
        res = eng.last_assign
        if res.created:
            self.founded.add(res.cell_id)
        self.swept = eng.sweep_count > sweeps
        for e, (links, counts) in before.items():
            self._check_relink_count(e, links, counts)
        if self.swept:
            self._check_sweep(tau_before, snap_before, events)
            self.seen["full_sweeps" if reselected else "quiet_sweeps"] += 1

    def _check_relink_count(self, eng, links, counts):
        """A point an active cell absorbed moves the relinks counter by
        exactly the number of links it changed; any other point, an
        activation included, does not move it."""
        res, now = eng.last_assign, eng.counters()
        moved = now["relinks"] - counts["relinks"]
        if not res.created and res.cell_id in links:
            after = (self.links_at_sweep[eng] if self.swept
                     else eng.tree.forest_state())
            assert moved == len(changed_links(links, after))
            self.seen["relinks"] += moved
        else:
            assert moved == 0
            self.seen["activations"] += now["activations"] - counts["activations"]

    def _check_sweep(self, tau_before, snap_before, events):
        """Tau, its candidates, the clusters and the events of the sweep
        just run, recomputed from the engine's forest and reservoir."""
        eng = self.engine
        deltas = list(eng.tree.delta.values())
        tau = select_tau(eng.tau_state.alpha, deltas, previous=tau_before)
        assert eng.tau_state.tau == tau
        assert eng.tau_state.candidates == tuple(candidate_taus(deltas))
        assert eng.last_snapshot == DPTree.build(eng.space).extract_clusters(
            tau, eng.now, outliers=tuple(eng.reservoir.ids()))
        assert events == diff_snapshots(snap_before, eng.last_snapshot)

    @invariant()
    def forests_equal_scratch_rebuilds(self):
        for eng in (self.engine, self.twin):
            scratch = DPTree.build(eng.space, filters=eng.config.filters)
            assert eng.tree.forest_state() == scratch.forest_state()

    @invariant()
    def seed_distance_cache_exact(self):
        """The cache holds tree cells only, both ways round, and every
        entry carries the bits ``seed_distance`` gives its two seeds."""
        for eng in (self.engine, self.twin):
            tree, cells = eng.tree, eng.space.cells
            dists = tree.seed_dists
            assert set(dists) == set(tree.nodes())
            for a, row in dists.items():
                for b, d in row.items():
                    assert b != a and b in tree
                    assert dists[b][a] == d
                    assert d == seed_distance(cells[a].seed, cells[b].seed)
                    self.seen["cached_pairs"] += 1

    @invariant()
    def tree_reservoir_recycled_disjoint(self):
        eng = self.engine
        in_tree, in_res = set(eng.tree.nodes()), set(eng.reservoir.ids())
        live = set(eng.space.cells)
        recycled = self.founded - live
        assert not in_tree & in_res
        assert in_tree | in_res == live
        assert not recycled & (in_tree | in_res)

    @invariant()
    def sweep_matches_density_test_and_twin(self):
        if not self.swept:
            return
        eng, twin = self.engine, self.twin
        for cid, cell in eng.space.cells.items():
            dense = eng.space.cell_density_at(cid, eng.now) >= self.threshold
            assert cell.active == dense
        assert list(eng.log) == list(twin.log)
        assert eng.snapshot_rows() == twin.snapshot_rows()
        # Recycling stops at the first cell inside the horizon, which is
        # exact only while the clocks are kept in touch order.
        touches = list(eng.reservoir.last_touch.values())
        assert touches == sorted(touches)
        assert all(eng.now - t <= eng.reservoir.horizon for t in touches)
        self.seen["sweeps"] += 1
        self.seen["active_at_sweep"] += len(eng.tree)
        self.seen["recycled_at_sweep"] += eng.counters()["recycled_cells"]


def test_engine_matches_references_point_by_point(monkeypatch):
    seen: Counter = Counter()
    select = engine_module.select_tau

    def counted(*args, **kwargs):
        seen["selections"] += 1
        return select(*args, **kwargs)

    monkeypatch.setattr(engine_module, "select_tau", counted)
    machine = type("Machine", (EngineMachine,), {"seen": seen})
    run_state_machine_as_test(machine, settings=SETTINGS)
    # A harness whose streams never sweep, deactivate or recycle proves
    # nothing about those paths.
    assert seen["sweeps"] > 0
    assert seen["active_at_sweep"] > 0
    assert seen["removed_cells"] > 0
    assert seen["recycled_at_sweep"] > 0
    assert seen["cached_pairs"] > 0
    assert seen["relinks"] > 0
    assert seen["activations"] > 0
    # Sweeps that keep the last tau and clusters, and sweeps that
    # re-select them, are both checked against the recomputation.
    assert seen["quiet_sweeps"] > 0
    assert seen["full_sweeps"] > 0
