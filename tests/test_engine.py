"""Engine orchestration: config parsing, lifecycle, sweep behavior."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from streampeaks.cells import CellSpace, StreamPoint
from streampeaks.cli import main
from streampeaks.deptree import DPTree
from streampeaks.decay import DecayParams, active_threshold
from streampeaks.engine import CONFIG_KEYS, EngineConfig, StreamEngine
from streampeaks.errors import (ConfigError, EngineStateError,
                                 StreamClusteringError)
from streampeaks.evolution import EvolutionEvent
from streampeaks.scenarios import builtin, generate
from streampeaks.streams import write_stream

from _oracles import same_clustering


def pts(xs, t):
    return [StreamPoint((float(x),), float(t)) for x in xs]


def mix_prefix(n, seed=5):
    return generate(builtin("mix"), seed=seed)[:n]


MIX_CFG = EngineConfig(r=1.6, a=0.998, lam=1000.0, v=1000.0, beta=0.0021,
                       tau0=5.0, alpha=0.05, init_cell_count=10,
                       sweep_interval=100)


def run_mix(n, config=MIX_CFG, init_n=500):
    stream = mix_prefix(n)
    eng = StreamEngine(config, dim=2)
    eng.initialize(stream[:init_n])
    for p in stream[init_n:]:
        eng.process_point(p)
    return eng


class TestConfigFile:
    GOOD = """\
# run parameters
a = 0.998
lambda = 1000    # decay rate
v = 1000
beta = 0.0021
r = 1.6

tau0 = 5
alpha = 0.05
init_cell_count = 10
sweep_interval = 100
recycle = on
filters = both
"""

    def write(self, tmp_path, text):
        path = tmp_path / "run.conf"
        path.write_text(text)
        return path

    def test_full_file(self, tmp_path):
        cfg = EngineConfig.from_file(self.write(tmp_path, self.GOOD))
        assert cfg.lam == 1000.0
        assert cfg.r == 1.6
        assert cfg.recycle is True
        assert cfg.filters == "both"

    def test_defaults_fill_gaps(self, tmp_path):
        cfg = EngineConfig.from_file(self.write(tmp_path, "r = 2.0\n"))
        assert cfg.a == 0.998
        assert cfg.v == 1000.0
        assert cfg.tau0 is None
        assert cfg.recycle is True

    def test_missing_r(self, tmp_path):
        with pytest.raises(ConfigError, match="'r'"):
            EngineConfig.from_file(self.write(tmp_path, "a = 0.9\n"))

    def test_unknown_key_names_line(self, tmp_path):
        with pytest.raises(ConfigError, match="line 2.*bogus"):
            EngineConfig.from_file(self.write(tmp_path, "r = 1\nbogus = 3\n"))

    def test_duplicate_key_names_line(self, tmp_path):
        with pytest.raises(ConfigError, match="line 3.*duplicate"):
            EngineConfig.from_file(self.write(tmp_path, "r = 1\n\nr = 2\n"))

    def test_missing_equals_names_line(self, tmp_path):
        with pytest.raises(ConfigError, match="line 1"):
            EngineConfig.from_file(self.write(tmp_path, "just words\n"))

    def test_unparseable_number(self, tmp_path):
        with pytest.raises(ConfigError):
            EngineConfig.from_file(self.write(tmp_path, "r = wide\n"))

    def test_bad_recycle_word(self, tmp_path):
        with pytest.raises(ConfigError, match="recycle"):
            EngineConfig.from_file(self.write(tmp_path, "r = 1\nrecycle = y\n"))

    def test_recycle_words(self, tmp_path):
        for word, want in [("on", True), ("true", True), ("1", True),
                           ("off", False), ("false", False), ("0", False)]:
            cfg = EngineConfig.from_file(
                self.write(tmp_path, f"r = 1\nrecycle = {word}\n"))
            assert cfg.recycle is want

    def test_mapping_round_trip(self):
        cfg = EngineConfig(r=1.6, lam=1000.0, tau0=5.0, alpha=0.05,
                           recycle=False, filters="off")
        assert EngineConfig.from_mapping(cfg.to_mapping()) == cfg

    @pytest.mark.parametrize("mapping", [
        ["r", "1.0"], {"r": 1.0}, {"r": "1.0", "recycle": True}],
        ids=["list", "float-value", "bool-value"])
    def test_mapping_must_hold_strings(self, mapping):
        with pytest.raises(ConfigError):
            EngineConfig.from_mapping(mapping)

    def test_every_config_key_is_accepted(self, tmp_path):
        text = "".join(f"{k} = {v}\n" for k, v in [
            ("a", "0.9"), ("lambda", "2"), ("v", "10"), ("beta", "0.3"),
            ("r", "1"), ("tau0", "4"), ("alpha", "0.2"),
            ("init_cell_count", "3"), ("sweep_interval", "9"),
            ("recycle", "off"), ("filters", "off")])
        cfg = EngineConfig.from_file(self.write(tmp_path, text))
        assert set(cfg.to_mapping()) == set(CONFIG_KEYS)


class TestConfigValidation:
    def test_decay_errors_become_config_errors(self):
        with pytest.raises(ConfigError):
            EngineConfig(r=1.0, a=1.5)
        with pytest.raises(ConfigError):
            # threshold would not exceed one fresh point
            EngineConfig(r=1.0, beta=1e-9)

    def test_bounds(self):
        with pytest.raises(ConfigError, match="r"):
            EngineConfig(r=0.0)
        with pytest.raises(ConfigError, match="tau0"):
            EngineConfig(r=1.0, tau0=-1.0)
        with pytest.raises(ConfigError, match="alpha"):
            EngineConfig(r=1.0, alpha=1.0)
        with pytest.raises(ConfigError, match="init_cell_count"):
            EngineConfig(r=1.0, init_cell_count=1)
        with pytest.raises(ConfigError, match="sweep_interval"):
            EngineConfig(r=1.0, sweep_interval=0)
        with pytest.raises(ConfigError, match="filters"):
            EngineConfig(r=1.0, filters="most")

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", ["r", "tau0", "alpha", "a", "lambda",
                                     "v", "beta"])
    def test_non_finite_values_rejected(self, key, bad, tmp_path, capsys):
        """NaN or an infinity in any float setting is refused by the
        library (``ConfigError``; ``ValueError`` from ``DecayParams`` and
        ``CellSpace``) and by ``init``, which exits 2."""
        field = "lam" if key == "lambda" else key
        with pytest.raises(ConfigError, match="finite"):
            replace(TOY_CFG, **{field: float(bad)})
        if field in ("a", "lam", "v", "beta"):
            with pytest.raises(ValueError, match="finite"):
                DecayParams(**{field: float(bad)})
        if field == "r":
            with pytest.raises(ValueError, match="finite"):
                CellSpace(TOY_CFG.decay_params(), r=float(bad), dim=1)
        mapping = {**TOY_CFG.to_mapping(), key: bad}
        (tmp_path / "bad.conf").write_text(
            "".join(f"{k} = {v}\n" for k, v in mapping.items()))
        write_stream(tmp_path / "init.csv", TOY_INIT, labeled=False)
        code = main(["init", str(tmp_path / "init.csv"),
                     "--config", str(tmp_path / "bad.conf"),
                     "--state", str(tmp_path / "state.json")])
        assert code == 2
        assert not (tmp_path / "state.json").exists()
        assert "finite" in capsys.readouterr().err


TOY_CFG = EngineConfig(r=1.0, a=0.8, lam=1.0, v=4.0, beta=0.12, tau0=12.0,
                       alpha=0.2, init_cell_count=3, sweep_interval=6)

TOY_INIT = pts([0, 0.1, -0.1, 10, 10.1, 9.9, 30, 30.1, 29.9], 0.0)


class TestInitialize:
    def test_empty_buffer(self):
        eng = StreamEngine(TOY_CFG, dim=1)
        with pytest.raises(ConfigError, match="empty"):
            eng.initialize([])

    def test_missing_tau0(self):
        cfg = EngineConfig(r=1.0, a=0.8, lam=1.0, v=4.0, beta=0.12,
                           init_cell_count=3)
        eng = StreamEngine(cfg, dim=1)
        with pytest.raises(ConfigError, match="tau0"):
            eng.initialize(TOY_INIT)

    def test_too_few_cells(self):
        eng = StreamEngine(TOY_CFG, dim=1)
        with pytest.raises(ConfigError, match="need at least 3"):
            eng.initialize(pts([0, 0.1, 0.2, 0.3, -0.1, 5.0], 0.0))

    def test_double_initialize(self):
        eng = StreamEngine(TOY_CFG, dim=1)
        eng.initialize(TOY_INIT)
        with pytest.raises(EngineStateError):
            eng.initialize(TOY_INIT)

    def test_initial_partition_and_clustering(self):
        eng = StreamEngine(TOY_CFG, dim=1)
        graph = eng.initialize(TOY_INIT)
        assert sorted(eng.space.cells) == [0, 3, 6]
        assert eng.tree.delta == {0: math.inf, 3: 10.0, 6: 20.0}
        # tau0 = 12 cuts only the 20 link
        assert [c.members for c in eng.last_snapshot.clusters] == [(0, 3), (6,)]
        # decision graph renders the root's sentinel as 1.1x the max delta
        assert [(g.cell_id, g.rho, g.delta) for g in graph] == [
            (0, 3.0, 22.0), (3, 3.0, 10.0), (6, 3.0, 20.0)]

    def test_alpha_override_skips_learning(self):
        eng = StreamEngine(TOY_CFG, dim=1)
        eng.initialize(TOY_INIT)
        assert eng.alpha_learned is None
        assert eng.tau_state.alpha == 0.2

    def test_matches_batch_build(self):
        eng = StreamEngine(MIX_CFG, dim=2)
        eng.initialize(mix_prefix(500))
        scratch = DPTree.build(eng.space, filters=MIX_CFG.filters)
        assert eng.tree.parent == scratch.parent
        assert eng.tree.delta == scratch.delta

    @pytest.mark.parametrize("failure", [
        "nan-mid-buffer", "too-few-cells", "nan-first-point",
        "nan-at-block-boundary", "nan-last-point"])
    def test_failed_buffer_leaves_nothing_behind(self, failure):
        """A rejected buffer leaves the engine as constructed, so a retry
        with a good buffer matches a fresh engine.  The prefix is
        assigned in blocks, and its first block ends before point 64."""
        good = mix_prefix(500)
        where = {"nan-mid-buffer": 300, "nan-first-point": 0,
                 "nan-at-block-boundary": 64, "nan-last-point": 499}
        if failure in where:
            i = where[failure]
            bad = list(good)
            bad[i] = StreamPoint((math.nan, good[i].coords[1]), good[i].t)
        else:
            bad = good[:3]
        eng = StreamEngine(MIX_CFG, dim=2)
        with pytest.raises(StreamClusteringError):
            eng.initialize(bad)
        assert not eng.initialized
        assert len(eng.space) == 0
        assert eng.counters()["points"] == 0
        eng.initialize(good)
        fresh = StreamEngine(MIX_CFG, dim=2)
        fresh.initialize(good)
        assert eng.tree.forest_state() == fresh.tree.forest_state()
        assert eng.counters() == fresh.counters()

    def test_block_search_keeps_transient_memory_small(self):
        """A 4,000-point 8-d prefix in which most points found cells:
        the blocks are sized from the store, so what ``initialize``
        allocates and frees again stays under 1 MB.  Blocks of a fixed
        64 points would need a 16 MB temporary by the end."""
        rng = np.random.default_rng(3)
        far = rng.uniform(0.0, 100.0, size=(4000, 8))
        far[::10] = rng.integers(0, 4, size=(400, 1)) * 50.0  # 4 dense cells
        prefix = [StreamPoint.of(x, i * 1e-3) for i, x in enumerate(far)]
        eng = StreamEngine(replace(MIX_CFG, r=1.0), dim=8)
        tracemalloc.start()
        try:
            eng.initialize(prefix)
            final, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(eng.space) > 3000
        assert len(eng.tree) >= 2
        assert peak - final < 1 << 20

    def test_prefix_cells_join_the_reservoir_in_touch_order(self):
        """The prefix founds cell 0 at t=0 and cell 1 at t=0.5, then
        touches cell 0 again at t=1.2; both stay inactive.  At the first
        sweep (t=1.6, horizon 0.98 s) only cell 1 has expired.  Recycling
        scans the reservoir in touch order, so ``initialize`` must put
        its cells by (t_last, id): put by id, cell 0 (inside the
        horizon) comes first and hides the expired cell 1."""
        init = (pts([0], 0.0) + pts([10], 0.5) + pts([0], 1.2)
                + pts([30, 30, 30], 1.2))
        eng = StreamEngine(TOY_CFG, dim=1)
        eng.initialize(init)
        assert eng.reservoir.ids() == [0, 1]
        assert list(eng.reservoir.last_touch) == [1, 0]
        for p in pts([30] * TOY_CFG.sweep_interval, 1.6):
            eng.process_point(p)
        assert eng.sweep_count == 1
        assert eng.reservoir.ids() == [0]
        assert 1 not in eng.space
        assert eng.counters()["recycled_cells"] == 1


class TestAlphaLearning:
    def test_two_blob_stream_learns_alpha(self):
        stream = generate(builtin("sds"), seed=7)[:1000]
        cfg = EngineConfig(r=1.6, a=0.998, lam=1000.0, v=1000.0, beta=0.0021,
                           tau0=5.0, sweep_interval=100)
        eng = StreamEngine(cfg, dim=2)
        eng.initialize(stream)
        assert eng.alpha_learned == pytest.approx(0.01)
        assert eng.tau_state.alpha == eng.alpha_learned
        assert len(eng.last_snapshot.clusters) == 2


class TestLifecycle:
    """One deterministic pass through every cell state transition.

    Three fed blobs at x=0/10/30; a burst at x=100 activates a fourth
    cell whose huge dependency distance lifts the selected threshold
    (merging the loosest standing link), then starves away.
    """

    BLOCKS = [
        pts([0, 10, 30], 0.5),
        pts([100, 100.1, 99.9, 100.05, 0, 10], 1.0),
        pts([0, 0.1, 10, 10.1, 30, 30.1], 2.0),
        pts([0, 0.1, 10, 10.1, 30, 30.1], 3.0),
        pts([0, 0.1, 10, 10.1, 30, 30.1], 4.0),
        pts([0, 0.1, 10, 10.1, 30, 30.1], 5.0),
    ]

    def run(self):
        eng = StreamEngine(TOY_CFG, dim=1)
        eng.initialize(TOY_INIT)
        for block in self.BLOCKS:
            for p in block:
                eng.process_point(p)
        return eng

    def test_event_narrative(self):
        eng = self.run()
        assert list(eng.log) == [
            EvolutionEvent(1.0, "Merge", (0, 6), (0,), cause="link-below-tau"),
            EvolutionEvent(1.0, "Emerge", (), (12,), cause="activation"),
            EvolutionEvent(4.0, "Split", (0,), (0, 6), cause="link-above-tau"),
            EvolutionEvent(4.0, "Disappear", (12,), (), cause="deactivation"),
        ]

    def test_tau_follows_the_link_structure(self):
        # the burst cell's 70-unit link raises the second-largest delta
        # to 20; its disappearance drops it back to 10
        eng = self.run()
        assert eng.tau_state.tau == 10.0
        assert [c.members for c in eng.last_snapshot.clusters] == [(0, 3), (6,)]

    def test_starved_cell_is_recycled(self):
        eng = self.run()
        assert sorted(eng.space.cells) == [0, 3, 6]
        assert list(eng.reservoir.ids()) == []

    def test_counters_track_the_story(self):
        eng = self.run()
        c = eng.counters()
        assert c["points"] == 9 + sum(len(b) for b in self.BLOCKS)
        assert c["new_cells"] == 4
        assert c["activations"] == 1
        assert c["deactivations"] == 1
        assert c["recycled_cells"] == 1
        assert c["sweeps"] == 5
        assert c["events"] == 4

    def test_founded_cell_joins_the_reservoir(self):
        eng = StreamEngine(TOY_CFG, dim=1)
        eng.initialize(TOY_INIT)
        before = eng.counters()["new_cells"]
        eng.process_point(StreamPoint((50.0,), 0.5))
        res = eng.last_assign
        assert res.created
        assert res.cell_id in eng.reservoir
        assert eng.reservoir.last_touch[res.cell_id] == 0.5
        assert eng.counters()["new_cells"] == before + 1

    def test_recycle_off_keeps_the_corpse(self):
        cfg = EngineConfig(r=1.0, a=0.8, lam=1.0, v=4.0, beta=0.12, tau0=12.0,
                           alpha=0.2, init_cell_count=3, sweep_interval=6,
                           recycle=False)
        eng = StreamEngine(cfg, dim=1)
        eng.initialize(TOY_INIT)
        for block in self.BLOCKS:
            for p in block:
                eng.process_point(p)
        assert sorted(eng.space.cells) == [0, 3, 6, 12]
        assert list(eng.reservoir.ids()) == [12]
        assert eng.counters()["recycled_cells"] == 0


class TestSweepCadence:
    def test_sweep_every_interval(self):
        eng = StreamEngine(MIX_CFG, dim=2)
        stream = mix_prefix(1300)
        eng.initialize(stream[:500])
        for i, p in enumerate(stream[500:], start=1):
            eng.process_point(p)
            assert eng.sweep_count == i // MIX_CFG.sweep_interval

    def test_state_errors_before_init(self):
        eng = StreamEngine(TOY_CFG, dim=1)
        with pytest.raises(EngineStateError):
            eng.process_point(StreamPoint((0.0,), 0.0))


class TestNonFiniteInput:
    @pytest.mark.parametrize("coord, t", [
        (math.nan, None), (math.inf, None), (None, math.nan), (None, -math.inf)])
    def test_rejected_without_state_change(self, coord, t):
        """A rejected point leaves the engine exactly as if it never
        arrived."""
        eng = run_mix(650)
        good = mix_prefix(651)[650]
        bad = StreamPoint((good.coords[0], good.coords[1] if coord is None else coord),
                          good.t if t is None else t)

        def state():
            return (eng.space.points_seen, eng.space.last_t, eng.now,
                    eng.counters(), eng.tree.forest_state(), len(eng.space))

        before = state()
        with pytest.raises(StreamClusteringError):
            eng.process_point(bad)
        assert state() == before
        eng.process_point(good)
        ref = run_mix(651)
        assert eng.counters() == ref.counters()
        assert eng.tree.forest_state() == ref.tree.forest_state()


class TestDeterminism:
    def test_identical_replays_match_exactly(self):
        runs = []
        for _ in range(2):
            eng = run_mix(3000)
            runs.append((list(eng.log), eng.snapshot_rows(), eng.counters(),
                         eng.tau_state.tau))
        assert runs[0] == runs[1]


class TestFilterModes:
    def test_modes_agree_and_skip_work(self):
        engines = {}
        for mode in ("off", "density", "both"):
            cfg = EngineConfig(r=1.6, a=0.998, lam=1000.0, v=1000.0,
                               beta=0.0021, tau0=5.0, alpha=0.05,
                               sweep_interval=100, filters=mode)
            engines[mode] = run_mix(3000, config=cfg)
        base = engines["off"]
        for mode in ("density", "both"):
            eng = engines[mode]
            assert list(eng.log) == list(base.log)
            assert eng.snapshot_rows() == base.snapshot_rows()
            assert eng.tree.parent == base.tree.parent
        evals = {m: e.counters()["seed_distance_evals"]
                 for m, e in engines.items()}
        skips = {m: e.counters()["filter_skips"] for m, e in engines.items()}
        assert skips["off"] == 0
        assert skips["both"] > skips["density"] > 0
        assert evals["both"] < evals["density"] < evals["off"]


class TestIncrementalMatchesScratch:
    def test_forest_and_partition_match_batch_recomputation(self):
        stream = mix_prefix(2500)
        eng = StreamEngine(MIX_CFG, dim=2)
        eng.initialize(stream[:500])
        threshold = active_threshold(eng.params)
        checked = 0
        for i, p in enumerate(stream[500:], start=1):
            eng.process_point(p)
            if i % MIX_CFG.sweep_interval:
                continue
            t = eng.now
            # the activity partition is a pure threshold function
            should_be_active = {
                cid for cid in eng.space.cells
                if eng.space.cell_density_at(cid, t) >= threshold}
            assert set(eng.space.active_ids()) == should_be_active
            # the incrementally maintained forest equals a fresh build
            scratch = DPTree.build(eng.space, filters=MIX_CFG.filters)
            assert eng.tree.parent == scratch.parent
            assert eng.tree.delta == scratch.delta
            tau = eng.tau_state.tau
            ours = eng.tree.extract_clusters(tau, t)
            theirs = scratch.extract_clusters(tau, t)
            assert same_clustering(ours, theirs)
            checked += 1
        assert checked == 20


class TestSnapshotRows:
    def test_rows_cover_members_and_outliers(self):
        eng = run_mix(2000)
        rows = eng.snapshot_rows()
        snap = eng.last_snapshot
        ids = [r[0] for r in rows]
        assert ids == sorted(ids)
        members = snap.membership()
        assert set(ids) == set(members) | set(snap.outlier_cells)
        for cid, cluster_id, rho, delta, seed in rows:
            if cid in members:
                assert cluster_id == members[cid]
                assert math.isfinite(delta) or eng.tree.parent[cid] is None
            else:
                assert cluster_id == -1
                assert delta == math.inf
            assert rho == eng.space.cell_density_at(cid, snap.time)
            assert seed == eng.space.cell(cid).seed

    def test_counter_names_are_stable(self):
        eng = run_mix(1100)
        assert set(eng.counters()) == {
            "points", "new_cells", "relinks", "activations", "deactivations",
            "recycled_cells", "sweeps", "events", "seed_distance_evals",
            "filter_skips"}
