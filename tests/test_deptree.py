"""Dependency forest: linking rules, update filters, cluster extraction."""

import math

import numpy as np
import pytest

from streampeaks.cells import CellSpace, StreamPoint
from streampeaks.decay import DecayParams
from streampeaks.deptree import (
    DPTree,
    PointDistances,
    density_filter_skips,
    triangle_filter_skips,
)
from streampeaks.errors import CellStateError

PARAMS = DecayParams(a=0.998, lam=1.0, v=1000.0, beta=0.0021)


def make_space(cells, r=0.05, t=0.0):
    """One active cell per (rho, seed) pair; ids follow list order."""
    sp = CellSpace(PARAMS, r=r, dim=len(cells[0][1]))
    for rho, seed in cells:
        res = sp.assign_point(StreamPoint.of(seed, t))
        assert res.created
        cell = sp.cell(res.cell_id)
        cell.rho_last = float(rho)
        cell.active = True
    return sp


def brute_deps(sp):
    """Independent reference: for every active cell, scan all denser
    actives (densities read at a shared time, ties by smaller id) and
    take the minimum seed distance, again ties by smaller id."""
    ids = sp.active_ids()
    shared_t = max(sp.cell(c).t_last for c in ids)
    dens = {c: sp.cell(c).rho_last
            * PARAMS.a ** (PARAMS.lam * (shared_t - sp.cell(c).t_last))
            for c in ids}
    out = {}
    for c in ids:
        denser = [e for e in ids if (dens[e], -e) > (dens[c], -c)]
        best, best_id = math.inf, None
        for e in denser:
            d = math.dist(sp.cell(c).seed, sp.cell(e).seed)
            if d < best or (d == best and e < best_id):
                best, best_id = d, e
        out[c] = (best_id, best)
    return out


def assert_matches_brute(tree):
    expect = brute_deps(tree.space)
    got = tree.forest_state()
    assert set(got) == set(expect)
    for c, (dep, delta) in expect.items():
        assert got[c][0] == dep
        if math.isfinite(delta):
            assert got[c][1] == pytest.approx(delta, rel=1e-12)
        else:
            assert got[c][1] == math.inf


def assert_equals_scratch(tree):
    scratch = DPTree.build(tree.space, filters=tree.filters)
    assert tree.forest_state() == scratch.forest_state()
    assert tree.check_order_index()


class TestComputeDependency:
    def test_three_cell_chain(self):
        sp = make_space([(5, (0.0, 0.0)), (3, (1.0, 0.0)), (2, (3.0, 0.0))])
        tree = DPTree.build(sp)
        a, b, c = 0, 1, 2
        assert tree.compute_dependency(b) == (a, pytest.approx(1.0))
        assert tree.compute_dependency(c) == (b, pytest.approx(2.0))
        assert tree.compute_dependency(a) == (None, math.inf)
        assert_matches_brute(tree)

    def test_single_cell(self):
        sp = make_space([(5, (0.0, 0.0))])
        tree = DPTree.build(sp)
        assert tree.compute_dependency(0) == (None, math.inf)

    def test_equal_density_lower_id_is_denser(self):
        sp = make_space([(4, (0.0, 0.0)), (4, (1.0, 0.0))])
        tree = DPTree.build(sp)
        assert tree.parent[1] == 0
        assert tree.parent[0] is None
        assert_matches_brute(tree)

    def test_not_in_tree(self):
        sp = make_space([(5, (0.0, 0.0))])
        tree = DPTree.build(sp)
        with pytest.raises(CellStateError):
            tree.compute_dependency(42)


class TestFilterPredicates:
    def test_density_skip_still_denser(self):
        assert density_filter_skips(5.0, 4.99, 3.0, 3.994)

    def test_density_skip_already_denser(self):
        assert density_filter_skips(2.0, 1.996, 3.0, 3.994)

    def test_density_crossed_must_check(self):
        assert not density_filter_skips(3.5, 3.493, 3.0, 3.994)

    def test_triangle_skip(self):
        assert triangle_filter_skips(10.0, 2.0, 5.0)

    def test_triangle_must_check(self):
        assert not triangle_filter_skips(3.0, 2.0, 5.0)

    def test_triangle_boundary_is_must_check(self):
        assert not triangle_filter_skips(7.0, 2.0, 5.0)


class TestOnDensityIncrease:
    def test_chain_leader_change(self):
        """C outgrows B: C relinks to A; B stays put because it sits
        closer to A than to C."""
        sp = make_space([(5, (0.0, 0.0)), (3, (1.0, 0.0)), (2, (3.0, 0.0))])
        tree = DPTree.build(sp)
        sp.cell(2).rho_last = 4.0
        records = tree.on_density_increase(2)
        assert tree.parent[2] == 0
        assert tree.delta[2] == pytest.approx(3.0)
        assert tree.parent[1] == 0
        assert [r.cell for r in records] == [2]
        assert_matches_brute(tree)
        assert_equals_scratch(tree)

    def test_least_dense_absorption_changes_nothing(self):
        sp = make_space([(5, (0.0, 0.0)), (3, (1.0, 0.0)), (2, (3.0, 0.0))])
        tree = DPTree.build(sp)
        before = tree.forest_state()
        sp.cell(2).rho_last = 2.5  # still least dense
        records = tree.on_density_increase(2)
        assert records == []
        assert tree.forest_state() == before

    def test_new_peak_takes_over_root(self):
        sp = make_space([(5, (0.0, 0.0)), (3, (0.4, 0.0))])
        tree = DPTree.build(sp)
        sp.cell(1).rho_last = 9.0
        tree.on_density_increase(1)
        assert tree.parent[1] is None and tree.delta[1] == math.inf
        assert tree.parent[0] == 1 and tree.delta[0] == pytest.approx(0.4)
        assert_equals_scratch(tree)

    def test_relinks_only_hit_order_flipped_cells(self):
        """Every relinked cell must fail the density-filter skip test,
        evaluated on plain decayed densities."""
        rng = np.random.default_rng(11)
        sp, tree, t = _grid_space_tree(rng, filters="density")
        for _ in range(200):
            t += float(rng.random()) * 0.3
            densities = {e: sp.cell_density_at(e, t) for e in tree.nodes()}
            cid, _ = _absorb_random(sp, tree, rng, t, apply=False)
            absorbed = sp.cell_density_at(cid, t)
            records = tree.on_density_increase(cid, PointDistances(sp))
            for rec in records:
                if rec.cell == cid:
                    continue
                assert not density_filter_skips(
                    densities[rec.cell], densities[rec.cell],
                    densities[cid], absorbed)


class TestInsertActive:
    def test_new_densest_cell_captures_old_root(self):
        sp = make_space([(5, (0.0, 0.0)), (3, (2.0, 0.0))])
        res = sp.assign_point(StreamPoint.of((0.1, 0.0), 0.0))
        new = res.cell_id
        cell = sp.cell(new)
        cell.rho_last, cell.active = 10.0, True
        tree = DPTree(sp)
        for cid in (0, 1):
            tree.insert_active(cid)
        records = tree.insert_active(new)
        by_cell = {r.cell: r for r in records}
        assert by_cell[0].new_dep == new
        assert by_cell[0].new_delta == pytest.approx(0.1)
        assert tree.parent[new] is None
        assert_equals_scratch(tree)

    def test_far_least_dense_cell_relinks_nobody(self):
        sp = make_space([(5, (0.0, 0.0)), (3, (1.0, 0.0))])
        res = sp.assign_point(StreamPoint.of((10.0, 0.0), 0.0))
        cell = sp.cell(res.cell_id)
        cell.rho_last, cell.active = 0.5, True
        tree = DPTree(sp)
        for cid in (0, 1):
            tree.insert_active(cid)
        records = tree.insert_active(res.cell_id)
        assert records == []
        assert tree.parent[res.cell_id] == 1
        assert tree.delta[res.cell_id] == pytest.approx(9.0)
        assert_equals_scratch(tree)

    def test_double_insert_rejected(self):
        sp = make_space([(5, (0.0, 0.0))])
        tree = DPTree.build(sp)
        with pytest.raises(CellStateError):
            tree.insert_active(0)

    def test_inactive_cell_rejected(self):
        sp = make_space([(5, (0.0, 0.0))])
        res = sp.assign_point(StreamPoint.of((3.0, 0.0), 0.0))
        tree = DPTree.build(sp)
        with pytest.raises(CellStateError):
            tree.insert_active(res.cell_id)


class TestRemoveSubtree:
    def _chain(self):
        sp = make_space([(5, (0.0, 0.0)), (3, (1.0, 0.0)), (2, (3.0, 0.0))])
        return sp, DPTree.build(sp)

    def test_leaf(self):
        sp, tree = self._chain()
        assert tree.remove_subtree(2) == [2]
        assert set(tree.nodes()) == {0, 1}
        sp.cell(2).active = False
        assert_equals_scratch(tree)

    def test_interior_takes_descendants(self):
        sp, tree = self._chain()
        assert tree.remove_subtree(1) == [1, 2]
        assert set(tree.nodes()) == {0}
        for cid in (1, 2):
            sp.cell(cid).active = False
        assert_equals_scratch(tree)

    def test_root_takes_everything(self):
        sp, tree = self._chain()
        assert tree.remove_subtree(0) == [0, 1, 2]
        assert tree.nodes() == []

    def test_unknown_cell(self):
        _, tree = self._chain()
        with pytest.raises(CellStateError):
            tree.remove_subtree(9)


class TestExtractClusters:
    def _forked(self):
        # A(0) at origin; B(1) hangs off A at 0.5; C(2) hangs off A at 3.
        sp = make_space([(5, (0.0, 0.0)), (2, (0.5, 0.0)), (3, (3.0, 0.0))])
        return DPTree.build(sp)

    def test_cut_at_one(self):
        snap = self._forked().extract_clusters(1.0, t=0.0)
        assert [(c.root, c.members) for c in snap.clusters] == [
            (0, (0, 1)), (2, (2,))]

    def test_infinite_tau_single_cluster(self):
        snap = self._forked().extract_clusters(math.inf, t=0.0)
        assert len(snap.clusters) == 1
        assert snap.clusters[0].members == (0, 1, 2)

    def test_tau_below_all_deltas_gives_singletons(self):
        snap = self._forked().extract_clusters(0.1, t=0.0)
        assert [c.members for c in snap.clusters] == [(0,), (1,), (2,)]

    def test_boundary_delta_equal_tau_stays_linked(self):
        snap = self._forked().extract_clusters(0.5, t=0.0)
        assert snap.cluster_ids() == (0, 2)

    def test_nonpositive_tau_rejected(self):
        tree = self._forked()
        with pytest.raises(ValueError):
            tree.extract_clusters(0.0, t=0.0)

    def test_membership_and_equality_helpers(self):
        snap = self._forked().extract_clusters(1.0, t=0.0, outliers=(7, 5))
        assert snap.membership() == {0: 0, 1: 0, 2: 2}
        assert snap.outlier_cells == (5, 7)
        other = self._forked().extract_clusters(1.0, t=0.0, outliers=(9,))
        assert snap.same_clustering(other)


def _grid_space_tree(rng, filters="both", n_side=4, spacing=3.0, r=0.35):
    """A grid of active cells with random densities plus a built tree."""
    sp = CellSpace(PARAMS, r=r, dim=2)
    for i in range(n_side):
        for j in range(n_side):
            sp.assign_point(StreamPoint.of((spacing * i, spacing * j), 0.0))
    for cell in sp.cells.values():
        cell.active = True
        cell.rho_last = 1.0 + 10.0 * float(rng.random())
    return sp, DPTree.build(sp, filters=filters), 0.0


def _absorb_random(sp, tree, rng, t, apply=True):
    """Feed a point just off a random in-tree seed so that cell absorbs it."""
    nodes = tree.nodes()
    cid = nodes[int(rng.integers(len(nodes)))]
    jitter = rng.uniform(-0.1, 0.1, size=2)
    p = StreamPoint.of(np.asarray(sp.cell(cid).seed) + jitter, t)
    res = sp.assign_point(p)
    assert res.cell_id == cid and not res.created
    if apply:
        tree.on_density_increase(cid, PointDistances(sp))
    return cid, res


class TestIncrementalEqualsScratch:
    def test_random_absorb_activate_deactivate_sequence(self):
        """After every structural event the maintained forest equals a
        from-scratch rebuild, exactly."""
        rng = np.random.default_rng(20260815)
        sp, tree, t = _grid_space_tree(rng)
        inactive_pool = []
        def reactivate():
            cid = inactive_pool.pop()
            cell = sp.cell(cid)
            cell.rho_last = 1.0 + 10.0 * float(rng.random())
            cell.t_last = t
            cell.active = True
            tree.insert_active(cid)

        for step in range(300):
            t += float(rng.random()) * 0.3
            roll = float(rng.random())
            if roll < 0.70 or len(tree) < 4:
                _absorb_random(sp, tree, rng, t)
            elif roll < 0.85 and inactive_pool:
                reactivate()
            else:
                nodes = tree.nodes()
                victim = nodes[int(rng.integers(len(nodes)))]
                removed = tree.remove_subtree(victim)
                for cid in removed:
                    sp.cell(cid).active = False
                    inactive_pool.append(cid)
                if len(tree) == 0:
                    reactivate()
            assert_equals_scratch(tree)
            if step % 25 == 0:
                assert_matches_brute(tree)

    def test_nearest_denser_invariant(self):
        """No denser cell sits closer than the recorded dependent distance."""
        rng = np.random.default_rng(5)
        sp, tree, t = _grid_space_tree(rng)
        for _ in range(100):
            t += float(rng.random()) * 0.3
            _absorb_random(sp, tree, rng, t)
        from streampeaks.cells import seed_distance
        for c in tree.nodes():
            for e in tree.nodes():
                if e != c and tree.denser(e, c):
                    assert seed_distance(sp.cell(c).seed, sp.cell(e).seed) \
                        >= tree.delta[c]

    def test_single_root(self):
        rng = np.random.default_rng(9)
        sp, tree, t = _grid_space_tree(rng)
        for _ in range(60):
            t += float(rng.random()) * 0.3
            _absorb_random(sp, tree, rng, t)
            roots = [c for c in tree.nodes() if tree.parent[c] is None]
            assert len(roots) == 1
            assert tree.delta[roots[0]] == math.inf


class TestFilterEquivalence:
    def test_all_modes_identical_work_strictly_ordered(self):
        """1000 random absorptions: identical forests and relink records
        across filter modes, with strictly decreasing distance work."""
        replicas = {}
        for mode in ("off", "density", "both"):
            rng = np.random.default_rng(31337)
            sp, tree, t = _grid_space_tree(rng, filters=mode)
            replicas[mode] = (sp, tree, rng, t)
        for step in range(1000):
            outputs = {}
            for mode, (sp, tree, rng, t) in replicas.items():
                t += float(rng.random()) * 0.3
                cid, res = _absorb_random(sp, tree, rng, t, apply=False)
                records = tree.on_density_increase(cid, PointDistances(sp))
                outputs[mode] = (cid, records, tree.forest_state())
                replicas[mode] = (sp, tree, rng, t)
            assert outputs["off"] == outputs["density"] == outputs["both"]
        evals = {mode: tree.seed_distance_evals
                 for mode, (sp, tree, rng, t) in replicas.items()}
        assert evals["both"] < evals["density"] < evals["off"]
