"""Batch reference implementations, checked against hand computations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streampeaks.cells import CellSpace, StreamPoint
from streampeaks.decay import DecayParams
from streampeaks.deptree import Cluster, ClusterSnapshot, DPTree
from streampeaks.errors import MissingLabels
from streampeaks.reference import LabeledAssignment, weighted_purity

from _oracles import BatchParams, batch_dp, recompute_all

PARAMS = DecayParams(a=0.998, lam=1.0, v=1000.0, beta=0.0021)

BLOB_A = [(0.0, 0.0), (0.1, 0.0), (0.0, 0.1), (-0.1, 0.0), (0.0, -0.1)]
BLOB_B = [(x + 10.0, y) for x, y in BLOB_A]


def pairwise_rho(points, d_c):
    """Exhaustive neighborhood count, the point itself included."""
    return [sum(math.dist(p, q) < d_c for q in points) for p in points]


def make_space(cells, r=0.05, t=0.0):
    sp = CellSpace(PARAMS, r=r, dim=len(cells[0][1]))
    for rho, seed in cells:
        res = sp.assign_point(StreamPoint.of(seed, t))
        assert res.created
        cell = sp.cell(res.cell_id)
        cell.rho_last = float(rho)
        cell.active = True
    return sp


class TestBatchDP:
    def test_two_blobs_make_two_clusters(self):
        res = batch_dp(BLOB_A + BLOB_B, BatchParams(d_c=0.5, xi=1.0, tau=5.0))
        assert list(res.rho) == pairwise_rho(BLOB_A + BLOB_B, 0.5) == [5] * 10
        assert res.outliers == ()
        assert res.dep == (None, 0, 0, 0, 0, 1, 5, 5, 5, 5)
        assert res.delta[0] == math.inf
        assert res.delta[5] == pytest.approx(9.9)
        assert [pytest.approx(0.1)] * 4 == list(res.delta[1:5])
        assert res.clusters == (Cluster(0, (0, 1, 2, 3, 4)),
                                Cluster(5, (5, 6, 7, 8, 9)))

    def test_identical_points_collapse_to_lowest_id(self):
        res = batch_dp([(1.0, 1.0)] * 4, BatchParams(d_c=0.5, xi=1.0, tau=2.0))
        assert res.rho == (4, 4, 4, 4)
        assert res.clusters == (Cluster(0, (0, 1, 2, 3)),)

    def test_single_point_is_an_outlier_at_xi_one(self):
        res = batch_dp([(2.0, 3.0)], BatchParams(d_c=0.5, xi=1.0, tau=1.0))
        assert res.rho == (1,)
        assert res.outliers == (0,)
        assert res.clusters == ()
        assert res.dep == (None,)

    def test_density_count_is_strictly_inside_d_c(self):
        res = batch_dp([(0.0,), (1.0,)], BatchParams(d_c=1.0, xi=0.5, tau=9.0))
        assert res.rho == (1, 1)

    def test_density_exactly_at_xi_is_an_outlier(self):
        res = batch_dp([(0.0,), (0.0,)], BatchParams(d_c=0.5, xi=2.0, tau=1.0))
        assert res.outliers == (0, 1)
        assert res.clusters == ()

    def test_outliers_take_no_dependency(self):
        pts = BLOB_A + [(50.0, 50.0)]
        res = batch_dp(pts, BatchParams(d_c=0.5, xi=1.0, tau=5.0))
        assert res.outliers == (5,)
        assert res.dep[5] is None and res.delta[5] == math.inf
        assert res.clusters == (Cluster(0, (0, 1, 2, 3, 4)),)

    def test_link_exactly_at_tau_stays_intra(self):
        res = batch_dp([(0.0,), (1.0,)], BatchParams(d_c=2.0, xi=0.5, tau=1.0))
        assert res.delta[1] == 1.0
        assert res.clusters == (Cluster(0, (0, 1)),)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            batch_dp([], BatchParams(d_c=1.0, xi=1.0, tau=1.0))

    def test_ragged_input_rejected(self):
        with pytest.raises(ValueError):
            batch_dp([(0.0, 1.0), (2.0,)], BatchParams(1.0, 1.0, 1.0))

    @pytest.mark.parametrize("field", ["d_c", "xi", "tau"])
    def test_params_must_be_positive(self, field):
        values = {"d_c": 1.0, "xi": 1.0, "tau": 1.0, field: 0.0}
        with pytest.raises(ValueError):
            BatchParams(**values)

    @settings(max_examples=150)
    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)),
                    min_size=1, max_size=25))
    def test_matches_exhaustive_definition(self, grid_pts):
        pts = [(x * 0.5, y * 0.5) for x, y in grid_pts]
        params = BatchParams(d_c=1.1, xi=1.0, tau=2.0)
        res = batch_dp(pts, params)
        rho = pairwise_rho(pts, params.d_c)
        assert list(res.rho) == rho
        assert set(res.outliers) == {i for i, r in enumerate(rho)
                                     if r <= params.xi}
        core = [i for i in range(len(pts)) if i not in res.outliers]
        for i in core:
            denser = [j for j in core if (rho[j], -j) > (rho[i], -i)]
            if not denser:
                assert res.dep[i] is None and res.delta[i] == math.inf
                continue
            best = min(math.dist(pts[i], pts[j]) for j in denser)
            assert res.delta[i] == pytest.approx(best)
            assert res.dep[i] in denser
            assert math.dist(pts[i], pts[res.dep[i]]) == res.delta[i]
        clustered = [m for c in res.clusters for m in c.members]
        assert sorted(clustered) == core
        for c in res.clusters:
            assert c.root == max(c.members, key=lambda i: (rho[i], -i))


class TestRecomputeAll:
    def test_three_cell_chain(self):
        sp = make_space([(5, (0.0, 0.0)), (3, (1.0, 0.0)), (2, (3.0, 0.0))])
        assert recompute_all(sp, 0.0) == {0: (None, math.inf), 1: (0, 1.0),
                                          2: (1, 2.0)}

    def test_empty_and_single(self):
        sp = CellSpace(PARAMS, r=0.05, dim=2)
        assert recompute_all(sp, 0.0) == {}
        sp = make_space([(5, (0.0, 0.0))])
        assert recompute_all(sp, 0.0) == {0: (None, math.inf)}

    def test_only_active_cells_appear(self):
        sp = make_space([(5, (0.0, 0.0)), (3, (1.0, 0.0)), (2, (3.0, 0.0))])
        sp.cell(1).active = False
        assert set(recompute_all(sp, 0.0)) == {0, 2}

    def test_equals_incremental_forest_on_random_states(self):
        rng = np.random.default_rng(7)
        sp = CellSpace(PARAMS, r=0.35, dim=2)
        for i in range(600):
            xy = tuple(rng.uniform(0.0, 8.0, size=2))
            sp.assign_point(StreamPoint.of(xy, i * 0.01))
        for cell in sp.cells.values():
            cell.active = True
        assert len(sp) >= 200
        tree = DPTree.build(sp)
        assert recompute_all(sp, sp.last_t) == tree.forest_state()

    def test_invariant_under_cell_iteration_order(self):
        sp = make_space([(5, (0.0, 0.0)), (3, (1.0, 0.0)), (4, (0.2, 0.9)),
                         (2, (3.0, 0.0))])
        expect = recompute_all(sp, 0.0)
        order = sorted(sp.cells, key=lambda cid: -cid)
        sp.cells = {cid: sp.cells[cid] for cid in order}
        assert recompute_all(sp, 0.0) == expect


class TestBatchAgreesWithStreamingTree:
    """With one point per cell, one shared timestamp, and d_c below every
    pairwise distance, the streaming clustering and the batch one must
    coincide exactly."""

    def run_round(self, pts, tau):
        sp = CellSpace(PARAMS, r=1e-6, dim=2)
        for p in pts:
            assert sp.assign_point(StreamPoint.of(p, 0.0)).created
            sp.cell(len(sp) - 1).active = True
        tree = DPTree.build(sp)
        snap = tree.extract_clusters(tau, 0.0)
        min_gap = min(math.dist(p, q) for i, p in enumerate(pts)
                      for q in pts[i + 1:])
        batch = batch_dp(pts, BatchParams(d_c=min_gap / 2, xi=0.5, tau=tau))
        assert batch.outliers == ()
        assert batch.clusters == snap.clusters

    def test_crafted_instance(self):
        pts = [(0.0, 0.0), (0.9, 0.1), (2.2, 0.0), (0.4, 1.3), (3.1, 1.1),
               (5.0, 5.0), (5.4, 5.3)]
        self.run_round(pts, tau=1.6)

    def test_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            while True:
                pts = [tuple(xy) for xy in rng.uniform(0, 10, size=(18, 2))]
                gap = min(math.dist(p, q) for i, p in enumerate(pts)
                          for q in pts[i + 1:])
                if gap > 0.05:
                    break
            self.run_round(pts, tau=1.2)


def purity_snapshot(groups):
    clusters = tuple(Cluster(min(ms), tuple(sorted(ms))) for ms in groups)
    return ClusterSnapshot(0.0, 1.0, clusters, ())


class TestWeightedPurity:
    def test_separated_labels_score_one(self):
        snap = purity_snapshot([{0, 1}, {2}])
        marks = [LabeledAssignment(0, "a", 0.0), LabeledAssignment(1, "a", 0.0),
                 LabeledAssignment(2, "b", 0.0)]
        assert weighted_purity(snap, marks, PARAMS, 0.0) == 1.0

    def test_even_two_label_mix_scores_half(self):
        snap = purity_snapshot([{0, 1}])
        marks = [LabeledAssignment(0, "a", 0.0), LabeledAssignment(1, "b", 0.0)]
        assert weighted_purity(snap, marks, PARAMS, 0.0) == 0.5

    def test_stale_minority_label_fades(self):
        params = DecayParams(a=0.5, lam=1.0, v=1.0, beta=0.6)
        snap = purity_snapshot([{0}])
        marks = [LabeledAssignment(0, "old", 0.0),
                 LabeledAssignment(0, "new", 10.0)]
        got = weighted_purity(snap, marks, params, 10.0)
        assert got == pytest.approx(1.0 / (1.0 + 0.5**10))
        assert got > 0.999

    def test_no_labels_is_an_error(self):
        snap = purity_snapshot([{0}])
        with pytest.raises(MissingLabels):
            weighted_purity(snap, [], PARAMS, 0.0)

    def test_labels_outside_clusters_do_not_count(self):
        snap = purity_snapshot([{0}])
        with pytest.raises(MissingLabels):
            weighted_purity(snap, [LabeledAssignment(9, "a", 0.0)], PARAMS,
                            0.0)
        marks = [LabeledAssignment(0, "a", 0.0),
                 LabeledAssignment(9, "b", 0.0)]
        assert weighted_purity(snap, marks, PARAMS, 0.0) == 1.0

    @settings(max_examples=150)
    @given(st.lists(st.tuples(st.integers(0, 3), st.sampled_from("ab")),
                    min_size=1, max_size=30))
    def test_bounded_and_at_least_dominant_share(self, marks):
        snap = purity_snapshot([{0, 1}, {2, 3}])
        labeled = [LabeledAssignment(cid, lab, 0.0) for cid, lab in marks]
        got = weighted_purity(snap, labeled, PARAMS, 0.0)
        assert 0.5 <= got <= 1.0
