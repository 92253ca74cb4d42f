"""Snapshot diffing and the evolution event log."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streampeaks.deptree import Cluster, ClusterSnapshot
from streampeaks.errors import OutOfOrderTimestamp
from streampeaks.evolution import EventLog, EvolutionEvent, diff_snapshots

from _oracles import count_delta
from _snapshots import snapshot_pair


def snap(time, groups, outliers=()):
    clusters = tuple(sorted((Cluster(min(ms), tuple(sorted(ms))) for ms in groups),
                            key=lambda c: c.root))
    return ClusterSnapshot(time, 1.0, clusters, tuple(outliers))


class TestDiffKinds:
    def test_absorbing_a_cluster_is_a_merge(self):
        prev = snap(0.0, [{0, 1}, {2}])
        nxt = snap(1.0, [{0, 1, 2}])
        events = diff_snapshots(prev, nxt)
        assert events == [EvolutionEvent(1.0, "Merge", (0, 2), (0,),
                                         cause="link-below-tau")]

    def test_three_way_merge_lists_all_parents(self):
        prev = snap(0.0, [{0}, {1}, {2, 3}])
        nxt = snap(1.0, [{0, 1, 2, 3}])
        (e,) = diff_snapshots(prev, nxt)
        assert e.kind == "Merge"
        assert e.old_ids == (0, 1, 2)
        assert e.new_ids == (0,)

    def test_detaching_a_subtree_is_a_split(self):
        prev = snap(0.0, [{0, 1}])
        nxt = snap(1.0, [{0}, {1}])
        events = diff_snapshots(prev, nxt)
        assert events == [EvolutionEvent(1.0, "Split", (0,), (0, 1),
                                         cause="link-above-tau")]

    def test_new_cluster_from_nowhere_emerges(self):
        prev = snap(0.0, [{0}], outliers=(7,))
        nxt = snap(1.0, [{0}, {7}])
        events = diff_snapshots(prev, nxt)
        assert events == [EvolutionEvent(1.0, "Emerge", (), (7,),
                                         cause="activation")]

    def test_fully_deactivated_cluster_disappears(self):
        prev = snap(0.0, [{0}, {5, 6}])
        nxt = snap(1.0, [{0}], outliers=(5, 6))
        events = diff_snapshots(prev, nxt)
        assert events == [EvolutionEvent(1.0, "Disappear", (5,), (),
                                         cause="deactivation")]

    def test_unchanged_snapshots_diff_empty(self):
        prev = snap(0.0, [{0, 1}, {4}], outliers=(9,))
        nxt = snap(1.0, [{0, 1}, {4}], outliers=(9,))
        assert diff_snapshots(prev, nxt) == []

    def test_snapshots_must_not_run_backwards(self):
        s = snap(2.0, [{0}])
        with pytest.raises(OutOfOrderTimestamp):
            diff_snapshots(s, snap(1.0, [{0}]))


class TestRootHandover:
    def test_majority_carries_identity_without_emerge(self):
        prev = snap(0.0, [{0, 1, 2}])
        nxt = snap(1.0, [{1, 2}], outliers=(0,))
        events = diff_snapshots(prev, nxt)
        assert [e.kind for e in events] == ["Adjust", "Adjust"]
        assert events[0].adjust_kind == "MovedBetweenClusters"
        assert events[0].cause == "root-change"
        assert events[0].old_ids == (0,)
        assert events[0].new_ids == (1,)
        assert events[1].adjust_kind == "BecameOutliers"

    def test_exact_half_is_not_a_majority(self):
        prev = snap(0.0, [{0, 1, 2, 3}])
        nxt = snap(1.0, [{1}, {2, 3}], outliers=(0,))
        kinds = sorted(e.kind for e in diff_snapshots(prev, nxt))
        assert kinds == ["Disappear", "Emerge", "Emerge"]

    def test_handover_inside_a_merge_is_not_reported_twice(self):
        prev = snap(0.0, [{0, 1, 2}, {5}])
        nxt = snap(1.0, [{1, 2, 5}], outliers=(0,))
        events = diff_snapshots(prev, nxt)
        merge = events[0]
        assert merge.kind == "Merge"
        assert merge.old_ids == (0, 5)
        assert merge.new_ids == (1,)
        assert all(e.cause != "root-change" for e in events[1:])


class TestAdjusts:
    def test_cell_moving_between_survivors_is_a_relink_adjust(self):
        prev = snap(0.0, [{0, 3}, {1}])
        nxt = snap(1.0, [{0}, {1, 3}])
        events = diff_snapshots(prev, nxt)
        assert events == [EvolutionEvent(1.0, "Adjust", (0,), (1,),
                                         adjust_kind="MovedBetweenClusters",
                                         cause="relink")]

    def test_outliers_joining_a_survivor(self):
        prev = snap(0.0, [{0}], outliers=(4,))
        nxt = snap(1.0, [{0, 4}])
        events = diff_snapshots(prev, nxt)
        assert events == [EvolutionEvent(1.0, "Adjust", (), (0,),
                                         adjust_kind="OutliersJoined",
                                         cause="activation")]

    def test_members_falling_out_of_a_survivor(self):
        prev = snap(0.0, [{0, 4}])
        nxt = snap(1.0, [{0}], outliers=(4,))
        events = diff_snapshots(prev, nxt)
        assert events == [EvolutionEvent(1.0, "Adjust", (0,), (),
                                         adjust_kind="BecameOutliers",
                                         cause="deactivation")]

    def test_disappear_swallows_became_outliers(self):
        prev = snap(0.0, [{0}, {5, 6}])
        events = diff_snapshots(prev, snap(1.0, [{0}]))
        assert [e.kind for e in events] == ["Disappear"]

    def test_emerge_swallows_outliers_joined(self):
        prev = snap(0.0, [{0}])
        events = diff_snapshots(prev, snap(1.0, [{0}, {5, 6}]))
        assert [e.kind for e in events] == ["Emerge"]

    def test_split_remainder_gaining_cells_still_reports_joiners(self):
        prev = snap(0.0, [{0, 1}], outliers=(8,))
        nxt = snap(1.0, [{0, 8}, {1}])
        events = diff_snapshots(prev, nxt)
        assert [e.kind for e in events] == ["Split", "Adjust"]
        assert events[1].adjust_kind == "OutliersJoined"
        assert events[1].new_ids == (0,)


class TestEventOrdering:
    def test_structural_events_precede_adjusts(self):
        prev = snap(0.0, [{0, 1}, {2}, {3, 4}], outliers=(9,))
        nxt = snap(1.0, [{0, 1, 2, 9}, {3}, {4}])
        rank = {"Merge": 0, "Split": 0, "Emerge": 1, "Disappear": 1,
                "Adjust": 2}
        ranks = [rank[e.kind] for e in diff_snapshots(prev, nxt)]
        assert ranks == sorted(ranks)

    def test_all_events_carry_the_new_snapshot_time(self):
        prev = snap(0.0, [{0, 1}, {2}])
        nxt = snap(3.5, [{0, 1, 2}])
        assert all(e.time == 3.5 for e in diff_snapshots(prev, nxt))


class TestEventValidation:
    def test_merge_needs_two_parents(self):
        with pytest.raises(ValueError):
            EvolutionEvent(0.0, "Merge", (1,), (1,))

    def test_split_needs_two_children(self):
        with pytest.raises(ValueError):
            EvolutionEvent(0.0, "Split", (1,), (1,))

    def test_adjust_needs_a_kind(self):
        with pytest.raises(ValueError):
            EvolutionEvent(0.0, "Adjust", (1,), (2,))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            EvolutionEvent(0.0, "Vanish", (1,), ())

    def test_count_deltas(self):
        assert count_delta(EvolutionEvent(0, "Merge", (1, 2, 3), (1,))) == -2
        assert count_delta(EvolutionEvent(0, "Split", (1,), (1, 2))) == 1
        assert count_delta(EvolutionEvent(0, "Emerge", (), (1,))) == 1
        assert count_delta(EvolutionEvent(0, "Disappear", (1,), ())) == -1
        assert count_delta(EvolutionEvent(
            0, "Adjust", (1,), (2,), adjust_kind="MovedBetweenClusters")) == 0


class TestEventLog:
    def test_append_keeps_time_order(self):
        log = EventLog()
        log.append(EvolutionEvent(1.0, "Emerge", (), (1,)))
        log.append(EvolutionEvent(1.0, "Emerge", (), (2,)))
        log.append(EvolutionEvent(2.0, "Disappear", (1,), ()))
        with pytest.raises(OutOfOrderTimestamp):
            log.append(EvolutionEvent(1.5, "Emerge", (), (3,)))
        assert len(log) == 3

    def test_query_bounds_are_inclusive(self):
        log = EventLog()
        for t in (1.0, 2.0, 3.0):
            log.append(EvolutionEvent(t, "Emerge", (), (int(t),)))
        assert [e.time for e in log.query(1.0, 2.0)] == [1.0, 2.0]
        assert [e.time for e in log.query(2.0, 3.0, include_start=False)] \
            == [3.0]

    @given(st.lists(st.floats(0, 10, allow_nan=False), min_size=1,
                    max_size=30),
           st.floats(0, 10), st.floats(0, 10), st.floats(0, 10))
    def test_query_halves_partition_the_range(self, times, a, b, c):
        t1, t2, t3 = sorted((a, b, c))
        log = EventLog()
        for i, t in enumerate(sorted(times)):
            log.append(EvolutionEvent(t, "Emerge", (), (i,)))
        left = log.query(t1, t2)
        right = log.query(t2, t3, include_start=False)
        assert left + right == log.query(t1, t3)


class TestDiffProperties:
    @settings(max_examples=300)
    @given(snapshot_pair())
    def test_count_deltas_reconcile_cluster_counts(self, pair):
        prev, nxt = pair
        delta = sum(count_delta(e) for e in diff_snapshots(prev, nxt))
        assert len(prev.clusters) + delta == len(nxt.clusters)

    @settings(max_examples=200)
    @given(snapshot_pair())
    def test_diff_is_deterministic(self, pair):
        prev, nxt = pair
        assert diff_snapshots(prev, nxt) == diff_snapshots(prev, nxt)

    @settings(max_examples=200)
    @given(snapshot_pair())
    def test_emerge_and_disappear_are_terminal(self, pair):
        prev, nxt = pair
        events = diff_snapshots(prev, nxt)
        emerged = {e.new_ids[0] for e in events if e.kind == "Emerge"}
        gone = {e.old_ids[0] for e in events if e.kind == "Disappear"}
        merges = [e for e in events if e.kind == "Merge"]
        splits = [e for e in events if e.kind == "Split"]
        for e in events:
            if e.kind == "Emerge" or e.kind == "Disappear":
                continue
            assert not emerged.intersection(e.new_ids)
            assert not gone.intersection(e.old_ids)
        # One merge per product, one split per source.
        assert len({e.new_ids for e in merges}) == len(merges)
        assert len({e.old_ids for e in splits}) == len(splits)
