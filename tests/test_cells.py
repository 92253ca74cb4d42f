"""Cell store: assignment, lazy density, seed search against brute force."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import streampeaks.cells as cells_module
from streampeaks.cells import CellSpace, StreamPoint, block_distances, seed_distance
from streampeaks.decay import DecayParams, decay_density
from streampeaks.deptree import PointDistances
from streampeaks.errors import (
    DimensionMismatch,
    NonFiniteInput,
    OutOfOrderTimestamp,
    StreamClusteringError,
    UnknownCell,
)

PARAMS = DecayParams(a=0.998, lam=1.0, v=1000.0, beta=0.0021)


def space(r=0.3, dim=2):
    return CellSpace(PARAMS, r=r, dim=dim)


def plant(sp, *coords, t=0.0):
    """Found one cell per coordinate tuple by feeding far-enough points."""
    ids = []
    for c in coords:
        res = sp.assign_point(StreamPoint.of(c, t))
        assert res.created
        ids.append(res.cell_id)
    return ids


class TestNearestSeed:
    def test_unique_minimum(self):
        sp = space()
        id1, id2 = plant(sp, (0.1, 0.0), (5.0, 5.0))
        got = sp.nearest_seed(StreamPoint.of((0.0, 0.0), 1.0))
        assert got == (id1, pytest.approx(0.1))

    def test_empty_store(self):
        assert space().nearest_seed(StreamPoint.of((0.0, 0.0), 0.0)) is None

    def test_equidistant_pair_takes_smaller_id(self):
        sp = space(r=0.15)
        id1, id2 = plant(sp, (0.4, 0.0), (0.6, 0.0))
        cid, dist = sp.nearest_seed(StreamPoint.of((0.5, 0.0), 1.0))
        assert cid == id1 == min(id1, id2)
        assert dist == pytest.approx(0.1)

    def test_inactive_seeds_participate(self):
        sp = space()
        (only,) = plant(sp, (1.0, 1.0))
        assert not sp.cell(only).active
        assert sp.nearest_seed(StreamPoint.of((1.0, 1.05), 1.0))[0] == only

    def test_dimension_mismatch(self):
        sp = space(dim=2)
        with pytest.raises(DimensionMismatch):
            sp.nearest_seed(StreamPoint.of((1.0, 2.0, 3.0), 0.0))


class TestAssignPoint:
    def test_absorb_within_radius(self):
        sp = space(r=0.3)
        (id1,) = plant(sp, (0.1, 0.0))
        res = sp.assign_point(StreamPoint.of((0.0, 0.0), 1.0))
        assert not res.created
        assert res.cell_id == id1
        assert res.distance <= 0.3

    def test_new_cell_outside_radius(self):
        sp = space(r=0.3)
        plant(sp, (0.1, 0.0), (5.0, 5.0))
        res = sp.assign_point(StreamPoint.of((1.0, 1.0), 1.0))
        assert res.created
        assert sp.cell(res.cell_id).rho_last == 1.0
        assert not sp.cell(res.cell_id).active

    def test_three_identical_points(self):
        sp = space(r=0.3)
        for t in (0.0, 1.0, 2.0):
            res = sp.assign_point(StreamPoint.of((0.0, 0.0), t))
        assert len(sp) == 1
        assert sp.cell(res.cell_id).rho_last == pytest.approx(2.994004, abs=1e-9)

    def test_cell_id_is_founding_point_ordinal(self):
        sp = space(r=0.1)
        ids = plant(sp, (0.0, 0.0), (1.0, 0.0), (2.0, 0.0))
        assert ids == [0, 1, 2]
        sp.assign_point(StreamPoint.of((0.0, 0.01), 1.0))  # absorbed, ordinal 3
        res = sp.assign_point(StreamPoint.of((9.0, 9.0), 2.0))
        assert res.cell_id == 4

    def test_out_of_order_rejected_by_default(self):
        sp = space()
        sp.assign_point(StreamPoint.of((0.0, 0.0), 5.0))
        with pytest.raises(OutOfOrderTimestamp):
            sp.assign_point(StreamPoint.of((1.0, 1.0), 4.0))

    def test_equal_timestamps_allowed(self):
        sp = space()
        sp.assign_point(StreamPoint.of((0.0, 0.0), 5.0))
        res = sp.assign_point(StreamPoint.of((0.0, 0.0), 5.0))
        assert res.t == 5.0


class TestCellDensityAt:
    def test_identity_now(self):
        sp = space()
        (cid,) = plant(sp, (0.0, 0.0))
        cell = sp.cell(cid)
        cell.rho_last, cell.t_last = 10.0, 0.0
        assert sp.cell_density_at(cid, 0.0) == 10.0

    def test_one_second_later(self):
        sp = space()
        (cid,) = plant(sp, (0.0, 0.0))
        cell = sp.cell(cid)
        cell.rho_last, cell.t_last = 10.0, 0.0
        assert sp.cell_density_at(cid, 1.0) == pytest.approx(9.98, rel=1e-15)

    def test_unknown_cell(self):
        with pytest.raises(UnknownCell):
            space().cell_density_at(99, 0.0)

    def test_matches_point_log_summation(self):
        """Lazy density equals brute-force freshness summation over the
        absorbed point log."""
        sp = space(r=0.5)
        rng = np.random.default_rng(7)
        t = 0.0
        absorbed: dict[int, list[float]] = {}
        for _ in range(400):
            t += float(rng.random()) * 0.2
            xy = rng.normal(0.0, 0.6, size=2)
            res = sp.assign_point(StreamPoint.of(xy, t))
            absorbed.setdefault(res.cell_id, []).append(res.t)
        for cid, times in absorbed.items():
            direct = sum(PARAMS.a ** (PARAMS.lam * (t - ti)) for ti in times)
            assert sp.cell_density_at(cid, t) == pytest.approx(direct, rel=1e-9)


class TestPartitionProperty:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_each_point_nearest_within_radius(self, seed):
        """At absorption time the chosen seed was within r and minimal
        among all seeds then existing."""
        sp = space(r=0.4)
        rng = np.random.default_rng(seed)
        t = 0.0
        for _ in range(120):
            t += float(rng.random()) * 0.1
            p = StreamPoint.of(rng.normal(0.0, 1.0, size=2), t)
            seeds_before = {cid: c.seed for cid, c in sp.cells.items()}
            res = sp.assign_point(p)
            if res.created:
                dists = [seed_distance(p.coords, s) for s in seeds_before.values()]
                assert not dists or min(dists) > sp.r
            else:
                d = seed_distance(p.coords, seeds_before[res.cell_id])
                assert res.distance == d <= sp.r
                assert_scan_exact(sp, p.coords)
                assert all(d <= seed_distance(p.coords, s)
                           for s in seeds_before.values())


def brute_nearest(sp, coords):
    """Reference seed search: scalar distances to every live seed,
    exact ties to the smallest id."""
    best, best_id = math.inf, None
    for cid, cell in sp.cells.items():
        d = seed_distance(coords, cell.seed)
        if d < best or (d == best and cid < best_id):
            best, best_id = d, cid
    return best_id, best


def assert_scan_exact(sp, coords):
    """The last scan holds every live seed's distance, bit for bit."""
    assert len(sp.last_scan) == len(sp)
    pd = PointDistances(sp)
    for cid, cell in sp.cells.items():
        assert pd.scan[pd.row_of[cid]] == seed_distance(coords, cell.seed)


R = 0.5


@st.composite
def seed_matrix_ops(draw):
    """A dimension and a run of points and removals.  Coordinates are
    multiples of r/2, so exact distance ties and seeds exactly at r are
    common."""
    dim = draw(st.sampled_from([1, 2, 8]))
    span = 12 if dim == 1 else 3
    point = st.tuples(*[st.integers(-span, span)] * dim).map(
        lambda ks: ("point", tuple(k * R / 2 for k in ks)))
    remove = st.tuples(st.just("remove"),
                       st.sampled_from(["first", "middle", "last"]))
    ops = draw(st.lists(st.one_of(point, point, point, remove),
                        min_size=1, max_size=60))
    return dim, ops


class TestSeedMatrix:
    @given(case=seed_matrix_ops())
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force(self, case):
        """nearest_seed and assign_point agree with a scalar minimum over
        ``space.cells``: same winner, equal distances, through removals
        of the first, a middle and the last row and through growth."""
        dim, ops = case
        sp = space(r=R, dim=dim)
        t = 0.0
        for kind, arg in ops:
            if kind == "remove":
                if not sp.cells:
                    continue
                by_row = {row: cid for cid, row in sp.row_of.items()}
                n = len(by_row)
                row = {"first": 0, "middle": n // 2, "last": n - 1}[arg]
                sp.remove_cell(by_row[row])
                assert sorted(sp.row_of.values()) == list(range(len(sp)))
                continue
            t += 0.5
            p = StreamPoint.of(arg, t)
            want_id, want_d = brute_nearest(sp, p.coords)
            got = sp.nearest_seed(p)
            if want_id is None:
                assert got is None
            else:
                assert got == (want_id, want_d)
                assert_scan_exact(sp, p.coords)
            ordinal = sp.points_seen
            res = sp.assign_point(p)
            assert res.distance == want_d
            if want_d <= R:
                assert (res.cell_id, res.created) == (want_id, False)
                assert_scan_exact(sp, p.coords)
            else:
                assert (res.cell_id, res.created) == (ordinal, True)
                assert sp.cell(ordinal).seed == p.coords

    def test_exact_tie_at_r_goes_to_smaller_id(self):
        """Removing row 0 moves the newest cell into it, so the tied
        smaller id sits in the later row."""
        sp = space(r=R, dim=1)
        far, right, left = plant(sp, (5.0,), (R,), (-R,))
        sp.remove_cell(far)
        assert sp.row_of == {left: 0, right: 1}
        res = sp.assign_point(StreamPoint.of((0.0,), 1.0))
        assert (res.cell_id, res.created, res.distance) == (right, False, R)

    def test_growth_past_initial_capacity(self):
        sp = space(r=0.1, dim=2)
        ids = plant(sp, *[(float(i), 0.0) for i in range(100)])
        assert len(sp) == 100
        for i in range(100):
            q = StreamPoint.of((i + 0.05, 0.01), 1.0)
            assert sp.nearest_seed(q) == brute_nearest(sp, q.coords)
            assert sp.nearest_seed(q)[0] == ids[i]

    def test_remove_only_row_then_refill(self):
        sp = space(r=R, dim=8)
        (only,) = plant(sp, (1.0,) * 8)
        sp.remove_cell(only)
        assert len(sp) == 0 and sp.row_of == {}
        assert sp.nearest_seed(StreamPoint.of((1.0,) * 8, 1.0)) is None
        res = sp.assign_point(StreamPoint.of((1.0,) * 8, 1.0))
        assert res.created and sp.row_of == {res.cell_id: 0}
        res = sp.assign_point(StreamPoint.of((1.0,) * 8, 2.0))
        assert not res.created and res.distance == 0.0


class TestNonFiniteInput:
    BAD = (math.nan, math.inf, -math.inf)

    def primed(self, dim):
        sp = space(r=R, dim=dim)
        sp.assign_point(StreamPoint.of((0.0,) * dim, 1.0))
        sp.assign_point(StreamPoint.of((0.1,) + (0.0,) * (dim - 1), 2.0))
        return sp

    @staticmethod
    def state(sp):
        return (sp.points_seen, sp.last_t, list(sp.last_scan),
                {cid: (c.seed, c.rho_last, c.t_last)
                 for cid, c in sp.cells.items()}, dict(sp.row_of))

    @pytest.mark.parametrize("dim", [2, 8])
    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("where", ["coordinate", "timestamp"])
    def test_rejected_before_any_change(self, dim, bad, where):
        sp = self.primed(dim)
        before = self.state(sp)
        coords = [0.0] * dim
        t = 3.0
        if where == "coordinate":
            coords[dim - 1] = bad
        else:
            t = bad
        with pytest.raises(NonFiniteInput) as info:
            sp.assign_point(StreamPoint.of(coords, t))
        assert isinstance(info.value, StreamClusteringError)
        assert isinstance(info.value, ValueError)
        assert self.state(sp) == before
        # The watermark still holds, and valid points still land.
        with pytest.raises(OutOfOrderTimestamp):
            sp.assign_point(StreamPoint.of([0.0] * dim, 1.5))
        res = sp.assign_point(StreamPoint.of([0.0] * dim, 3.0))
        assert not res.created and res.distance == 0.0

    @pytest.mark.parametrize("bad", BAD)
    def test_nearest_seed_rejects(self, bad):
        sp = self.primed(2)
        with pytest.raises(NonFiniteInput):
            sp.nearest_seed(StreamPoint.of((bad, 0.0), 3.0))


class TestBlockDistances:
    @pytest.mark.parametrize("dim", [1, 2, 8])
    def test_every_entry_has_seed_distance_bits(self, dim):
        rng = np.random.default_rng(dim)
        points = rng.normal(0.0, 3.0, size=(dim, 7)) * 10.0 ** rng.integers(
            -8, 8, size=(dim, 7))
        seeds = rng.normal(0.0, 3.0, size=(dim, 11))
        seeds[:, :3] = points[:, :3]  # some zero distances
        got = block_distances(points[:, :, None], seeds[:, None, :])
        assert got.shape == (7, 11)
        for i in range(7):
            for j in range(11):
                assert got[i, j] == seed_distance(tuple(points[:, i]),
                                                  tuple(seeds[:, j]))
        one = block_distances(points[:, :1], seeds)
        assert one.shape == (11,)
        assert list(one) == list(got[0])

    def test_summation_order_is_seed_distances(self):
        """One square of 1.0 and seven of 1e-16: added in order, each
        1e-16 is lost against 1.0, while a reduction that adds the seven
        small squares first keeps them.  The kernel must match the
        sequential sum."""
        point = (0.0,) * 8
        seed = (1.0,) + (1e-8,) * 7
        want = seed_distance(point, seed)
        assert want == 1.0
        sq = (np.array(seed) - np.array(point)) ** 2
        assert math.sqrt(sq[0] + np.add.reduce(sq[1:])) != want
        got = block_distances(np.array(point)[:, None, None],
                              np.array(seed)[:, None, None])
        assert got[0, 0] == want
        assert block_distances(np.array(point)[:, None],
                               np.array(seed)[:, None])[0] == want


def space_state(sp):
    return ({cid: (c.id, c.seed, c.rho_last, c.t_last)
             for cid, c in sp.cells.items()},
            dict(sp.row_of), list(sp.last_scan), sp.points_seen, sp.last_t)


@st.composite
def block_streams(draw):
    """A store primed by points and removals, then a run of points for
    one call.  Coordinates are multiples of r/2 on a small lattice, so
    duplicate points, exact ties and seeds at exactly r are common; the
    run is long enough to span several blocks, and a small block budget
    makes blocks of a few points."""
    dim = draw(st.sampled_from([1, 2, 8]))
    span = 12 if dim == 1 else 3
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n_primed = draw(st.integers(0, 30))
    n_run = draw(st.integers(1, 400))
    budget = draw(st.sampled_from([None, 8, 64, 512]))
    removals = draw(st.lists(st.sampled_from(["first", "middle", "last"]),
                             max_size=4))
    ks = rng.integers(-span, span + 1, size=(n_primed + n_run, dim))
    dts = rng.choice([0.0, 0.0, 0.25, 1.0], size=n_primed + n_run)
    ts = np.cumsum(dts)
    points = [StreamPoint.of(k * R / 2, t) for k, t in zip(ks, ts)]
    return dim, points[:n_primed], removals, points[n_primed:], budget


class TestAssignPoints:
    @given(case=block_streams())
    @settings(max_examples=60, deadline=None)
    def test_equals_assign_point_one_by_one(self, case):
        """Same results, cells, rows and ``last_scan`` as the per-point
        loop, also when removals have put the rows out of id order."""
        dim, primed, removals, run, budget = case
        spaces = []
        for _ in range(2):
            sp = space(r=R, dim=dim)
            for p in primed:
                sp.assign_point(p)
            for where in removals:
                if sp.cells:
                    by_row = {row: cid for cid, row in sp.row_of.items()}
                    n = len(by_row)
                    sp.remove_cell(by_row[{"first": 0, "middle": n // 2,
                                           "last": n - 1}[where]])
            spaces.append(sp)
        one_by_one, blocked = spaces
        want = [one_by_one.assign_point(p) for p in run]
        floats = cells_module._BLOCK_FLOATS if budget is None else budget
        with mock.patch.object(cells_module, "_BLOCK_FLOATS", floats):
            got = blocked.assign_points(run)
        assert got == want
        assert space_state(blocked) == space_state(one_by_one)

    def test_block_size_respects_the_float_budget(self):
        for dim in (1, 2, 8):
            sp = space(dim=dim)
            for n in (0, 1, 63, 64, 340, 4000, 10**5):
                b = sp._block_size(n)
                assert 1 <= b <= cells_module._BLOCK_POINTS
                assert b == 1 or dim * b * (n + b) <= cells_module._BLOCK_FLOATS

    @pytest.mark.parametrize("where", [0, 64, 199])
    @pytest.mark.parametrize("bad", ["nan", "dimension", "order"])
    def test_rejected_run_changes_nothing(self, where, bad):
        """The same exception type and message as the point-by-point
        loop raises at that point, with nothing assigned.  The run's
        first block holds 64 points, so 64 opens the second."""
        sp, ref = space(r=R, dim=2), space(r=R, dim=2)
        for s in (sp, ref):
            s.assign_point(StreamPoint.of((0.0, 0.0), 1.0))
        run = [StreamPoint.of((0.1 * i, 0.0), 1.0 + i) for i in range(200)]
        p = run[where]
        if bad == "nan":
            run[where] = StreamPoint((math.nan, 0.0), p.t)
        elif bad == "dimension":
            run[where] = StreamPoint((0.0, 0.0, 0.0), p.t)
        else:
            run[where] = StreamPoint(p.coords, 0.5)
        before = space_state(sp)
        with pytest.raises(StreamClusteringError) as got:
            sp.assign_points(run)
        assert space_state(sp) == before
        with pytest.raises(StreamClusteringError) as want:
            for q in run:
                ref.assign_point(q)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)


class TestConfigSeams:
    def test_invalid_modes_rejected(self):
        with pytest.raises(ValueError):
            space(r=0.0)

    def test_remove_unknown_cell(self):
        with pytest.raises(UnknownCell):
            space().remove_cell(3)
