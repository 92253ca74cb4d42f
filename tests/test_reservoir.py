"""Reservoir: activation, deactivation sweeps, recycling, size bounds."""

import math

import numpy as np
import pytest

from streampeaks.cells import CellSpace, StreamPoint
from streampeaks.decay import DecayParams, active_threshold, deletion_horizon
from streampeaks.deptree import DPTree
from streampeaks.errors import CellStateError
from streampeaks.reservoir import OutlierReservoir

from _oracles import active_bound, capacity_bound

PARAMS = DecayParams(a=0.998, lam=1.0, v=1000.0, beta=0.0021)
THRESHOLD = active_threshold(PARAMS)


def rig(r=0.3, dim=2):
    sp = CellSpace(PARAMS, r=r, dim=dim)
    tree = DPTree(sp)
    res = OutlierReservoir(sp, tree)
    return sp, tree, res


def assign(res, coords, t):
    """Assign one point; a founded cell joins the reservoir, as in the
    engine."""
    out = res.space.assign_point(StreamPoint.of(coords, t))
    if out.created:
        res.put(out.cell_id, out.t)
    return out


def found(res, coords, t):
    out = assign(res, coords, t)
    assert out.created
    return out.cell_id


class TestPut:
    def test_new_cell_registered_at_creation_time(self):
        sp, tree, res = rig()
        cid = found(res, (0.0, 0.0), 2.5)
        assert cid in res
        assert res.last_touch[cid] == 2.5

    def test_idempotent(self):
        sp, tree, res = rig()
        cid = found(res, (0.0, 0.0), 2.5)
        res.put(cid, 9.0)
        assert len(res) == 1
        assert res.last_touch[cid] == 2.5

    def test_active_cell_rejected(self):
        sp, tree, res = rig()
        cid = found(res, (0.0, 0.0), 0.0)
        cell = sp.cell(cid)
        cell.rho_last = THRESHOLD
        res.try_activate(cid, 0.0)
        with pytest.raises(CellStateError):
            res.put(cid, 1.0)


class TestTryActivate:
    def test_threshold_is_inclusive(self):
        sp, tree, res = rig()
        cid = found(res, (0.0, 0.0), 0.0)
        cell = sp.cell(cid)
        cell.rho_last, cell.t_last = 1050.0, 0.0
        assert THRESHOLD == pytest.approx(1050.0, rel=1e-6)
        assert res.try_activate(cid, 0.0)
        assert sp.cell(cid).active
        assert cid in tree
        assert cid not in res

    def test_fresh_cell_stays_inactive_and_refreshes_clock(self):
        sp, tree, res = rig()
        cid = found(res, (0.0, 0.0), 0.0)
        assert not res.try_activate(cid, 3.0)
        assert res.last_touch[cid] == 3.0
        assert not sp.cell(cid).active

    def test_unknown_cell(self):
        sp, tree, res = rig()
        with pytest.raises(CellStateError):
            res.try_activate(77, 0.0)

    def test_activation_time_matches_partial_sum_oracle(self):
        """A cell absorbing every point of a v=1000 stream activates at
        point 1052 (t=1.051 s): the first geometric partial sum of
        freshness gaps to reach the 1050 threshold."""
        sp, tree, res = rig(r=0.5)
        first_active_point = None
        for n in range(1, 1200):
            t = (n - 1) / 1000.0
            out = assign(res, (0.0, 0.0), t)
            if not sp.cell(out.cell_id).active:
                if res.try_activate(out.cell_id, t):
                    first_active_point = n
                    break
        assert first_active_point == 1052
        q = PARAMS.a ** (PARAMS.lam / PARAMS.v)
        direct = sum(q**k for k in range(1052))
        assert sp.cell(out.cell_id).rho_last == pytest.approx(direct, rel=1e-9)
        assert direct >= THRESHOLD
        assert sum(q**k for k in range(1051)) < THRESHOLD


class TestDeactivateSweep:
    def _active_pair(self, rho_a=2000.0, rho_b=1500.0, t=0.0):
        sp, tree, res = rig()
        a = found(res, (0.0, 0.0), t)
        b = found(res, (1.0, 0.0), t)
        for cid, rho in ((a, rho_a), (b, rho_b)):
            cell = sp.cell(cid)
            cell.rho_last, cell.t_last = rho, t
            res.try_activate(cid, t)
        return sp, tree, res, a, b

    def test_nothing_below_threshold(self):
        sp, tree, res, a, b = self._active_pair()
        assert res.deactivate_sweep(0.0) == []
        assert set(tree.nodes()) == {a, b}

    def test_root_below_takes_whole_tree(self):
        sp, tree, res, a, b = self._active_pair()
        # Decay both far below threshold, sweep late.
        t = 400.0
        moved = res.deactivate_sweep(t)
        assert moved == [[a, b]]
        assert tree.nodes() == []
        assert res.last_touch[a] == t and res.last_touch[b] == t
        assert not sp.cell(a).active and not sp.cell(b).active

    def test_partial_sweep_leaves_consistent_forest(self):
        sp, tree, res, a, b = self._active_pair(rho_a=500000.0, rho_b=1100.0)
        # At t=30, b (1100) decays under 1050 while a stays far above.
        moved = res.deactivate_sweep(30.0)
        assert moved == [[b]]
        assert set(tree.nodes()) == {a}
        for c in tree.nodes():
            assert sp.cell_density_at(c, 30.0) >= THRESHOLD
        scratch = DPTree.build(sp)
        assert tree.forest_state() == scratch.forest_state()


class TestRecycle:
    def test_untouched_beyond_horizon_deleted(self):
        sp, tree, res = rig()
        cid = found(res, (0.0, 0.0), 0.0)
        assert deletion_horizon(PARAMS) == pytest.approx(3.4748, abs=1e-4)
        assert res.recycle(3.48) == [cid]
        assert cid not in res
        assert cid not in sp

    def test_recently_touched_retained(self):
        sp, tree, res = rig()
        cid = found(res, (0.0, 0.0), 0.0)
        res.try_activate(cid, 2.5)  # stays inactive, refreshes clock
        assert res.recycle(3.5) == []
        assert cid in res

    def test_boundary_is_exclusive(self):
        sp, tree, res = rig()
        cid = found(res, (0.0, 0.0), 0.0)
        horizon = deletion_horizon(PARAMS)
        assert res.recycle(horizon) == []
        assert res.recycle(math.nextafter(horizon, math.inf)) == [cid]


class TestBounds:
    def test_capacity_bound_reference_config(self):
        assert capacity_bound(PARAMS) == 3951

    def test_capacity_bound_u_shaped_in_beta(self):
        # The horizon term grows with beta while the activation budget
        # shrinks; the minimum sits near beta = lam*|ln a|.
        caps = [capacity_bound(DecayParams(a=0.998, lam=1.0, v=1000.0, beta=b))
                for b in (1e-5, 1e-4, 0.002002, 0.01, 0.1)]
        assert caps[0] > caps[1] > caps[2]
        assert caps[2] < caps[3] < caps[4]
        assert caps == [100804, 11955, 3951, 4355, 5415]

    def test_active_bound(self):
        assert active_bound(PARAMS) == 477

    def test_reservoir_size_stays_below_bound_on_noise(self):
        """Uniform noise founds cells all over; with periodic recycling
        the reservoir never approaches its theoretical ceiling."""
        sp, tree, res = rig(r=0.35)
        rng = np.random.default_rng(42)
        bound = capacity_bound(PARAMS)
        peak = 0
        for n in range(4000):
            t = n / 1000.0
            assign(res, rng.uniform(0.0, 10.0, size=2), t)
            if n % 200 == 199:
                res.recycle(t)
            peak = max(peak, len(res))
            assert len(res) <= bound
        assert 0 < peak < bound


class TestStateMachine:
    def test_tree_reservoir_deleted_partition(self):
        """Every founded cell is in exactly one of: tree, reservoir,
        deleted; transitions never leave a cell in two places."""
        sp, tree, res = rig(r=0.4)
        rng = np.random.default_rng(3)
        deleted: set[int] = set()
        all_founded: set[int] = set()
        t = 0.0
        for step in range(800):
            t += 0.002
            xy = rng.normal(0.0, 1.0, size=2) if step % 3 else rng.uniform(-4, 4, 2)
            out = assign(res, xy, t)
            all_founded.add(out.cell_id) if out.created else None
            if not sp.cell(out.cell_id).active:
                res.try_activate(out.cell_id, t)
            if step % 100 == 99:
                res.deactivate_sweep(t)
                deleted.update(res.recycle(t))
            in_tree = set(tree.nodes())
            in_res = set(res.last_touch)
            assert not (in_tree & in_res)
            assert not (deleted & (in_tree | in_res))
            assert in_tree | in_res == set(sp.cells)
