"""Decay arithmetic: frozen values, equivalence oracles, properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streampeaks.decay import (
    DecayParams,
    absorb,
    active_threshold,
    decay_density,
    decay_factor,
    deletion_horizon,
    density_order_key,
    fade_line,
    freshness,
    total_freshness,
)

REF = DecayParams(a=0.998, lam=1.0, v=1000.0, beta=0.0021)


def pow_by_mult(a, n):
    """Independent power oracle: repeated multiplication."""
    x = 1.0
    for _ in range(n):
        x *= a
    return x


def freshness_sum(params, arrival_times, t):
    """Direct summation of per-point freshness (the definition a cell
    density lazily compresses)."""
    return sum(params.a ** (params.lam * (t - ti)) for ti in arrival_times)


class TestFreshness:
    def test_zero_elapsed(self):
        assert freshness(REF, 0.0, 0.0) == 1.0

    def test_one_second(self):
        assert freshness(REF, 0.0, 1.0) == pytest.approx(0.998, rel=1e-15)

    def test_hundred_seconds_vs_multiplication_oracle(self):
        got = freshness(REF, 0.0, 100.0)
        assert got == pytest.approx(pow_by_mult(0.998, 100), rel=1e-12)
        assert got == pytest.approx(0.81857, abs=5e-6)

    def test_rejects_future_arrival(self):
        with pytest.raises(ValueError):
            freshness(REF, 1.0, 0.0)


class TestDecayDensity:
    def test_identity_at_zero_interval(self):
        assert decay_density(REF, 10.0, 0.0, 0.0) == 10.0

    def test_one_step(self):
        assert decay_density(REF, 10.0, 0.0, 1.0) == pytest.approx(9.98, rel=1e-15)

    def test_five_hundred_seconds(self):
        got = decay_density(REF, 1.0, 0.0, 500.0)
        assert got == pytest.approx(pow_by_mult(0.998, 500), rel=1e-12)
        # Note: the upstream description rounds this to 0.36770; the direct
        # evaluation (both pow and repeated multiplication) gives 0.36751.
        assert got == pytest.approx(0.36751, abs=5e-6)

    def test_rejects_negative_density(self):
        with pytest.raises(ValueError):
            decay_density(REF, -1.0, 0.0, 1.0)

    @given(
        rho=st.floats(0.0, 1e6),
        t1=st.floats(0.0, 1e3),
        dt1=st.floats(0.0, 50.0),
        dt2=st.floats(0.0, 50.0),
    )
    @settings(max_examples=300)
    def test_split_interval_composition(self, rho, t1, dt1, dt2):
        """Decaying in two hops equals decaying once, within 1e-12 relative."""
        mid = t1 + dt1
        end = mid + dt2
        two_hop = decay_density(REF, decay_density(REF, rho, t1, mid), mid, end)
        one_hop = decay_density(REF, rho, t1, end)
        assert two_hop == pytest.approx(one_hop, rel=1e-12, abs=1e-300)


class TestAbsorb:
    def test_empty_cell(self):
        assert absorb(REF, 0.0, 0.0, 7.5) == 1.0

    def test_single_step(self):
        assert absorb(REF, 10.0, 0.0, 1.0) == pytest.approx(10.98, rel=1e-15)

    def test_three_points_match_direct_summation(self):
        rho = 0.0
        for t in (0.0, 1.0, 2.0):
            rho = absorb(REF, rho, max(t - 1.0, 0.0), t)
        assert rho == pytest.approx(2.994004, abs=1e-9)
        assert rho == pytest.approx(freshness_sum(REF, [0.0, 1.0, 2.0], 2.0), rel=1e-12)

    def test_iterated_absorb_equals_direct_summation_randomized(self):
        """Eq-8-style updates against the definitional freshness sum,
        10,000 random absorption sequences at 1e-9 relative."""
        rng = np.random.default_rng(20260815)
        for _ in range(10_000):
            n = int(rng.integers(1, 30))
            times = np.cumsum(rng.random(n) * 2.0)
            rho, t_last = 0.0, times[0]
            for t in times:
                rho = absorb(REF, rho, t_last, t)
                t_last = t
            direct = freshness_sum(REF, times, times[-1])
            assert rho == pytest.approx(direct, rel=1e-9)


class TestCeilings:
    def test_total_freshness_reference_config(self):
        assert total_freshness(REF) == pytest.approx(500_000.0, rel=1e-6)

    def test_total_freshness_half_base(self):
        assert total_freshness(DecayParams(a=0.5, lam=1.0, v=1.0, beta=0.6)) == pytest.approx(2.0)

    def test_partial_sum_below_limit(self):
        # 10,000 points spaced 1/v apart never reach the asymptote.
        times = np.arange(10_000) / REF.v
        partial = freshness_sum(REF, times, times[-1])
        assert partial < total_freshness(REF)

    def test_active_threshold_reference_config(self):
        assert active_threshold(REF) == pytest.approx(1050.0, rel=1e-6)

    def test_threshold_near_beta_lower_bound_is_one(self):
        lo = (1.0 - 0.998**1.0) / 1000.0
        p = DecayParams(a=0.998, lam=1.0, v=1000.0, beta=lo * (1 + 1e-9))
        assert active_threshold(p) == pytest.approx(1.0, rel=1e-6)

    @given(beta=st.floats(0.0022, 0.99))
    @settings(max_examples=200)
    def test_threshold_below_total_freshness(self, beta):
        p = DecayParams(a=0.998, lam=1.0, v=1000.0, beta=beta)
        assert active_threshold(p) < total_freshness(p)


class TestDeletionHorizon:
    def test_reference_config_value(self):
        h = deletion_horizon(REF)
        assert h > 0.0
        la = math.log(0.998)
        expect = (math.log(0.002) / la - math.log(2.1) / la) / 1000.0
        assert h == pytest.approx(expect, rel=1e-12)
        assert h == pytest.approx(3.4748, abs=1e-4)

    def test_horizon_increases_with_beta(self):
        # Higher beta means a higher activation threshold, hence a larger
        # worst-case residual that takes longer to decay below one point.
        hs = [deletion_horizon(DecayParams(a=0.998, lam=1.0, v=1000.0, beta=b))
              for b in (0.0021, 0.01, 0.1, 0.9)]
        assert hs == sorted(hs)
        assert hs[0] < hs[-1]

    def test_degenerate_config_flagged(self):
        # beta an ulp above the legal floor: the horizon formula lands at
        # (or below) zero and the result must say deletion is always safe,
        # a horizon of exactly 0.0.
        lo = (1.0 - 0.998**1.0) / 1000.0
        p = DecayParams(a=0.998, lam=1.0, v=1000.0, beta=math.nextafter(lo, 1.0))
        h = deletion_horizon(p)
        assert 0.0 <= h < 1e-9

    def test_simulation_oracle_at_unit_rate(self):
        """Discrete-event check of what the horizon guarantees.

        At v=1 the formula is self-consistent: a cell at exactly the
        activation threshold, untouched for the horizon, has decayed to
        exactly one fresh point's worth of density.  Feeding every
        subsequent arrival to both that residual cell and a brand-new
        cell founded by the first arrival, the survivor re-activates at
        most one arrival earlier than the fresh cell: deleting it loses
        less than one point of information.
        """
        p = DecayParams(a=0.998, lam=1.0, v=1.0, beta=0.0021)
        thresh = active_threshold(p)
        h = deletion_horizon(p)
        residual = decay_density(p, thresh, 0.0, h)
        assert residual == pytest.approx(1.0, rel=1e-9)

        def arrivals_to_activate(start_density):
            rho, n = start_density, 0
            while rho < thresh:
                rho = rho * p.a**p.lam + 1.0  # one arrival per time unit
                n += 1
                assert n < 10_000
            return n

        old = arrivals_to_activate(residual)
        new = arrivals_to_activate(0.0)
        assert new - old <= 1

    def test_params_validation(self):
        with pytest.raises(ValueError):
            DecayParams(a=1.5, lam=1.0, v=1.0, beta=0.5)
        with pytest.raises(ValueError):
            DecayParams(a=0.998, lam=0.0, v=1.0, beta=0.5)
        with pytest.raises(ValueError):
            DecayParams(a=0.998, lam=1.0, v=-5.0, beta=0.5)
        with pytest.raises(ValueError):
            # threshold would not exceed a single fresh point
            DecayParams(a=0.998, lam=1.0, v=1000.0, beta=1e-7)
        with pytest.raises(ValueError):
            DecayParams(a=0.998, lam=1.0, v=1000.0, beta=1.0)


class TestDensityOrderKey:
    @given(
        rho1=st.floats(0.5, 1e6),
        rho2=st.floats(0.5, 1e6),
        t1=st.floats(0.0, 2000.0),
        t2=st.floats(0.0, 2000.0),
    )
    @settings(max_examples=500)
    def test_key_order_matches_decayed_value_order(self, rho1, rho2, t1, t2):
        k1 = density_order_key(REF, rho1, t1)
        k2 = density_order_key(REF, rho2, t2)
        t = max(t1, t2) + 1.0
        d1 = decay_density(REF, rho1, t1, t)
        d2 = decay_density(REF, rho2, t2, t)
        if d1 == 0.0 or d2 == 0.0:
            return  # underflow floor collapses tiny values; keys still order them
        # Keys must agree with the decayed values whenever the values are
        # separated by more than float rounding noise.
        if d1 > d2 * (1 + 1e-9):
            assert k1 > k2
        elif d2 > d1 * (1 + 1e-9):
            assert k2 > k1

    def test_rejects_nonpositive_density(self):
        with pytest.raises(ValueError):
            density_order_key(REF, 0.0, 1.0)


class TestFadeLine:
    @given(
        params=st.sampled_from([REF, DecayParams(a=0.998, lam=1000.0, v=1000.0,
                                                 beta=0.0021)]),
        t=st.floats(0.0, 1.7e9),
        dt=st.floats(0.0, 1e4),
        ulps=st.integers(-4, 4),
    )
    @settings(max_examples=1000)
    def test_no_cell_keyed_above_the_line_tests_below(self, params, t, dt,
                                                      ulps):
        """Densities a few ulps either side of the threshold at times up
        to 1.7e9 s: a key above the line means the density test passes."""
        t_last = max(0.0, t - dt / params.lam)
        factor = decay_factor(params, t - t_last)
        if factor == 0.0:
            return
        rho = active_threshold(params) / factor
        for _ in range(abs(ulps)):
            rho = math.nextafter(rho, math.copysign(math.inf, ulps))
        if density_order_key(params, rho, t_last) > fade_line(params, t):
            assert decay_density(params, rho, t_last, t) >= active_threshold(params)

    def test_guard_band_is_narrow(self):
        """The line sits above ln(threshold) + lam*|ln a|*t by well under
        a millionth of a unit of log-density at 1.7e9 s."""
        for t in (0.0, 20.0, 1.7e9):
            exact = (math.log(active_threshold(REF))
                     + REF.lam * abs(math.log(REF.a)) * t)
            assert 0.0 < fade_line(REF, t) - exact < 1e-5


class TestOrderPreservation:
    @given(
        rho1=st.floats(1e-6, 1e6),
        rho2=st.floats(1e-6, 1e6),
        t0=st.floats(0.0, 100.0),
        dt=st.floats(0.0, 100.0),
    )
    @settings(max_examples=1000)
    def test_sign_of_difference_invariant_under_decay(self, rho1, rho2, t0, dt):
        """Cells decay at the same pace, so whoever is denser stays denser."""
        before = rho1 - rho2
        a1 = decay_density(REF, rho1, t0, t0 + dt)
        a2 = decay_density(REF, rho2, t0, t0 + dt)
        after = a1 - a2
        if before > 0:
            assert after >= 0
        elif before < 0:
            assert after <= 0
        else:
            assert after == 0
