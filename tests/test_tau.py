"""Threshold objective, preference learning, re-selection, decision graph."""

import math
import random

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import streampeaks.tau as tau_module
from streampeaks.cells import CellSpace, StreamPoint
from streampeaks.decay import DecayParams
from streampeaks.deptree import DPTree
from streampeaks.tau import (
    ALPHA_GRID,
    NoConsistentAlpha,
    TauState,
    UndefinedObjective,
    candidate_taus,
    decision_graph,
    learn_alpha,
    objective,
    select_tau,
)

from _oracles import reference_learn_alpha, reference_objective

DELTAS = [0.5, 0.6, 4.0]
EXACT = settings(max_examples=150, deadline=None, derandomize=True,
                 database=None)


def direct_objective(alpha, tau, deltas):
    """Independent evaluation, spelled out term by term."""
    mean = sum(deltas) / len(deltas)
    inter = [d for d in deltas if d > tau]
    intra = [d for d in deltas if d <= tau]
    inter_term = sum(inter) / (len(inter) * mean)
    intra_term = (len(intra) * mean) / sum(intra)
    return alpha * inter_term + (1 - alpha) * intra_term


class TestObjective:
    def test_reference_split_at_one(self):
        got = objective(0.5, 1.0, DELTAS)
        assert got == pytest.approx(direct_objective(0.5, 1.0, DELTAS), rel=1e-12)
        assert got == pytest.approx(2.7219, abs=1e-4)

    def test_reference_split_at_half(self):
        got = objective(0.5, 0.5, DELTAS)
        assert got == pytest.approx(direct_objective(0.5, 0.5, DELTAS), rel=1e-12)
        assert got == pytest.approx(2.3765, abs=1e-4)

    def test_alpha_near_one_leaves_inter_term(self):
        inter_term = 4.0 / (1 * (5.1 / 3))
        assert objective(0.999, 1.0, DELTAS) == pytest.approx(inter_term, abs=1e-3)

    def test_one_sided_partition_rejected(self):
        with pytest.raises(UndefinedObjective):
            objective(0.5, 5.0, DELTAS)  # nothing above tau
        with pytest.raises(UndefinedObjective):
            objective(0.5, 0.1, DELTAS)  # nothing at or below tau

    def test_alpha_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                objective(bad, 1.0, DELTAS)

    def test_infinite_deltas_ignored(self):
        assert objective(0.5, 1.0, DELTAS + [math.inf]) == \
            pytest.approx(objective(0.5, 1.0, DELTAS))


class TestSelectTau:
    def test_reference_selection(self):
        assert objective(0.12, 0.5, DELTAS) == pytest.approx(3.1544, abs=1e-4)
        assert objective(0.12, 0.6, DELTAS) == pytest.approx(3.0024, abs=1e-4)
        assert select_tau(0.12, DELTAS) == 0.6

    def test_single_valid_partition(self):
        assert select_tau(0.3, [1.0, 1.0, 5.0]) == 1.0

    def test_no_candidate_retains_previous(self):
        assert select_tau(0.3, [2.0, 2.0], previous=1.5) == 1.5
        with pytest.raises(UndefinedObjective):
            select_tau(0.3, [2.0, 2.0])

    def test_candidates_drop_the_maximum(self):
        assert candidate_taus([0.5, 0.6, 4.0, 4.0, math.inf]) == [0.5, 0.6]

    @given(
        deltas=st.lists(st.floats(0.1, 50.0), min_size=3, max_size=12),
        alpha=st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9]),
        k=st.integers(-6, 6).map(lambda e: 2.0 ** e),
    )
    @settings(max_examples=300)
    def test_scale_invariance(self, deltas, alpha, k):
        """Scaling every distance by a power of two k scales the chosen
        tau by k.  Such a k scales every sum without rounding, so the
        scores and the choice are exact; another k can round two
        distinct distances together and change the candidates."""
        if len(set(deltas)) < 2:
            return
        tau = select_tau(alpha, deltas)
        scaled = select_tau(alpha, [k * d for d in deltas])
        assert scaled == k * tau

    @given(
        deltas=st.lists(st.floats(0.1, 50.0), min_size=3, max_size=12),
        alpha=st.sampled_from([0.2, 0.5, 0.8]),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=300)
    def test_permutation_invariance(self, deltas, alpha, seed):
        if len(set(deltas)) < 2:
            return
        import random
        shuffled = deltas[:]
        random.Random(seed).shuffle(shuffled)
        assert select_tau(alpha, shuffled) == select_tau(alpha, deltas)


class TestLearnAlpha:
    def test_reference_learning(self):
        assert learn_alpha(DELTAS, 0.6) == pytest.approx(0.12)

    def test_learned_alpha_reproduces_initial_partition(self):
        alpha = learn_alpha(DELTAS, 0.6)
        assert select_tau(alpha, DELTAS) == 0.6

    def test_tau_below_smallest_delta(self):
        with pytest.raises(UndefinedObjective):
            learn_alpha(DELTAS, 0.1)

    def test_tau_at_maximum_delta(self):
        with pytest.raises(UndefinedObjective):
            learn_alpha(DELTAS, 4.0)

    def test_single_partition_has_nothing_to_learn(self):
        with pytest.raises(NoConsistentAlpha):
            learn_alpha([1.0, 1.0, 5.0], 1.0)

    @given(
        deltas=st.lists(st.floats(0.1, 20.0), min_size=4, max_size=10,
                        unique=True),
        pick=st.integers(0, 8),
    )
    @settings(max_examples=300)
    def test_round_trip_self_consistency(self, deltas, pick):
        """Whenever learning succeeds, re-selection lands on the same
        partition the user chose."""
        cands = candidate_taus(deltas)
        tau0 = cands[pick % len(cands)]
        try:
            alpha = learn_alpha(deltas, tau0)
        except NoConsistentAlpha:
            return
        tau = select_tau(alpha, deltas)
        assert sorted(d for d in deltas if d <= tau) == \
            sorted(d for d in deltas if d <= tau0)


def scan_select_tau(alpha, deltas, *, previous=None):
    """The exhaustive scan ``select_tau`` must reproduce: the reference
    objective at every candidate, strict ``<``, ties to the smaller tau."""
    ds = [d for d in deltas if math.isfinite(d)]
    best_tau, best_F = None, math.inf
    for tau in candidate_taus(ds):
        F = reference_objective(alpha, tau, ds)
        if F < best_F:
            best_tau, best_F = tau, F
    if best_tau is None:
        if previous is None:
            raise UndefinedObjective("no candidate tau")
        return previous
    return best_tau


def scan_learn_alpha(deltas, tau0):
    """The exhaustive ``learn_alpha``: the reference objective for tau0
    against every rival partition, at every grid alpha."""
    ds = [d for d in deltas if math.isfinite(d)]
    part0 = sum(1 for d in ds if d <= tau0)
    if part0 == 0 or part0 == len(ds):
        raise UndefinedObjective("tau0 leaves one side empty")
    rivals = [tau for tau in candidate_taus(ds)
              if sum(1 for d in ds if d <= tau) != part0]
    if not rivals:
        raise NoConsistentAlpha("one partition")
    feasible = [alpha for alpha in ALPHA_GRID
                if all(reference_objective(alpha, tau0, ds)
                       < reference_objective(alpha, tau, ds)
                       for tau in rivals)]
    if not feasible:
        raise NoConsistentAlpha("no feasible alpha")
    return feasible[(len(feasible) - 1) // 2]


def outcome(fn, *args, **kw):
    """The returned value, or the type of the error raised."""
    try:
        return fn(*args, **kw)
    except (UndefinedObjective, NoConsistentAlpha, ValueError) as exc:
        return type(exc)


@st.composite
def tenths(draw, max_size):
    """1 to max_size distances on multiples of 0.1, from a few distinct
    values (exact ties, many duplicates) up to 60, some of zero length,
    sometimes with the root's infinite sentinel, in arbitrary order."""
    rng = draw(st.randoms(use_true_random=False))
    top = draw(st.sampled_from([2, 5, 60]))
    ds = [rng.randint(1, top) / 10
          for _ in range(draw(st.integers(1, max_size)))]
    ds += [0.0] * draw(st.sampled_from([0, 0, 0, 1, 2]))
    if draw(st.booleans()):
        ds.append(math.inf)
    rng.shuffle(ds)
    return ds


class TestScreenIsExact:
    """``select_tau`` and ``learn_alpha`` return exactly what the
    exhaustive scans return, or raise the same error."""

    @given(deltas=tenths(500), alpha=st.sampled_from(ALPHA_GRID),
           previous=st.sampled_from([None, 1.5]))
    @EXACT
    def test_select_tau_equals_the_scan(self, deltas, alpha, previous):
        assert outcome(select_tau, alpha, deltas, previous=previous) == \
            outcome(scan_select_tau, alpha, deltas, previous=previous)

    @given(deltas=tenths(40), pick=st.integers(0, 40),
           offset=st.sampled_from([0.0, 0.05, -0.05]))
    @EXACT
    def test_learn_alpha_equals_the_scan(self, deltas, pick, offset):
        values = sorted({d for d in deltas if math.isfinite(d)})
        tau0 = values[pick % len(values)] + offset
        assert outcome(learn_alpha, deltas, tau0) == \
            outcome(scan_learn_alpha, deltas, tau0)

    @pytest.mark.parametrize("deltas, alpha, tau", [
        ([6.0, 2.0, 1.0], 0.6, 1.0),
        ([1.0, 6.0, 3.0, 2.0], 0.5, 2.0),
    ])
    def test_exact_tie_goes_to_the_smaller_tau(self, deltas, alpha, tau):
        tied = [t for t in candidate_taus(deltas)
                if objective(alpha, t, deltas) == objective(alpha, tau, deltas)]
        assert len(tied) == 2 and min(tied) == tau
        assert select_tau(alpha, deltas) == scan_select_tau(alpha, deltas) == tau

    @pytest.mark.parametrize("deltas, alpha, tau", [
        # objective ties 0.3 and 0.4; summed in sorted order, 0.4 is lower
        ([0.7, 0.5, 0.4, 0.3, 0.1], 0.75, 0.3),
        # objective puts 0.1 an ulp below 0.5; the sorted sums put 0.5 lower
        ([0.1, 0.1, 0.2, 0.5, 0.6], 0.75, 0.1),
        # objective puts 0.4 an ulp below 0.3; summed in sorted order they tie
        ([0.8, 0.4, 0.3, 0.1], 0.5, 0.4),
        # objective ties 0.5 and 0.6 only when it scales by (1 - alpha)
        # before dividing by the intra sum
        ([0.1, 1.0, 0.2, 0.3, 0.6, 0.5, 0.1], 0.4, 0.5),
    ])
    def test_last_bits_follow_objective_in_input_order(self, deltas, alpha,
                                                       tau):
        assert select_tau(alpha, deltas) == scan_select_tau(alpha, deltas) == tau

    @pytest.mark.parametrize("deltas, tau0, alpha", [
        ([0.1, 0.1, 0.2, 0.5, 0.6], 0.5, 0.37),
        ([0.6, 0.6, 0.4, 0.3, 0.1], 0.4, 0.37),
        ([0.2, 0.4, 0.7, 0.7, 0.8, 0.8], 0.2, 0.95),
    ])
    def test_feasible_edge_follows_objective(self, deltas, tau0, alpha):
        """At the edge of the feasible interval tau0 and a rival score
        within an ulp; the sorted sums alone would move the edge."""
        assert learn_alpha(deltas, tau0) == scan_learn_alpha(deltas, tau0) \
            == alpha

    def test_exact_tie_is_no_win_for_tau0(self):
        deltas = [6.0, 2.0, 1.0]
        assert objective(0.6, 1.0, deltas) == objective(0.6, 2.0, deltas)
        assert learn_alpha(deltas, 1.0) == scan_learn_alpha(deltas, 1.0)

    def test_zero_length_links_leave_the_smallest_cut_undefined(self):
        with pytest.raises(UndefinedObjective):
            select_tau(0.5, [0.0, 0.0, 1.0, 2.0], previous=1.5)
        with pytest.raises(ValueError):
            select_tau(1.5, [0.0, 0.0, 1.0, 2.0])
        assert select_tau(math.nan, [2.0, 2.0], previous=1.5) == 1.5
        with pytest.raises(UndefinedObjective):
            learn_alpha([0.0, 1.0, 2.0], 1.5)
        with pytest.raises(NoConsistentAlpha):
            learn_alpha([0.0, 0.0, 1.0], 0.5)

    def test_only_the_near_best_are_rescored(self, monkeypatch):
        import streampeaks.tau as tau_module
        calls = []
        exact = tau_module.objective
        monkeypatch.setattr(tau_module, "objective",
                            lambda *a: calls.append(a[1]) or exact(*a))
        deltas = [0.1 * k for k in range(1, 91)] + [30.0]
        assert select_tau(0.05, deltas) == scan_select_tau(0.05, deltas)
        assert 1 <= len(calls) < 5


def outcome_with_message(fn, *args):
    """The returned value, or the type and message of the error raised."""
    try:
        return fn(*args)
    except (UndefinedObjective, NoConsistentAlpha, ValueError,
            ZeroDivisionError) as exc:
        return type(exc), str(exc)


def bimodal(rng):
    """Tight short links and a few long ones, as arbitrary floats; the
    largest short link cuts between the modes."""
    short = [rng.uniform(0.05, 1.0) for _ in range(rng.randint(2, 30))]
    long = [rng.uniform(3.0, 12.0) for _ in range(rng.randint(1, 6))]
    return short + long, max(short)


@st.composite
def alpha_cases(draw):
    """Distances and a tau0.  The distances sit on a lattice of tenths
    (exact ties, zeros, the root's infinite sentinel) or are bimodal, so
    that many cases learn an alpha.  tau0 is one of the distances, one
    nudged either way, or a point in between."""
    rng = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        ds = draw(tenths(40))
        gap = draw(st.floats(0.0, 6.5))
    else:
        ds, gap = bimodal(rng)
        ds += [0.0] * draw(st.sampled_from([0, 0, 0, 1]))
        if draw(st.booleans()):
            ds.append(math.inf)
        rng.shuffle(ds)
    values = sorted({d for d in ds if math.isfinite(d)})
    v = values[draw(st.integers(0, len(values) - 1))]
    tau0 = draw(st.sampled_from([v, v + 0.05, v - 0.05, gap]))
    return ds, tau0


class TestLearnAlphaReference:
    """``learn_alpha`` and ``objective`` against their first, exhaustive
    versions in ``_oracles``: the same alpha and the same bits, or the
    same error with the same message."""

    @given(case=alpha_cases(), alphas=st.lists(
        st.sampled_from(ALPHA_GRID), min_size=1, max_size=3),
        picks=st.lists(st.integers(0, 10**6), max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_reference(self, case, alphas, picks):
        ds, tau0 = case
        got = outcome_with_message(learn_alpha, ds, tau0)
        assert got == outcome_with_message(reference_learn_alpha, ds, tau0)
        event("learned" if isinstance(got, float) else got[0].__name__)
        cands = candidate_taus(ds)
        taus = [tau0] + [cands[k % len(cands)] for k in picks if cands]
        for alpha in alphas:
            for tau in taus:
                assert outcome_with_message(objective, alpha, tau, ds) == \
                    outcome_with_message(reference_objective, alpha, tau, ds)

    def test_bimodal_cases_learn_the_reference_alpha(self):
        learned = 0
        for seed in range(300):
            ds, tau0 = bimodal(random.Random(seed))
            got = outcome_with_message(learn_alpha, ds, tau0)
            assert got == outcome_with_message(reference_learn_alpha, ds, tau0)
            learned += isinstance(got, float)
        assert learned >= 50

    def test_empty_and_infinite_lists_leave_the_objective_undefined(self):
        for ds in ([], [math.inf, math.inf]):
            with pytest.raises(UndefinedObjective):
                objective(0.5, 1.0, ds)

    def test_each_partition_is_scored_once(self, monkeypatch):
        """On 400 distances the terms are computed at most once per
        distinct candidate.  The 99 alphas scan tau0 and 380 rivals, which
        the reference scores with 15,780 ``objective`` calls."""
        rng = random.Random(3)
        ds = [rng.uniform(0.05, 1.0) for _ in range(380)]
        ds += [rng.uniform(3.0, 12.0) for _ in range(20)]
        tau0 = max(ds[:380])
        calls = []
        terms = tau_module._terms
        monkeypatch.setattr(tau_module, "_terms",
                            lambda ds, tau: calls.append(tau) or terms(ds, tau))
        got = outcome_with_message(learn_alpha, ds, tau0)
        assert got == outcome_with_message(reference_learn_alpha, ds, tau0)
        assert got[0] is NoConsistentAlpha
        assert len(calls) == len(set(calls)) == 381
        assert set(calls) <= set(candidate_taus(ds))


class TestTauState:
    def test_validation(self):
        TauState(alpha=0.5, tau=1.0)
        with pytest.raises(ValueError):
            TauState(alpha=0.0, tau=1.0)
        with pytest.raises(ValueError):
            TauState(alpha=1.0, tau=1.0)
        with pytest.raises(ValueError):
            TauState(alpha=0.5, tau=0.0)


class TestDecisionGraph:
    def _tree(self, cells):
        params = DecayParams(a=0.998, lam=1.0, v=1000.0, beta=0.0021)
        sp = CellSpace(params, r=0.05, dim=2)
        for rho, seed in cells:
            res = sp.assign_point(StreamPoint.of(seed, 0.0))
            cell = sp.cell(res.cell_id)
            cell.rho_last = float(rho)
            cell.active = True
        return DPTree.build(sp)

    def test_three_cell_chain(self):
        tree = self._tree([(5, (0.0, 0.0)), (3, (1.0, 0.0)), (2, (3.0, 0.0))])
        rows = decision_graph(tree, t=0.0)
        assert [r.cell_id for r in rows] == [0, 1, 2]
        assert [r.rho for r in rows] == [5.0, 3.0, 2.0]
        # root's sentinel drawn just above the largest finite distance
        assert rows[0].delta == pytest.approx(1.1 * 2.0)
        assert rows[1].delta == pytest.approx(1.0)
        assert rows[2].delta == pytest.approx(2.0)

    def test_empty_tree(self):
        params = DecayParams(a=0.998, lam=1.0, v=1000.0, beta=0.0021)
        sp = CellSpace(params, r=0.05, dim=2)
        assert decision_graph(DPTree(sp), t=0.0) == []

    def test_single_cell_fallback_ceiling(self):
        tree = self._tree([(5, (0.0, 0.0))])
        rows = decision_graph(tree, t=0.0)
        assert rows == [(0, 5.0, 1.0)]

    def test_rows_match_tree_state(self):
        tree = self._tree([(5, (0.0, 0.0)), (4, (0.7, 0.0)), (2, (2.0, 0.0)),
                           (1.5, (2.4, 0.0))])
        rows = {r.cell_id: r for r in decision_graph(tree, t=0.0)}
        for c in tree.nodes():
            if math.isfinite(tree.delta[c]):
                assert rows[c].delta == tree.delta[c]
            assert rows[c].rho == tree.space.cell_density_at(c, 0.0)
