"""Hitting-set context, MCS enumeration and correction-set reduction."""

import itertools
import random

import pytest

from abduce import hitting
from abduce.formula import clause_satisfied
from abduce.generators import gen_family1, gen_family2
from abduce.hitting import (CorrectionSetReducer, HittingSetContext,
                            enumerate_mcs)
from abduce.hyper import EntailmentChecker
from abduce.sat import Solver

from conftest import enumerate_models, worked_instance


def brute_min_hitting_set(weights, sets, blocks):
    """Cheapest index subset hitting all sets and violating no block."""
    n = len(weights)
    best = None
    for bits in itertools.product((False, True), repeat=n):
        chosen = frozenset(i for i in range(n) if bits[i])
        if any(not (chosen & s) for s in sets):
            continue
        if any(b <= chosen for b in blocks):
            continue
        cost = sum(weights[i] for i in chosen)
        if best is None or cost < best[1]:
            best = (chosen, cost)
    return best


class TestCandidates:
    def test_initial_candidate_is_empty(self):
        ctx = HittingSetContext((1, 1, 1))
        assert ctx.hs_next_candidate() == (frozenset(), 0)

    def test_set_must_be_hit(self):
        ctx = HittingSetContext((1, 1, 1))
        ctx.hs_add_set({1, 2})
        picked, cost = ctx.hs_next_candidate()
        assert picked & {1, 2} and cost == 1

    def test_two_singletons_force_both(self):
        ctx = HittingSetContext((1, 1, 1))
        ctx.hs_add_set({1})
        ctx.hs_add_set({2})
        assert ctx.hs_next_candidate() == (frozenset({1, 2}), 2)

    def test_single_member_sets_picked_in_one_step(self, monkeypatch):
        # the root picks all 40 forced members: two nodes, not a chain of 41
        calls = []
        packing = hitting._packing
        monkeypatch.setattr(hitting, "_packing",
                            lambda *a: calls.append(1) or packing(*a))
        ctx = HittingSetContext([1] * 41)
        for i in range(40):
            ctx.hs_add_set({i})
        assert ctx.hs_next_candidate() == (frozenset(range(40)), 40)
        assert len(calls) == 2

    def test_overlap_prefers_shared_element(self):
        ctx = HittingSetContext((1, 1, 1, 1))
        ctx.hs_add_set({1, 2})
        ctx.hs_add_set({2, 3})
        assert ctx.hs_next_candidate() == (frozenset({2}), 1)

    def test_block_excludes_supersets(self):
        ctx = HittingSetContext((1, 1), num_base_vars=0)
        ctx.hs_add_block({0})
        picked, _ = ctx.hs_next_candidate()
        assert 0 not in picked
        ctx.hs_add_set({0, 1})
        picked, _ = ctx.hs_next_candidate()
        assert picked == frozenset({1})

    def test_sets_plus_block_can_be_infeasible(self):
        ctx = HittingSetContext((1, 1), num_base_vars=0)
        ctx.hs_add_set({0})
        ctx.hs_add_set({1})
        ctx.hs_add_block({0, 1})
        assert ctx.hs_next_candidate() is None
        assert ctx.hs_next_candidate() is None  # and stays infeasible

    def test_empty_set_and_block_rejected(self):
        ctx = HittingSetContext((1,), num_base_vars=0)
        with pytest.raises(ValueError):
            ctx.hs_add_set(frozenset())
        with pytest.raises(ValueError):
            ctx.hs_add_block(frozenset())
        with pytest.raises(ValueError):
            HittingSetContext((1,)).hs_add_set(frozenset())

    def test_branch_and_bound_takes_sets_only(self):
        ctx = HittingSetContext((1, 1))
        assert ctx.r_vars is None
        with pytest.raises(ValueError):
            ctx.hs_add_block({0})
        ctx.hs_add_set({0})
        ctx.hs_add_set({1})  # the sets alone are always hittable
        assert ctx.hs_next_candidate() == (frozenset({0, 1}), 2)

    def test_background_constrains_selection(self):
        # background makes r0 and r1 mutually exclusive
        ctx = HittingSetContext((1, 1), num_base_vars=0)
        ctx.add_background([-ctx.r_vars[0], -ctx.r_vars[1]])
        ctx.hs_add_set({0, 1})
        picked, cost = ctx.hs_next_candidate()
        assert len(picked) == 1 and cost == 1

    def test_worked_instance_background_allows_empty(self):
        p = worked_instance()
        ctx = HittingSetContext(p.weights, num_base_vars=p.num_vars)
        r_vars, relaxed = p.relaxed(p.num_vars + 1)
        assert r_vars == ctx.r_vars
        for c in p.theory + p.manifestations + relaxed:
            ctx.add_background(c)
        assert ctx.hs_next_candidate() == (frozenset(), 0)

    def test_optimality_against_brute_force(self):
        # branch and bound on sets only; OLL on the same sets plus blocks
        rng = random.Random(123)
        infeasible = 0
        for _ in range(150):
            n = rng.randint(1, 10)
            weights = [rng.randint(1, 9) for _ in range(n)]
            bb = HittingSetContext(weights)
            oll = HittingSetContext(weights, num_base_vars=0)
            sets, blocks = [], []
            for _ in range(rng.randint(0, 12)):
                members = frozenset(rng.sample(range(n),
                                               rng.randint(1, min(n, 4))))
                if rng.random() < 0.3:
                    blocks.append(members)
                    oll.hs_add_block(members)
                else:
                    sets.append(members)
                    oll.hs_add_set(members)
                    bb.hs_add_set(members)
                    picked, cost = bb.hs_next_candidate()
                    assert cost == brute_min_hitting_set(weights, sets, ())[1]
                    assert cost == sum(weights[i] for i in picked)
                    assert all(picked & s for s in sets)
                got = oll.hs_next_candidate()
                want = brute_min_hitting_set(weights, sets, blocks)
                if want is None:
                    assert got is None
                    infeasible += 1
                    continue  # stays infeasible as sets and blocks grow
                picked, cost = got
                assert cost == want[1] == sum(weights[i] for i in picked)
                assert all(picked & s for s in sets)
                assert not any(b <= picked for b in blocks)
        assert infeasible >= 10

    def test_branch_and_bound_matches_oll(self):
        # the same sequences on both backends, beyond brute force's reach
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(1, 24)
            weights = [rng.choice((1, 1, rng.randint(1, 9)))
                       for _ in range(n)]
            bb = HittingSetContext(weights)
            oll = HittingSetContext(weights, num_base_vars=0)
            assert bb.opt is None and oll.opt is not None
            for _ in range(rng.randint(1, 30)):
                members = frozenset(rng.sample(range(n),
                                               rng.randint(1, min(n, 5))))
                bb.hs_add_set(members)
                oll.hs_add_set(members)
                got, want = bb.hs_next_candidate(), oll.hs_next_candidate()
                assert got is not None and got[1] == want[1]

    def test_branch_and_bound_has_no_background(self):
        ctx = HittingSetContext((1, 1))
        with pytest.raises(ValueError):
            ctx.add_background([1])
        assert ctx.opt is None
        assert ctx.hs_next_candidate() == (frozenset(), 0)
        with pytest.raises(ValueError):  # as OLL rejects a soft weight < 1
            HittingSetContext((1, 0))
        with pytest.raises(ValueError, match="whole number, got 1.7"):
            HittingSetContext((1.7, 2))  # used to cut 1.7 to 1

    @pytest.mark.parametrize("base", [None, 0, 3])
    def test_indices_out_of_range_rejected(self, base):
        # -1 used to alias the last hypothesis: {-1} gave ({2}, 1)
        ctx = HittingSetContext((5, 1, 1), num_base_vars=base)
        for bad in ({-1}, {3}, {0, 7}):
            with pytest.raises(ValueError):
                ctx.hs_add_set(bad)
            with pytest.raises(ValueError):
                ctx.hs_add_block(bad)
        assert ctx.hs_next_candidate() == (frozenset(), 0)

    def test_progress_after_disjoint_set(self):
        rng = random.Random(5)
        for _ in range(30):
            n = 6
            ctx = HittingSetContext([1] * n)
            for _ in range(rng.randint(0, 4)):
                ctx.hs_add_set(frozenset(rng.sample(range(n),
                                                    rng.randint(1, 3))))
            out = ctx.hs_next_candidate()
            if out is None:
                continue
            picked, _ = out
            rest = frozenset(range(n)) - picked
            if not rest:
                continue
            ctx.hs_add_set(rest)
            new = ctx.hs_next_candidate()
            assert new is not None and new[0] != picked


def soft_solver(nv, hard, soft_clauses):
    """A solver holding the hard clauses plus s_i -> C_i, and the s_i."""
    s = Solver(nv)
    for c in hard:
        s.add_clause(c)
    selectors = []
    for c in soft_clauses:
        sel = s.new_var()
        selectors.append(sel)
        s.add_clause([-sel] + list(c))
    return s, selectors


def mcses_of(nv, hard, soft_clauses, limit, price=None):
    s, selectors = soft_solver(nv, hard, soft_clauses)
    return enumerate_mcs(s, selectors, soft_clauses, limit, price)


def brute_mcses(nv, hard, soft_clauses):
    """All MCSes by model enumeration: the minimal falsified sets of the
    models of the hard part; None when the hard part has no model."""
    falsified = {frozenset(i for i, c in enumerate(soft_clauses)
                           if not clause_satisfied(c, model))
                 for model in enumerate_models(nv, hard)}
    if not falsified:
        return None
    return {u for u in falsified if not any(v < u for v in falsified)}


def random_clauses(rng, nv, count, max_len):
    return [tuple(v if rng.random() < 0.5 else -v
                  for v in rng.sample(range(1, nv + 1),
                                      rng.randint(1, min(max_len, nv))))
            for _ in range(count)]


class TestEnumerateMcs:
    def test_two_unit_mcses(self):
        mcses = mcses_of(2, [(-1, -2)], [(1,), (2,)], 10)
        assert sorted(mcses, key=sorted) == [frozenset({0}), frozenset({1})]

    def test_satisfiable_gives_empty(self):
        assert mcses_of(1, [], [(1,)], 10) == []

    def test_limit_respected(self):
        assert len(mcses_of(2, [(-1, -2)], [(1,), (2,)], 1)) == 1

    def test_hard_unsat_gives_none(self):
        assert mcses_of(1, [(1,), (-1,)], [(1,)], 5) is None

    def test_limit_below_one_rejected_before_solving(self):
        # [] would claim "hard part plus all softs satisfiable"
        def no_sat_call(*args):
            raise AssertionError("SAT call before the limit check")

        p = gen_family2(3)
        clauses = [c for c, _ in p.hypotheses]
        for limit in (0, -1):
            checker = EntailmentChecker(p)
            checker.solver.solve = no_sat_call
            with pytest.raises(ValueError):
                enumerate_mcs(checker.solver, checker.r_vars, clauses, limit)
        with pytest.raises(ValueError):
            mcses_of(1, [(1,), (-1,)], [(1,)], 0)
        checker = EntailmentChecker(p)
        assert len(enumerate_mcs(checker.solver, checker.r_vars, clauses,
                                 5)) == 5

    def test_limit_reached_makes_no_further_call(self):
        # the call that closes the limit-th MCS is the last one: no model
        # call starts a round that would not be used
        p = gen_family1(3)
        checker = EntailmentChecker(p)
        calls, solve = [], checker.solver.solve

        def recorded(assumptions=()):
            res = solve(assumptions)
            calls.append((len(assumptions), res.satisfiable))
            return res

        checker.solver.solve = recorded
        clauses = [c for c, _ in p.hypotheses]
        assert len(enumerate_mcs(checker.solver, checker.r_vars, clauses,
                                 2)) == 2
        assert calls == [(0, True), (10, False), (0, True), (10, False)]

    def test_outputs_are_minimal_correction_sets(self):
        # every output is an MCS, and under the limit all of them are found
        rng = random.Random(321)
        for _ in range(300):
            nv = rng.randint(1, 6)
            hard = random_clauses(rng, nv, rng.randint(0, 4), 3)
            soft = random_clauses(rng, nv, rng.randint(1, 7),
                                  rng.choice([1, 2]))
            want = brute_mcses(nv, hard, soft)
            limit = rng.choice([1, 2, 50])
            got = mcses_of(nv, hard, soft, limit)
            if want is None:
                assert got is None
                continue
            assert len(set(got)) == len(got)
            if want == {frozenset()}:
                assert got == []  # hard plus all soft clauses is satisfiable
            elif limit >= len(want):
                assert set(got) == want
            else:
                assert len(got) == limit and set(got) <= want

    def test_leaves_no_variable_and_only_implied_clauses(self):
        # after a non-empty result the solver answers every query as one
        # with the hard part, the s_i -> C_i and the returned blocks alone
        rng = random.Random(654)
        compared = 0
        for _ in range(200):
            nv = rng.randint(1, 6)
            hard = random_clauses(rng, nv, rng.randint(0, 4), 3)
            soft = random_clauses(rng, nv, rng.randint(1, 7),
                                  rng.choice([1, 2]))
            s, selectors = soft_solver(nv, hard, soft)
            num_vars = s.num_vars
            got = enumerate_mcs(s, selectors, soft, rng.choice([1, 2, 50]))
            assert s.num_vars == num_vars
            if not got:  # None when the hard part is unsatisfiable
                continue
            fresh, _ = soft_solver(nv, hard, soft)
            for mcs in got:
                fresh.add_clause([selectors[i] for i in mcs])
            for _ in range(10):
                assumptions = [x if rng.random() < 0.5 else -x
                               for x in rng.sample(selectors, rng.randint(
                                   0, len(selectors)))]
                assert (s.solve(assumptions).satisfiable
                        == fresh.solve(assumptions).satisfiable)
            compared += 1
        assert compared > 50


def round_conflicts(solver):
    """Wrap ``solver.solve``; the returned list gets the conflicts of each
    round of :func:`enumerate_mcs`.  A round starts with the first call
    and with each call after an unsatisfiable one."""
    rounds, solve, last = [], solver.solve, [None]

    def counted(assumptions=()):
        before = solver.num_conflicts
        res = solve(assumptions)
        if last[0] is None or not last[0].satisfiable:
            rounds.append(0)
        rounds[-1] += solver.num_conflicts - before
        last[0] = res
        return res

    solver.solve = counted
    return rounds


def priced_instances(seed, count):
    """(num_vars, hard 3-CNF, soft clauses of one or two literals), most
    with several MCSes and some with conflicts in their rounds."""
    rng = random.Random(seed)
    for _ in range(count):
        nv = rng.randint(6, 16)
        hard = [tuple(v if rng.random() < 0.5 else -v
                      for v in rng.sample(range(1, nv + 1), 3))
                for _ in range(rng.randint(nv, 4 * nv))]
        yield nv, hard, random_clauses(rng, nv, rng.randint(nv, 2 * nv), 2)


class TestPricedEnumeration:
    def test_stops_after_the_first_mcs_that_costs_more_than_the_price(self):
        # a priced enumeration is the prefix of the unpriced one, in a
        # fresh solver, that ends with the first MCS whose round took
        # more than the price in conflicts
        stopped = set()
        for nv, hard, soft in priced_instances(987, 150):
            s, selectors = soft_solver(nv, hard, soft)
            rounds = round_conflicts(s)
            full = enumerate_mcs(s, selectors, soft, 50)
            for price in (0, 1, 3):
                got = mcses_of(nv, hard, soft, 50, price)
                if not full:  # None or []: decided before any MCS
                    assert got == full
                    continue
                want = next((k + 1 for k, c in enumerate(rounds[:len(full)])
                             if c > price), len(full))
                assert got == full[:want]
                if want < len(full):
                    stopped.add(price)
        assert stopped == {0, 1, 3}

    def test_price_zero_stops_at_the_first_round_with_a_conflict(self):
        checked = 0
        for nv, hard, soft in priced_instances(988, 150):
            s, selectors = soft_solver(nv, hard, soft)
            rounds = round_conflicts(s)
            got = enumerate_mcs(s, selectors, soft, 50, 0)
            if not got:
                continue
            assert all(c == 0 for c in rounds[:len(got) - 1])
            # a stop makes no further call; with no conflict at all the
            # enumeration ran to its end, whose model call is one more round
            last = rounds[len(got) - 1]
            assert len(rounds) == len(got) + (last == 0)
            checked += last > 0
        assert checked > 10

    def test_no_price_gives_every_mcs(self):
        # no price is the enumeration without the keyword, and the second
        # instance gives the list recorded before prices existed
        instances = list(priced_instances(989, 60))
        for nv, hard, soft in instances:
            assert (mcses_of(nv, hard, soft, 50, None)
                    == mcses_of(nv, hard, soft, 50))
        recorded = [
            (7, 12), (9, 12, 13), (2, 12, 13, 15), (2, 9, 10, 13, 15),
            (7, 10, 14), (9, 10, 13, 14), (4, 8, 12, 13, 16),
            (1, 2, 6, 12, 13), (1, 3, 4, 10, 11, 13), (1, 7, 10),
            (1, 2, 4, 11, 12, 13), (2, 3, 4, 10, 11, 13, 15),
            (0, 2, 3, 8, 10, 13, 14, 15, 16), (2, 7, 9, 10, 15),
            (2, 3, 4, 7, 10, 11, 15)]
        assert mcses_of(*instances[1], 50, None) == list(
            map(frozenset, recorded))


class TestReduction:
    # M is the unit clause over one fresh variable, which every model here
    # leaves false, unless a case gives its own M
    def reduce(self, nv, hard, soft, falsified, weights, fraction,
               model=None, goal=None):
        if goal is None:
            goal = [(nv + 1,)]
        reducer = CorrectionSetReducer(hard, soft, goal, weights)
        if model is None:
            model = [False] * (nv + 2)
        return reducer.reduce(model, falsified, fraction)

    def test_zero_fraction_is_identity(self):
        out = self.reduce(2, [(-1, -2)], [(1,), (2,)], {0, 1}, (1, 1), 0.0)
        assert out == {0, 1}

    def test_one_clause_migrates(self):
        out = self.reduce(2, [(-1, -2)], [(1,), (2,)], {0, 1}, (1, 1), 1.0)
        assert len(out) == 1

    def test_conflicting_clauses_stay(self):
        # both soft clauses individually conflict with the hard part
        out = self.reduce(2, [(-1,), (-2,)], [(1,), (2,)], {0, 1}, (1, 1), 1.0)
        assert out == {0, 1}

    def test_cheapest_walked_first_and_fraction_caps_the_walk(self):
        # flipping either variable breaks the hard clause for the other
        hard, soft = [(-1, -2)], [(1,), (2,)]
        assert self.reduce(2, hard, soft, {0, 1}, (3, 1), 1.0) == {0}
        assert self.reduce(2, hard, soft, {0, 1}, (1, 3), 1.0) == {1}
        # with three falsified and fraction 0.3 only the cheapest is walked
        out = self.reduce(3, [], [(1,), (2,), (3,)], {0, 1, 2}, (2, 1, 3), 0.3)
        assert out == {0, 2}

    def test_a_flip_keeps_some_manifestation_falsified(self):
        # satisfying the only falsified clause of M is refused
        assert self.reduce(1, [], [(1,)], {0}, (1,), 1.0, goal=[(1,)]) == {0}
        # one falsified clause of M may take over from another
        out = self.reduce(2, [], [(1,)], {0}, (1,), 1.0, goal=[(1,), (-1, 2)])
        assert out == set()

    def test_satisfied_hypotheses_stay_satisfied(self):
        # soft 1 = (not x1) holds in the model, so x1 may not flip for soft 0
        model = [False, False, True, False]
        out = self.reduce(2, [], [(1,), (-1,), (-2,)], {0, 2}, (1, 1, 1), 1.0,
                          model=model)
        assert out == {0}

    def assert_correction_set(self, nv, hard, soft, falsified, out):
        # out is a subset of falsified and exactly the falsified set of
        # some model of the hard part and not-M: its complement holds
        # there and each member fails
        assert out <= falsified
        s = Solver(nv + 1)
        for c in hard:
            s.add_clause(c)
        s.add_clause([-(nv + 1)])
        for i, c in enumerate(soft):
            if i in out:
                for l in c:
                    s.add_clause([-l])
            else:
                s.add_clause(c)
        assert s.solve().satisfiable

    def test_output_remains_a_correction_set(self):
        rng = random.Random(55)
        for _ in range(40):
            nv = rng.randint(2, 6)
            hard = tuple(
                tuple(v if rng.random() < 0.5 else -v
                      for v in rng.sample(range(1, nv + 1), 2))
                for _ in range(rng.randint(0, 3)))
            soft = [
                (rng.randint(1, nv) * rng.choice([-1, 1]),)
                for _ in range(rng.randint(1, 5))]
            weights = [rng.randint(1, 3) for _ in soft]
            s = Solver(nv)
            for c in hard:
                s.add_clause(c)
            res = s.solve()
            if not res.satisfiable:
                continue
            model = res.model + [False]
            falsified = {i for i, c in enumerate(soft)
                         if not clause_satisfied(c, model)}
            if not falsified:
                continue
            out = self.reduce(nv, hard, soft, falsified, weights, 1.0,
                              model=model)
            self.assert_correction_set(nv, hard, soft, falsified, out)

    def test_chain_through_a_theory_clause(self):
        # flipping x1 breaks (not x1 or x2), and x2 then repairs it; a
        # single flip is refused
        hard, soft = [(-1, 2)], [(1,)]
        out = self.reduce(2, hard, soft, {0}, (1,), 1.0)
        assert out == set()
        self.assert_correction_set(2, hard, soft, {0}, out)

    def test_chain_through_a_kept_hypothesis(self):
        # soft 1 holds in the model; flipping x1 for soft 0 breaks it, and
        # x2 repairs it, so it holds again at the end
        soft = [(1,), (-1, 2)]
        out = self.reduce(2, [], soft, {0}, (1, 1), 1.0)
        assert out == set()
        self.assert_correction_set(2, [], soft, {0}, out)

    def test_a_flip_only_a_second_pass_finds(self):
        # x1 breaks both hard clauses until soft 1 and soft 2, walked after
        # soft 0, have set x2 and x3
        hard, soft = [(-1, 2), (-1, 3)], [(1,), (2,), (3,)]
        out = self.reduce(3, hard, soft, {0, 1, 2}, (1, 2, 3), 1.0)
        assert out == set()
        self.assert_correction_set(3, hard, soft, {0, 1, 2}, out)

    def test_a_cycle_of_clauses_ends(self):
        # x1, x2, x3, x4 follow each other round to (not x4 or not x1),
        # whose literals lead back into clauses already entered
        hard = [(-1, 2), (-2, 3), (-3, 4), (-4, -1)]
        assert self.reduce(4, hard, [(1,)], {0}, (1,), 1.0) == {0}

    def test_a_long_implication_chain_is_followed_to_its_end(self):
        # deeper than the interpreter's recursion limit
        n = 2000
        hard = [(-v, v + 1) for v in range(1, n + 1)]
        out = self.reduce(n + 1, hard, [(1,)], {0}, (1,), 1.0)
        assert out == set()
        self.assert_correction_set(n + 1, hard, [(1,)], {0}, out)

    def test_reducer_reusable_across_calls(self):
        red = CorrectionSetReducer([(-1, -2)], [(1,), (2,)], [(3,)], (1, 1))
        model = [False] * 4
        first = red.reduce(model, {0, 1}, 1.0)
        second = red.reduce(model, {0, 1}, 1.0)
        assert first == second and len(first) == 1
        assert model == [False] * 4  # the caller's model is not modified
