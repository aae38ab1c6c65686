"""Hitting-set context, MCS enumeration and correction-set reduction."""

import itertools
import random

import pytest

from abduce.formula import clause_satisfied
from abduce.hitting import (CorrectionSetReducer, HardUnsatError,
                            HittingSetContext, enumerate_mcs)
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

    def test_overlap_prefers_shared_element(self):
        ctx = HittingSetContext((1, 1, 1, 1))
        ctx.hs_add_set({1, 2})
        ctx.hs_add_set({2, 3})
        assert ctx.hs_next_candidate() == (frozenset({2}), 1)

    def test_block_excludes_supersets(self):
        ctx = HittingSetContext((1, 1))
        ctx.hs_add_block({0})
        picked, _ = ctx.hs_next_candidate()
        assert 0 not in picked
        ctx.hs_add_set({0, 1})
        picked, _ = ctx.hs_next_candidate()
        assert picked == frozenset({1})

    def test_sets_plus_block_can_be_infeasible(self):
        ctx = HittingSetContext((1, 1))
        ctx.hs_add_set({0})
        ctx.hs_add_set({1})
        ctx.hs_add_block({0, 1})
        assert ctx.hs_next_candidate() is None

    def test_empty_set_and_block_rejected(self):
        ctx = HittingSetContext((1,))
        with pytest.raises(ValueError):
            ctx.hs_add_set(frozenset())
        with pytest.raises(ValueError):
            ctx.hs_add_block(frozenset())

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
        for c in p.theory:
            ctx.add_background(c)
        for c in p.manifestations:
            ctx.add_background(c)
        for r, (c, _) in zip(ctx.r_vars, p.hypotheses):
            ctx.add_background([-r] + list(c))
        assert ctx.hs_next_candidate() == (frozenset(), 0)

    def test_optimality_against_brute_force(self):
        rng = random.Random(123)
        for _ in range(60):
            n = rng.randint(1, 6)
            weights = [rng.randint(1, 4) for _ in range(n)]
            ctx = HittingSetContext(weights)
            sets, blocks = [], []
            for _ in range(rng.randint(0, 6)):
                members = frozenset(rng.sample(range(n),
                                               rng.randint(1, n)))
                if rng.random() < 0.3:
                    blocks.append(members)
                    ctx.hs_add_block(members)
                else:
                    sets.append(members)
                    ctx.hs_add_set(members)
                got = ctx.hs_next_candidate()
                want = brute_min_hitting_set(weights, sets, blocks)
                if want is None:
                    assert got is None
                    break
                picked, cost = got
                assert cost == want[1]
                assert all(picked & s for s in sets)
                assert not any(b <= picked for b in blocks)

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


def mcses_of(nv, hard, soft_clauses, limit):
    s, selectors = soft_solver(nv, hard, soft_clauses)
    return enumerate_mcs(s, selectors, soft_clauses, limit)


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

    def test_hard_unsat_raises(self):
        for limit in (5, 0):
            with pytest.raises(HardUnsatError):
                mcses_of(1, [(1,), (-1,)], [(1,)], limit)

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
            if want is None:
                with pytest.raises(HardUnsatError):
                    mcses_of(nv, hard, soft, limit)
                continue
            got = mcses_of(nv, hard, soft, limit)
            assert len(set(got)) == len(got)
            if want == {frozenset()}:
                assert got == []  # hard plus all soft clauses is satisfiable
            elif limit >= len(want):
                assert set(got) == want
            else:
                assert len(got) == limit and set(got) <= want


class TestReduction:
    def reduce(self, nv, hard, soft, falsified, weights, fraction):
        s, selectors = soft_solver(nv, hard, soft)
        reducer = CorrectionSetReducer(s, selectors, soft, weights)
        return reducer.reduce([False] * (nv + 1), falsified, fraction)

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
            model = res.model
            falsified = {i for i, c in enumerate(soft)
                         if not clause_satisfied(c, model)}
            if not falsified:
                continue
            out = self.reduce(nv, hard, soft, falsified, weights, 1.0)
            assert out <= falsified
            # complement of the result must not be satisfiable all together
            s2 = Solver(nv)
            for c in hard:
                s2.add_clause(c)
            for i, c in enumerate(soft):
                if i not in out:
                    s2.add_clause(c)
            if out:
                assert s2.solve().satisfiable
                s3 = Solver(nv)
                for c in hard:
                    s3.add_clause(c)
                for c in soft:
                    s3.add_clause(c)
                assert not s3.solve().satisfiable

    def test_reducer_reusable_across_calls(self):
        s, selectors = soft_solver(2, [(-1, -2)], [(1,), (2,)])
        red = CorrectionSetReducer(s, selectors, [(1,), (2,)], (1, 1))
        first = red.reduce([False, False, False], {0, 1}, 1.0)
        second = red.reduce([False, False, False], {0, 1}, 1.0)
        assert first == second and len(first) == 1
