"""MaxSAT tests: exactness, incrementality, SAT calls per core, WCNF,
totalizer."""

import itertools
import random

import pytest

from abduce.formula import Cnf, make_clause, parse_wcnf
from abduce.maxsat import CostMinimizer, solve_wcnf, totalizer
from abduce.sat import Solver


def brute_optimum(num_vars, hard, soft):
    """Minimum falsified-soft weight over all assignments, None if hard unsat."""
    best = None
    for bits in itertools.product((False, True), repeat=num_vars):
        model = [False] + list(bits)
        if not all(any(model[abs(l)] == (l > 0) for l in c) for c in hard):
            continue
        cost = sum(w for l, w in soft if model[abs(l)] != (l > 0))
        if best is None or cost < best:
            best = cost
    return best


def random_soft_instance(rng, max_vars=8):
    nv = rng.randint(1, max_vars)
    hard = []
    for _ in range(rng.randint(0, 10)):
        length = rng.randint(1, min(3, nv))
        variables = rng.sample(range(1, nv + 1), length)
        hard.append(tuple(v if rng.random() < 0.5 else -v
                          for v in variables))
    soft = []
    for _ in range(rng.randint(1, 6)):
        lit = rng.randint(1, nv) * rng.choice([-1, 1])
        soft.append((lit, rng.randint(1, 5)))
    return nv, hard, soft


class TestExamples:
    def test_one_of_two_must_pay(self):
        res = solve_wcnf(Cnf(2, ((1, 2),)), [((-1,), 1), ((-2,), 1)])
        assert not res.hard_unsat and res.cost == 1

    def test_hard_unsat(self):
        res = solve_wcnf(Cnf(1, ((1,), (-1,))), [])
        assert res.hard_unsat

    def test_compute_after_hard_unsat(self):
        opt = CostMinimizer()
        opt.add_hard([1])
        opt.add_hard([-1])
        assert opt.compute() is None
        # the engine is no longer ok, so the second call searches nothing
        s = opt.solver
        before = (s.num_conflicts, s.num_decisions, s.num_propagations,
                  opt.cores_found)
        assert opt.compute() is None
        assert (s.num_conflicts, s.num_decisions, s.num_propagations,
                opt.cores_found) == before

    def test_soft_literal_beyond_declared_vars(self):
        res = solve_wcnf(Cnf(1), [((3,), 1)])
        assert not res.hard_unsat and res.cost == 0 and res.model[3]

    def test_weights_break_tie(self):
        res = solve_wcnf(Cnf(2, ((1, 2),)), [((-1,), 2), ((-2,), 1)])
        assert res.cost == 1
        assert res.model[2] is True and res.model[1] is False

    def test_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            solve_wcnf(Cnf(1, ()), [((1,), 0)])


class TestExactness:
    def test_random_instances_match_enumeration(self):
        rng = random.Random(77)
        for _ in range(150):
            nv, hard, soft = random_soft_instance(rng)
            res = solve_wcnf(Cnf(nv, tuple(hard)),
                             [((l,), w) for l, w in soft])
            want = brute_optimum(nv, hard, soft)
            if want is None:
                assert res.hard_unsat
            else:
                assert res.cost == want
                model = res.model
                assert all(any(model[abs(l)] == (l > 0) for l in c)
                           for c in hard)
                paid = sum(w for l, w in soft if model[abs(l)] != (l > 0))
                assert paid == res.cost

    def test_one_sat_call_per_core(self):
        # each core is relaxed as the solver returns it: one call per core,
        # plus the final one (a model, or the empty core of hard unsat)
        rng = random.Random(13)
        multi = 0
        for _ in range(60):
            nv, hard, soft = random_soft_instance(rng, max_vars=6)
            opt = CostMinimizer()
            opt.solver.extend_vars(nv)
            for c in hard:
                opt.add_hard(c)
            for l, w in soft:
                opt.add_soft(l, w)
            cores = []
            solve = opt.solver.solve

            def counted(assumptions=()):
                res = solve(assumptions)
                cores.append(res.core)
                return res

            opt.solver.solve = counted
            opt.compute()
            assert len(cores) == opt.cores_found + 1
            multi += sum(1 for c in cores if c and len(c) > 1)
        assert multi  # cores of more than one literal were relaxed too


class TestIncremental:
    def test_optimum_never_decreases(self):
        rng = random.Random(21)
        for _ in range(40):
            nv, hard, soft = random_soft_instance(rng, max_vars=6)
            opt = CostMinimizer()
            opt.solver.extend_vars(nv)
            for l, w in soft:
                opt.add_soft(l, w)
            added = []
            prev = -1
            for c in hard:
                opt.add_hard(c)
                added.append(c)
                out = opt.compute()
                want = brute_optimum(nv, added, soft)
                if want is None:
                    assert out is None
                    break
                model, cost = out
                assert cost == want
                assert cost >= prev
                prev = cost


class TestWcnf:
    def test_clause_softs(self):
        hard, soft = parse_wcnf(
            "p wcnf 3 4 10\n10 1 2 0\n2 -1 0\n2 -2 0\n1 -1 -2 3 0\n")
        res = solve_wcnf(hard, soft)
        assert not res.hard_unsat and res.cost == 2

    def test_literal_zero_soft_rejected(self):
        with pytest.raises(ValueError, match="literal 0"):
            solve_wcnf(Cnf(1), [((0,), 1)])

    def test_matches_enumeration_on_clause_softs(self):
        rng = random.Random(31)
        for _ in range(60):
            nv = rng.randint(1, 7)
            hard = []
            for _ in range(rng.randint(0, 6)):
                variables = rng.sample(range(1, nv + 1),
                                       rng.randint(1, min(3, nv)))
                hard.append(make_clause(
                    v if rng.random() < 0.5 else -v for v in variables))
            soft = []
            for _ in range(rng.randint(1, 5)):
                variables = rng.sample(range(1, nv + 1),
                                       rng.randint(1, min(3, nv)))
                soft.append((make_clause(
                    v if rng.random() < 0.5 else -v for v in variables),
                    rng.randint(1, 4)))
            res = solve_wcnf(Cnf(nv, tuple(hard)), soft)
            best = None
            for bits in itertools.product((False, True), repeat=nv):
                model = [False] + list(bits)
                if not all(any(model[abs(l)] == (l > 0) for l in c)
                           for c in hard):
                    continue
                cost = sum(w for c, w in soft
                           if not any(model[abs(l)] == (l > 0) for l in c))
                best = cost if best is None else min(best, cost)
            if best is None:
                assert res.hard_unsat
            else:
                assert res.cost == best


class TestTotalizer:
    def test_outputs_count_true_inputs(self):
        # inputs fixed by assumptions: with c true, output min(c, cap) - 1
        # is forced and every later output can still be false
        for n in range(1, 11):
            for cap in [None] + list(range(1, n + 1)):
                s = Solver(n)
                outs = totalizer(range(1, n + 1), s.new_var, s.add_clause,
                                 cap=cap)
                width = n if cap is None else min(n, cap)
                assert len(outs) == width
                for c in range(n + 1):
                    inputs = [v if v <= c else -v for v in range(1, n + 1)]
                    forced = min(c, width)
                    if forced:
                        res = s.solve(inputs + [-outs[forced - 1]])
                        assert not res.satisfiable
                    res = s.solve(inputs + [-o for o in outs[forced:]])
                    assert res.satisfiable
