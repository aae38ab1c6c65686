"""SAT engine tests: examples, soundness fuzzing, cores, determinism."""

import hashlib
import itertools
import random

import pytest

from abduce import sat
from abduce.baseline import BaselineVariant, solve_abhs
from abduce.generators import gen_family1
from abduce.hyper import HyperOptions, solve_hyper
from abduce.sat import Solver

from conftest import enumerate_models, planted_pap


def brute_sat(num_vars, clauses, assumptions=()):
    fixed = {abs(l): l > 0 for l in assumptions}
    for bits in itertools.product((False, True), repeat=num_vars):
        model = [False] + list(bits)
        if any(model[v] != want for v, want in fixed.items()):
            continue
        if all(any(model[abs(l)] == (l > 0) for l in c) for c in clauses):
            return model
    return None


def random_cnf(rng, max_vars=8, max_clauses=16):
    nv = rng.randint(1, max_vars)
    clauses = []
    for _ in range(rng.randint(0, max_clauses)):
        length = rng.randint(1, min(3, nv))
        variables = rng.sample(range(1, nv + 1), length)
        clauses.append(tuple(v if rng.random() < 0.5 else -v
                             for v in variables))
    return nv, clauses


class TestBasics:
    def test_unit_clause(self):
        s = Solver(1)
        s.add_clause([1])
        res = s.solve()
        assert res.satisfiable and res.model[1] is True

    def test_contradiction(self):
        s = Solver(1)
        s.add_clause([1])
        s.add_clause([-1])
        assert not s.solve().satisfiable

    def test_empty_clause_is_permanent(self):
        s = Solver(2)
        s.add_clause([])
        assert not s.solve().satisfiable
        s.add_clause([1])
        assert not s.solve().satisfiable

    def test_assumption_steers_model(self):
        s = Solver(2)
        s.add_clause([1, 2])
        res = s.solve([-1])
        assert res.satisfiable and res.model[2] is True and not res.model[1]

    def test_assumption_core(self):
        s = Solver(1)
        s.add_clause([1])
        res = s.solve([-1])
        assert not res.satisfiable
        assert res.core <= frozenset([-1]) and res.core

    def test_unsat_without_assumptions_has_empty_core(self):
        s = Solver(2)
        s.add_clause([1, 2])
        s.add_clause([-1])
        s.add_clause([-2])
        res = s.solve()
        assert not res.satisfiable and res.core == frozenset()

    def test_literal_zero_assumption_rejected(self):
        # rejected before any assumption is enqueued, so the solver still works
        s = Solver(2)
        s.add_clause([1, 2])
        for assumptions in ([0], [-1, 0]):
            with pytest.raises(ValueError, match="literal 0"):
                s.solve(assumptions)
        res = s.solve([-1])
        assert res.satisfiable and res.model[2] and not res.model[1]
        assert not s.solve([-1, -2]).satisfiable

    def test_auto_extend_vars(self):
        s = Solver()
        s.add_clause([7])
        res = s.solve()
        assert res.satisfiable and res.model[7] is True
        res = Solver(2).solve([5])  # an assumption extends them too
        assert res.satisfiable and len(res.model) == 6 and res.model[5]

    def test_literal_zero_clause_rejected(self):
        with pytest.raises(ValueError, match="literal 0"):
            Solver(2).add_clause([1, 0])

    def test_duplicate_literal_stored_once(self):
        s = Solver(2)
        s.add_clause([1, 1, 2])
        assert s.clauses == [[1, 2]]


class TestAgainstBruteForce:
    def test_models_and_status(self):
        rng = random.Random(42)
        for _ in range(200):
            nv, clauses = random_cnf(rng)
            s = Solver(nv)
            for c in clauses:
                s.add_clause(c)
            assumptions = [v * rng.choice([-1, 1])
                           for v in rng.sample(range(1, nv + 1),
                                               rng.randint(0, min(3, nv)))]
            res = s.solve(assumptions)
            want = brute_sat(nv, clauses, assumptions)
            assert res.satisfiable == (want is not None)
            if res.satisfiable:
                model = res.model
                assert all(any(model[abs(l)] == (l > 0) for l in c)
                           for c in clauses)
                assert all(model[abs(a)] == (a > 0) for a in assumptions)
            else:
                assert res.core <= frozenset(assumptions)
                # re-solving under the core alone must stay unsatisfiable
                s2 = Solver(nv)
                for c in clauses:
                    s2.add_clause(c)
                assert not s2.solve(sorted(res.core)).satisfiable

    def test_incremental_reuse(self):
        rng = random.Random(3)
        for _ in range(40):
            nv, clauses = random_cnf(rng, max_vars=6, max_clauses=10)
            s = Solver(nv)
            added = []
            for c in clauses:
                s.add_clause(c)
                added.append(c)
                res = s.solve()
                assert res.satisfiable == (brute_sat(nv, added) is not None)


class TestDeterminism:
    def test_same_sequence_same_results(self):
        def run():
            rng = random.Random(9)
            outputs = []
            s = Solver(6)
            for _ in range(30):
                nv, clauses = random_cnf(rng, max_vars=6, max_clauses=4)
                for c in clauses:
                    s.add_clause(c)
                res = s.solve([rng.choice([-1, 1]) * rng.randint(1, 6)])
                outputs.append((res.satisfiable,
                                tuple(res.model or ()), res.core))
            return outputs

        assert run() == run()


def random_3cnf(rng, nv, count):
    return [tuple(v if rng.random() < 0.5 else -v
                  for v in rng.sample(range(1, nv + 1), 3))
            for _ in range(count)]


def check_invariants(s):
    """Each stored clause sits in exactly the watch lists of its first two
    literals, every unassigned variable is queued at its activity, and
    every conflict-analysis flag is clear."""
    assert flags_clear(s)
    where = {}
    for lit, ws in s.watches.items():
        for c in ws:
            where.setdefault(id(c), []).append(lit)
    for c in s.clauses + s.learnts:
        assert sorted(where.pop(id(c), [])) == sorted(c[:2])
    assert not where  # no list holds a clause the solver does not store
    entries = set(s.order)
    for v in range(1, s.num_vars + 1):
        if s.val[v] == 0:
            assert s.queued[v]
        if s.queued[v]:
            assert (-s.activity[v], v) in entries


def flags_clear(s):
    return len(s.seen) == s.num_vars + 1 and not any(s.seen)


def check_answer(res, nv, clauses, assumptions):
    want = brute_sat(nv, clauses, assumptions)
    assert res.satisfiable == (want is not None)
    if res.satisfiable:
        assert all(any(res.model[abs(l)] == (l > 0) for l in c)
                   for c in clauses)
        assert all(res.model[abs(a)] == (a > 0) for a in assumptions)
    else:
        assert res.core <= frozenset(assumptions)
        assert brute_sat(nv, clauses, sorted(res.core)) is None


def incremental_session(rng, make_solver):
    """Brute-force-checked assumption queries while clauses are added."""
    nv = rng.randint(8, 10)
    s = make_solver(nv)
    added = []
    for c in random_3cnf(rng, nv, rng.randint(30, 50)):
        s.add_clause(c)
        added.append(c)
        if len(added) % 2:
            continue
        assumptions = [v * rng.choice([-1, 1])
                       for v in rng.sample(range(1, nv + 1), rng.randint(0, 4))]
        check_answer(s.solve(assumptions), nv, added, assumptions)
        check_invariants(s)


class TestAnalysisFlags:
    """Conflict analysis leaves every flag of ``Solver.seen`` clear
    (``check_invariants`` checks it too, in rescaling sessions among
    others)."""

    def test_satisfiable_then_core(self):
        rng = random.Random(2)
        s = Solver(40)
        for c in random_3cnf(rng, 40, 160):
            s.add_clause(c)
        assert s.solve().satisfiable
        conflicts = s.num_conflicts
        assert conflicts > 0 and flags_clear(s)
        res = s.solve([v * rng.choice([-1, 1])
                       for v in rng.sample(range(1, 41), 12)])
        assert not res.satisfiable and res.core
        assert s.num_conflicts > conflicts and flags_clear(s)

    def test_variables_added_mid_session(self):
        rng = random.Random(5)
        s = Solver(10)
        for nv in (10, 25, 40):
            for c in random_3cnf(rng, nv, 2 * nv) + [(1, nv)]:
                s.add_clause(c)  # variables past num_vars extend it
            assert s.solve().satisfiable
            assert s.num_vars == nv and flags_clear(s)
            # assumptions past num_vars extend it too
            s.solve([-(nv + 5)] + [v * rng.choice([-1, 1])
                                   for v in rng.sample(range(1, nv + 1), 6)])
            assert s.num_vars == nv + 5 and flags_clear(s)
        assert s.num_conflicts > 0


class TestRarePaths:
    def test_set_preference_orders_decisions(self):
        # with (-3 | 2), deciding 3 first makes 2 true; deciding -2 first
        # makes 3 false
        s = Solver(3)
        s.set_preference(3, 2.0, True)
        s.set_preference(2, 1.0, False)
        check_invariants(s)
        s.add_clause([-3, 2])
        assert s.solve().model[2:] == [True, True]
        s = Solver(3)
        s.set_preference(3, 2.0, True)
        s.set_preference(3, 0.5, True)  # lowered: its old entry must go
        s.set_preference(2, 1.0, False)
        check_invariants(s)
        s.add_clause([-3, 2])
        assert s.solve().model[2:] == [False, False]

    def test_activity_rescale(self, monkeypatch):
        rescales = []
        rescale = Solver._rescale
        monkeypatch.setattr(Solver, "_rescale",
                            lambda s: rescales.append(1) or rescale(s))

        def make(nv):
            s = Solver(nv)
            s.var_inc = 6e99  # two bumps pass the 1e100 rescale limit
            return s

        rng = random.Random(5)
        for _ in range(30):
            incremental_session(rng, make)
        assert len(rescales) >= 10

    def test_learnt_clause_reduction(self, monkeypatch):
        dropped = []
        reduce_db = Solver._reduce_db

        def counting(s):
            before = len(s.learnts)
            reduce_db(s)
            dropped.append(before - len(s.learnts))

        monkeypatch.setattr(Solver, "_reduce_db", counting)
        monkeypatch.setattr(sat, "_luby", lambda i: 0)  # restart every conflict

        def make(nv):
            s = Solver(nv)
            s.max_learnts = 5  # small enough to reduce in nearly every session
            return s

        rng = random.Random(7)
        for _ in range(40):
            incremental_session(rng, make)
        assert len(dropped) >= 10 and sum(dropped) >= 30

    @pytest.mark.parametrize("limit", [1, 2, 3, 4])
    def test_tiny_learnt_limit_grows(self, monkeypatch, limit):
        # int(1.2 * limit) alone keeps these limits where they are; deleting
        # half the learnt clauses at every conflict then stalls the search
        monkeypatch.setattr(sat, "_luby", lambda i: 0)  # restart every conflict
        limits = []

        def make(nv):
            s = Solver(nv)
            s.max_learnts = limit
            limits.append(s)
            return s

        rng = random.Random(limit)
        for _ in range(15):
            incremental_session(rng, make)
        assert any(s.max_learnts > limit for s in limits)


def traced(run):
    """Run run() and return the conflicts, decisions and propagations of
    every Solver.solve call in it, summed, and a digest of their results."""
    digest = hashlib.sha256()
    counts = [0, 0, 0]
    solve = Solver.solve

    def wrapper(self, assumptions=()):
        before = (self.num_conflicts, self.num_decisions,
                  self.num_propagations)
        res = solve(self, assumptions)
        counts[0] += self.num_conflicts - before[0]
        counts[1] += self.num_decisions - before[1]
        counts[2] += self.num_propagations - before[2]
        core = None if res.core is None else sorted(res.core)
        digest.update(repr((res.satisfiable, res.model, core)).encode())
        return res

    Solver.solve = wrapper
    try:
        run()
    finally:
        Solver.solve = solve
    return tuple(counts), digest.hexdigest()[:16]


def cnf_session(seed):
    """Random 3-CNF over 100 variables, added in four batches, each followed
    by a query under four assumptions and one without."""
    rng = random.Random(seed)
    s = Solver(100)
    for _ in range(4):
        for c in random_3cnf(rng, 100, 107):
            s.add_clause(c)
        s.solve([v * rng.choice([-1, 1]) for v in rng.sample(range(1, 101), 4)])
        s.solve()


def mixed_session(seed):
    """Like cnf_session, with binary, ternary and 5-8-literal clauses, so
    that every branch of propagation runs."""
    rng = random.Random(seed)
    lengths = (2,) + (3,) * 14 + (5, 6, 7, 8)
    s = Solver(100)
    for _ in range(4):
        for _ in range(110):
            variables = rng.sample(range(1, 101), rng.choice(lengths))
            s.add_clause([v if rng.random() < 0.5 else -v for v in variables])
        s.solve([v * rng.choice([-1, 1]) for v in rng.sample(range(1, 101), 4)])
        s.solve()


def long_session(seed):
    """Clauses of 6-12 literals over 18 variables, the length of OLL's sets
    to hit, added in four batches, each followed by a query under eight
    assumptions and one without.  Every clause is long, so each watch
    visit whose other watch is not true scans the tail for a new watch."""
    rng = random.Random(seed)
    s = Solver(18)
    for _ in range(4):
        for _ in range(500):
            variables = rng.sample(range(1, 19), rng.randint(6, 12))
            s.add_clause([v if rng.random() < 0.5 else -v for v in variables])
        s.solve([v * rng.choice([-1, 1]) for v in rng.sample(range(1, 19), 8)])
        s.solve()


# (conflicts, decisions, propagations) and result digest of each run:
# any change to the search itself shows up here.  The engine-only runs
# were recorded before its hot paths were rewritten (cnf-mixed before the
# ternary clause test in propagation); the hyper runs when
# witnessed candidates moved to branch and bound, so they count only the
# entailment checker's calls; hyper-star again when the MCS bootstrap
# dropped its activation literals, and hyper when counterexample reduction
# moved to model rotation, so it counts only the witness and the checks,
# and again when that rotation became recursive; hyper-star once more
# when its bootstrap began to stop at the first MCS that cost more
# conflicts than the witness query; both hyper runs again when the
# checker's first activities came from the theory's occurrence counts.
# cnf-long was recorded before the watch scan and conflict analysis
# stopped slicing clauses.
PINNED = {
    "cnf-1": ((644, 1129, 16464), "f40c00949e107ae3"),
    "cnf-2": ((120, 515, 3687), "dae2eeba18bd05a8"),
    "cnf-3": ((96, 505, 3243), "7c955b35da0e711f"),
    "cnf-mixed": ((116, 534, 3815), "20a9e494d8b1e31c"),
    "cnf-long": ((380, 500, 1782), "12db2b7b5471d38c"),
    "abhs-family1-4": ((2449, 86132, 391492), "463e348dd446e137"),
    "hyper-planted": ((122, 454, 3351), "9162a7599737f68b"),
    "hyper-star-planted": ((151, 1087, 5162), "9b353d11ccb1a54b"),
}
RUNS = {
    "cnf-1": lambda: cnf_session(1),
    "cnf-2": lambda: cnf_session(2),
    "cnf-3": lambda: cnf_session(3),
    "cnf-mixed": lambda: mixed_session(3),
    "cnf-long": lambda: long_session(1),
    "abhs-family1-4": lambda: solve_abhs(gen_family1(4),
                                         BaselineVariant.ABHS),
    "hyper-planted": lambda: solve_hyper(planted_pap(4)),
    "hyper-star-planted": lambda: solve_hyper(
        planted_pap(4), HyperOptions(bootstrap_mcs=100, reduce_fraction=0.2)),
}


class TestTrajectory:
    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_search_is_pinned(self, name):
        assert traced(RUNS[name]) == PINNED[name]


class TestModelCompleteness:
    def test_model_covers_all_declared_vars(self):
        s = Solver(5)
        s.add_clause([2, 3])
        res = s.solve()
        assert res.satisfiable and len(res.model) == 6
        assert all(isinstance(v, bool) for v in res.model[1:])

    def test_every_model_in_enumeration(self):
        # the solver's model must be one of the brute-force models
        nv, clauses = 4, [(1, 2), (-2, 3), (-1, -4)]
        s = Solver(nv)
        for c in clauses:
            s.add_clause(c)
        res = s.solve()
        models = [tuple(m) for m in enumerate_models(nv, clauses)]
        assert tuple(res.model) in models

