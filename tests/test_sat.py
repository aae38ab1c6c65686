"""SAT engine tests: examples, soundness fuzzing, cores, determinism."""

import hashlib
import itertools
import random
import sys

import pytest

from abduce import sat
from abduce.baseline import BaselineVariant, solve_abhs
from abduce.formula import Pap
from abduce.generators import gen_family1
from abduce.hyper import HyperOptions, solve_hyper
from abduce.sat import ExternalSolver, Solver

from conftest import enumerate_models


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

    def test_auto_extend_vars(self):
        s = Solver()
        s.add_clause([7])
        res = s.solve()
        assert res.satisfiable and res.model[7] is True


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
    literals, and every unassigned variable is queued at its activity."""
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


class TestRarePaths:
    def test_set_preference_orders_decisions(self):
        s = Solver(3)
        s.set_preference(3, 2.0, True)
        s.set_preference(2, 1.0, False)
        check_invariants(s)
        assert s._decide() == 3
        s = Solver(3)
        s.set_preference(3, 2.0, True)
        s.set_preference(3, 0.5, True)  # lowered: its old entry must go
        s.set_preference(2, 1.0, False)
        check_invariants(s)
        assert s._decide() == -2

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


def planted_pap(seed, nv=80, nh=40, nm=2):
    """3-CNF theory at ratio 4.2 satisfied by a hidden model, hypotheses it
    satisfies, and manifestations entailed by pairs of hypotheses."""
    rng = random.Random(seed)
    base = nv - nm
    hidden = [None] + [rng.random() < 0.5 for _ in range(base)]

    def clause(k):
        while True:
            c = tuple(v if rng.random() < 0.5 else -v
                      for v in rng.sample(range(1, base + 1), k))
            if any(hidden[abs(l)] == (l > 0) for l in c):
                return c

    theory = [clause(3) for _ in range(round(4.2 * base))]
    hyps = [(clause(rng.randint(2, 3)), rng.randint(2, 9)) for _ in range(nh)]
    for j in range(nm):
        m = base + 1 + j
        theory += [(-x, -u, m) for x in hyps[2 * j][0]
                   for u in hyps[2 * j + 1][0]]
    return Pap(nv, tuple(theory), tuple(hyps),
               tuple((base + 1 + j,) for j in range(nm)))


# (conflicts, decisions, propagations) and result digest of each run:
# any change to the search itself shows up here.  The engine-only runs
# were recorded before its hot paths were rewritten; the hyper runs when
# bootstrap, reduction and checks came to share one solver.
PINNED = {
    "cnf-1": ((644, 1129, 16464), "f40c00949e107ae3"),
    "cnf-2": ((120, 515, 3687), "dae2eeba18bd05a8"),
    "cnf-3": ((96, 505, 3243), "7c955b35da0e711f"),
    "abhs-family1-4": ((2449, 86167, 391594), "efe6d5efcf6ed32a"),
    "hyper-planted": ((229, 2563, 8976), "f23b1900fe8e6e1a"),
    "hyper-star-planted": ((215, 1689, 7327), "343080ba3863c80a"),
}
RUNS = {
    "cnf-1": lambda: cnf_session(1),
    "cnf-2": lambda: cnf_session(2),
    "cnf-3": lambda: cnf_session(3),
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


STUB_SOLVER = '''\
#!/usr/bin/env python3
import itertools, sys

clauses = []
nv = 0
for line in open(sys.argv[1]):
    parts = line.split()
    if not parts or parts[0] in ("c", "p"):
        if parts and parts[0] == "p":
            nv = int(parts[2])
        continue
    clauses.append([int(t) for t in parts[:-1]])
for bits in itertools.product((False, True), repeat=nv):
    model = [False] + list(bits)
    if all(any(model[abs(l)] == (l > 0) for l in c) for c in clauses):
        print("s SATISFIABLE")
        print("v " + " ".join(str(v if model[v] else -v)
                              for v in range(1, nv + 1)) + " 0")
        raise SystemExit(10)
print("s UNSATISFIABLE")
raise SystemExit(20)
'''


class TestExternalSolver:
    @pytest.fixture
    def stub(self, tmp_path):
        path = tmp_path / "stubsat.py"
        path.write_text(STUB_SOLVER)
        return [sys.executable, str(path)]

    def test_basic_queries(self, stub):
        s = ExternalSolver(stub)
        s.add_clause([1, 2])
        res = s.solve()
        assert res.satisfiable
        assert res.model[1] or res.model[2]
        s.add_clause([-1])
        s.add_clause([-2])
        res = s.solve()
        assert not res.satisfiable and res.core == frozenset()

    def test_assumptions_and_core(self, stub):
        s = ExternalSolver(stub, num_vars=2)
        s.add_clause([1, 2])
        res = s.solve([-1, -2])
        assert not res.satisfiable
        assert res.core == frozenset([-1, -2])
        assert s.solve([-1]).satisfiable

    def test_agrees_with_embedded_engine(self, stub):
        rng = random.Random(27)
        for _ in range(15):
            nv, clauses = random_cnf(rng, max_vars=5, max_clauses=8)
            embedded = Solver(nv)
            external = ExternalSolver(stub, num_vars=nv)
            for c in clauses:
                embedded.add_clause(c)
                external.add_clause(c)
            got = external.solve()
            assert got.satisfiable == embedded.solve().satisfiable
            if got.satisfiable:
                model = got.model
                assert all(any(model[abs(l)] == (l > 0) for l in c)
                           for c in clauses)

    def test_empty_clause(self, stub):
        s = ExternalSolver(stub)
        with pytest.raises(ValueError):
            s.add_clause([0])
        s.add_clause([])
        assert not s.solve().satisfiable
