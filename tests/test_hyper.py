"""Single-SAT-call hitting-set solver: examples, corpus agreement, knobs."""

import itertools
from collections import Counter

import pytest

from abduce.baseline import BaselineVariant, solve_abhs
from abduce.brute import CheckOutcome, bf_check_explanation, bf_solve
from abduce.cli import run_algo
from abduce.formula import Pap, clause_satisfied, encode_negation
from abduce.generators import gen_family1, gen_family2
from abduce.hitting import (CorrectionSetReducer, HittingSetContext,
                            enumerate_mcs)
from abduce.hyper import (EntailmentChecker, HyperOptions,
                          extract_counterexample, solve_hyper)
from abduce.maxsat import CostMinimizer
from abduce.sat import Solver

from conftest import (planted_pap, small_corpus, trap_instance,
                      worked_instance)

BASIC = HyperOptions(reduce_fraction=0.0, bootstrap_mcs=0)
STARRED = HyperOptions(reduce_fraction=0.2, bootstrap_mcs=100)


class TestExamples:
    def test_worked_instance(self, ex1):
        expl, stats = solve_hyper(ex1, BASIC)
        assert expl is not None
        assert expl.indices == (0,) and expl.cost == 1
        assert stats.iterations >= 1

    def test_family1_has_no_explanation(self):
        expl, stats = solve_hyper(gen_family1(3), BASIC)
        assert expl is None

    def test_family2_needs_all_hypotheses(self):
        p = gen_family2(2)
        expl, stats = solve_hyper(p, BASIC)
        assert expl is not None
        assert expl.indices == (0, 1, 2, 3) and expl.cost == 4

    def test_empty_manifestations_cost_zero(self):
        p = Pap(2, ((1,),), (((2,), 5),), ())
        expl, _ = solve_hyper(p, BASIC)
        assert expl is not None and expl.indices == () and expl.cost == 0

    def test_inconsistent_theory_gives_none(self):
        p = Pap(1, ((1,), (-1,)), (((1,), 1),), ((1,),))
        expl, _ = solve_hyper(p, BASIC)
        assert expl is None

    def test_weight_scaling_keeps_support(self, ex1):
        heavy = Pap(ex1.num_vars, ex1.theory,
                    tuple((c, w * 7) for c, w in ex1.hypotheses),
                    ex1.manifestations)
        expl, _ = solve_hyper(heavy, BASIC)
        assert expl.indices == (0,) and expl.cost == 7

    def test_weights_redirect_choice(self):
        # entailing 3 directly costs 5; the two-step route costs 2
        p = Pap(3, ((-1, 2), (-2, 3)),
                (((1,), 2), ((3,), 5)), ((3,),))
        expl, _ = solve_hyper(p, BASIC)
        assert expl.indices == (0,) and expl.cost == 2


class TestCounterexamples:
    def test_extract_all_falsified(self, ex1):
        model = [False, False, False, False, False]
        assert extract_counterexample(ex1, model) == frozenset({0, 1, 2})
        model = [False, False, True, False, False]
        assert extract_counterexample(ex1, model) == frozenset({0, 2})

    def test_checker_detects_entailment(self, ex1):
        checker = EntailmentChecker(ex1)
        assert not checker.check({0}).satisfiable
        res = checker.check({1})
        assert res.satisfiable
        assert extract_counterexample(ex1, res.model)


class TestSharedOracle:
    def test_truncated_bootstrap_keeps_verdicts(self):
        # the blocks a truncated bootstrap leaves in the checker's solver
        # must not change the verdict on any set that hits every MCS found,
        # and reducing that solver's models still yields real correction sets
        for p in small_corpus(count=200):
            h = len(p.hypotheses)
            clauses = [c for c, _ in p.hypotheses]
            fresh = EntailmentChecker(p)
            for limit in (1, 2):
                oracle = EntailmentChecker(p)
                reducer = CorrectionSetReducer(p.theory, clauses,
                                               p.manifestations, p.weights)
                mcses = enumerate_mcs(oracle.solver, oracle.r_vars,
                                      clauses, limit)
                if mcses is None:  # the hard part is unsatisfiable
                    mcses = []
                for bits in itertools.product((False, True), repeat=h):
                    picked = {i for i in range(h) if bits[i]}
                    if not all(picked & m for m in mcses):
                        continue
                    res = oracle.check(picked)
                    assert res.satisfiable == fresh.check(picked).satisfiable
                    if not res.satisfiable:
                        continue
                    cex = extract_counterexample(p, res.model)
                    out = reducer.reduce(res.model, cex, 1.0)
                    assert out <= cex
                    rest = set(range(h)) - out
                    assert fresh.check(rest).satisfiable

    def test_reduced_sets_in_solves(self, monkeypatch):
        # every set reduce returns inside a solve, with a witness, without
        # one and after a truncated bootstrap: a subset of the given set
        # that misses the candidate, whose complement in H is consistent
        # with T and not-M
        picked, seen = [], []
        check, reduce = EntailmentChecker.check, CorrectionSetReducer.reduce

        def spy_check(self, candidate):
            picked.append(frozenset(candidate))
            return check(self, candidate)

        def spy_reduce(self, model, falsified, fraction):
            out = reduce(self, model, falsified, fraction)
            seen.append((picked[-1], frozenset(falsified), out))
            return out

        monkeypatch.setattr(EntailmentChecker, "check", spy_check)
        monkeypatch.setattr(CorrectionSetReducer, "reduce", spy_reduce)
        reduced = {}
        corpus = small_corpus(count=200)
        corpus += [trap_instance(), gen_family1(3), gen_family1(5)]
        for p in corpus:
            witnessed = EntailmentChecker(p).witness is not None
            for mcs in (0, 1, 2):
                seen.clear()
                solve_hyper(p, HyperOptions(bootstrap_mcs=mcs))
                kind = "bootstrap" if mcs else (
                    "witness" if witnessed else "no witness")
                reduced[kind] = reduced.get(kind, 0) + len(seen)
                for candidate, given, out in seen:
                    assert out <= given and not out & candidate
                    n = p.num_vars
                    s = Solver(n)
                    for c in p.theory:
                        s.add_clause(c)
                    for i, (c, _) in enumerate(p.hypotheses):
                        if i not in out:
                            s.add_clause(c)
                    for c in encode_negation(p.manifestations, n + 1):
                        s.add_clause(c)
                    assert s.solve().satisfiable
        assert min(reduced.values()) > 0 and len(reduced) == 3


class TestEntailedClauses:
    # a hypothesis that T entails adds cost and no consequence, and a
    # manifestation that T entails holds for every S; no solver may pick
    # an entailed hypothesis or pay for an entailed manifestation
    @pytest.mark.parametrize("p, entailed_h", [
        (Pap(3, ((1,), (-2, 3)), (((1,), 1), ((2,), 1)), ((3,),)), {0}),
        (Pap(2, ((1,),), (((1,), 1), ((2,), 1)), ((2,),)), {0}),
        (Pap(2, ((1,),), (((2,), 1),), ((1,), (2,))), set()),
    ])
    def test_optimum_avoids_entailed_clauses(self, p, entailed_h):
        want = bf_solve(p)
        runs = [solve_hyper(p, opts)[0]
                for opts in (HyperOptions(), BASIC, STARRED)]
        runs += [solve_abhs(p, variant)[0] for variant in BaselineVariant]
        for expl in runs:
            assert expl is not None and expl.cost == want.cost
            assert not entailed_h & set(expl.indices)


class TestWitness:
    """The checker's solver asks once for a model of T and M and H.  With
    one, candidates come from branch and bound with no background and no
    SAT solver; without one, the OLL optimizer keeps the full
    background."""

    @pytest.fixture
    def contexts(self, monkeypatch):
        # (context, clauses added to its background) of every context made
        made = []
        init = HittingSetContext.__init__
        add_background = HittingSetContext.add_background

        def spy_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            made.append((self, []))

        def spy_add(self, clause):
            next(added for ctx, added in made if ctx is self).append(
                tuple(clause))
            add_background(self, clause)

        monkeypatch.setattr(HittingSetContext, "__init__", spy_init)
        monkeypatch.setattr(HittingSetContext, "add_background", spy_add)
        return made

    def solve_all(self, p, contexts):
        want = bf_solve(p)
        for opts in (HyperOptions(), BASIC, STARRED):
            contexts.clear()
            expl, _ = solve_hyper(p, opts)
            assert expl is not None and expl.cost == want.cost
            assert bf_check_explanation(
                p, expl.indices) is CheckOutcome.IS_EXPL
            assert len(contexts) == 1
            yield expl, contexts[0]

    @pytest.mark.parametrize("p", [worked_instance(), gen_family2(3)])
    def test_witness_satisfies_t_m_and_h(self, p):
        witness = EntailmentChecker(p).witness
        assert all(clause_satisfied(c, witness) for c in p.theory
                   + p.manifestations + tuple(c for c, _ in p.hypotheses))

    @pytest.mark.parametrize("p", [worked_instance(), gen_family2(3)])
    def test_witness_drops_the_background(self, p, contexts):
        for _, (ctx, added) in self.solve_all(p, contexts):
            assert added == []
            assert ctx.opt is None  # candidates by branch and bound

    def test_no_witness_keeps_the_full_background(self, contexts):
        p = trap_instance()
        assert EntailmentChecker(p).witness is None
        r_vars, relaxed = p.relaxed(p.num_vars + 1)
        for expl, (ctx, added) in self.solve_all(p, contexts):
            assert ctx.opt is not None and ctx.r_vars == r_vars
            assert added == list(p.theory + p.manifestations + relaxed)
            assert expl.indices == (2,) and expl.cost == 3

    @pytest.fixture
    def spies(self, monkeypatch):
        """(SAT calls as (solver, assumptions), entailment checkers,
        CostMinimizers) made from now on."""
        calls, checkers, minimizers = [], [], []
        solve = Solver.solve
        init, opt_init = EntailmentChecker.__init__, CostMinimizer.__init__

        def spy_solve(self, assumptions=()):
            calls.append((self, tuple(assumptions)))
            return solve(self, assumptions)

        def spy_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            checkers.append(self)

        def spy_opt_init(self):
            opt_init(self)
            minimizers.append(self)

        monkeypatch.setattr(Solver, "solve", spy_solve)
        monkeypatch.setattr(EntailmentChecker, "__init__", spy_init)
        monkeypatch.setattr(CostMinimizer, "__init__", spy_opt_init)
        return calls, checkers, minimizers

    @pytest.mark.parametrize("p", [worked_instance(), gen_family2(3)])
    def test_witness_is_asked_once_on_the_checker(self, p, contexts, spies):
        calls, checkers, minimizers = spies
        for opts in (HyperOptions(), BASIC, STARRED):
            for spied in (calls, checkers, minimizers, contexts):
                spied.clear()
            solve_hyper(p, opts)
            (checker,), ((ctx, _),) = checkers, contexts
            r_vars = checker.r_vars
            asks = [(solver, a) for solver, a in calls
                    if len(a) == len(r_vars) + 1 and a[:-1] == r_vars]
            assert len(asks) == 1 and asks[0] == calls[0]
            solver, (*_, b) = asks[0]
            assert solver is checker.solver and checker.witness is not None
            assert solver.val[b] == -1  # retired before not-M was added
            # candidates need no SAT solver: every call is the checker's
            assert {s for s, _ in calls} == {checker.solver}
            assert minimizers == [] and ctx.opt is None

    def test_oll_where_the_selection_needs_it(self, spies):
        # without a witness (the background) and in the baselines (their
        # iteration counts depend on OLL's phases and tie scatter)
        _, _, minimizers = spies
        solve_hyper(trap_instance())
        assert len(minimizers) == 1
        for variant in BaselineVariant:
            minimizers.clear()
            expl, _ = solve_abhs(worked_instance(), variant)
            assert expl.cost == 1 and len(minimizers) == 1


class TestStaticOrder:
    """Before the witness query, each variable of T gets the activity
    occ(v) / (1 + max occ), its occurrences in T over one more than the
    most any variable has, with phase False; then every selector 1.0."""

    def test_family2_activities_are_the_seeds(self):
        # the witness query has no conflict, so nothing has been bumped
        checker = EntailmentChecker(gen_family2(3))
        solver = checker.solver
        assert solver.num_conflicts == 0
        want = [0.0] * (solver.num_vars + 1)
        for t in (2, 3, 4):  # t_1..t_3, once each in T's one clause
            want[t] = 0.5
        for r in checker.r_vars:
            want[r] = 1.0
        assert solver.activity == want
        # every seed lies below one bump
        assert max(solver.activity[:checker.r_vars[0]]) < solver.var_inc == 1

    def test_seeds_come_before_the_selectors_and_the_witness(
            self, monkeypatch):
        calls = []
        set_preference, solve = Solver.set_preference, Solver.solve

        def spy_preference(self, v, activity, phase):
            calls.append((v, activity, phase))
            set_preference(self, v, activity, phase)

        def spy_solve(self, assumptions=()):
            calls.append("solve")
            return solve(self, assumptions)

        monkeypatch.setattr(Solver, "set_preference", spy_preference)
        monkeypatch.setattr(Solver, "solve", spy_solve)
        p = planted_pap(4)
        checker = EntailmentChecker(p)
        occ = Counter(abs(lit) for c in p.theory for lit in c)
        top = 1 + max(occ.values())
        seeds = calls[:len(occ)]
        assert sorted(seeds) == sorted((v, k / top, False)
                                       for v, k in occ.items())
        assert all(0 < a < 1 for _, a, _ in seeds)
        assert calls[len(occ):] == [(r, 1.0, True)
                                    for r in checker.r_vars] + ["solve"]


class TestOptions:
    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            HyperOptions(reduce_fraction=1.5)
        with pytest.raises(ValueError):
            HyperOptions(bootstrap_mcs=-1)

    def test_bootstrap_reports_mcs_count(self, ex1):
        expl, stats = solve_hyper(ex1, STARRED)
        assert expl.cost == 1
        assert stats.bootstrap_mcs_found >= 1

    def test_bootstrap_none_when_h_insufficient(self):
        p = Pap(2, (), (((1,), 1),), ((2,),))
        expl, stats = solve_hyper(p, STARRED)
        assert expl is None

    def test_stats_counters_consistent(self, ex1):
        for opts in (BASIC, STARRED):
            _, stats = solve_hyper(ex1, opts)
            assert stats.iterations == stats.hs_calls == stats.sat_calls
            assert stats.type1_counterexamples <= stats.iterations
            assert stats.wall_time >= 0.0


class TestCorpusAgreement:
    def test_matches_brute_force(self):
        for p in small_corpus(count=120):
            want = bf_solve(p)
            for opts in (BASIC, STARRED):
                expl, _ = solve_hyper(p, opts)
                if want is None:
                    assert expl is None
                else:
                    assert expl is not None
                    assert expl.cost == want.cost
                    assert bf_check_explanation(
                        p, expl.indices) is CheckOutcome.IS_EXPL


class TestFamilies:
    def test_family1_iteration_growth_is_gentle(self):
        for n in range(1, 7):
            expl, stats = solve_hyper(gen_family1(n), BASIC)
            assert expl is None
            assert stats.iterations <= 10 * n

    def test_family2_selects_everything(self):
        for n in range(1, 7):
            p = gen_family2(n)
            expl, stats = solve_hyper(p, BASIC)
            assert expl.indices == tuple(range(2 * n))
            assert expl.cost == 2 * n
            assert stats.iterations <= 4 * n


# Each loop's answer cost and (iterations, type1, type2, hs_calls,
# sat_calls, bootstrap_mcs_found), per instance and configuration, all
# through cli.run_algo.  Any change to a loop's counting or to its order
# of calls shows up here.
INSTANCES = {
    "family1": lambda: gen_family1(3),
    "family2": lambda: gen_family2(3),
    "trap": trap_instance,
    "worked": worked_instance,
    "planted": lambda: planted_pap(4),
}
CONFIGS = {
    "hyper": ("hyper", {}),
    "hyper-star": ("hyper-star", {}),
    "hyper-basic": ("hyper", {"reduce_frac": 0.0}),
    "abhs": ("abhs", {}),
    "abhs-plus": ("abhs-plus", {}),
}
COUNTERS = {
    ("family1", "hyper"): (None, (13, 12, 0, 13, 12, 0)),
    ("family1", "hyper-star"): (None, (1, 0, 0, 1, 0, 12)),
    ("family1", "hyper-basic"): (None, (15, 14, 0, 15, 14, 0)),
    ("family1", "abhs"): (None, (401, 58, 343, 401, 744, 0)),
    ("family1", "abhs-plus"): (None, (66, 57, 8, 66, 73, 0)),
    ("family2", "hyper"): (6, (7, 6, 0, 7, 7, 0)),
    ("family2", "hyper-star"): (6, (1, 0, 0, 1, 1, 6)),
    ("family2", "hyper-basic"): (6, (7, 6, 0, 7, 7, 0)),
    ("family2", "abhs"): (6, (21, 20, 0, 21, 22, 0)),
    ("family2", "abhs-plus"): (6, (21, 20, 0, 21, 22, 0)),
    ("trap", "hyper"): (3, (3, 2, 0, 3, 3, 0)),
    ("trap", "hyper-star"): (3, (1, 0, 0, 1, 1, 2)),
    ("trap", "hyper-basic"): (3, (3, 2, 0, 3, 3, 0)),
    ("trap", "abhs"): (3, (5, 3, 1, 5, 7, 0)),
    ("trap", "abhs-plus"): (3, (5, 3, 1, 5, 7, 0)),
    ("worked", "hyper"): (1, (2, 1, 0, 2, 2, 0)),
    ("worked", "hyper-star"): (1, (1, 0, 0, 1, 1, 2)),
    ("worked", "hyper-basic"): (1, (2, 1, 0, 2, 2, 0)),
    ("worked", "abhs"): (1, (2, 1, 0, 2, 3, 0)),
    ("worked", "abhs-plus"): (1, (2, 1, 0, 2, 3, 0)),
    ("planted", "hyper"): (19, (6, 5, 0, 6, 6, 0)),
    ("planted", "hyper-star"): (19, (7, 6, 0, 7, 7, 2)),
    ("planted", "hyper-basic"): (19, (7, 6, 0, 7, 7, 0)),
    ("planted", "abhs"): (19, (12, 11, 0, 12, 13, 0)),
    ("planted", "abhs-plus"): (19, (12, 11, 0, 12, 13, 0)),
}


@pytest.mark.parametrize("instance, config", sorted(COUNTERS))
def test_loop_counters_are_pinned(instance, config):
    algo, kwargs = CONFIGS[config]
    expl, stats = run_algo(algo, INSTANCES[instance](), **kwargs)
    counters = (stats.iterations, stats.type1_counterexamples,
                stats.type2_counterexamples, stats.hs_calls, stats.sat_calls,
                stats.bootstrap_mcs_found)
    assert (None if expl is None else expl.cost, counters) == \
        COUNTERS[instance, config]
