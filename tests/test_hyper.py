"""Single-SAT-call hitting-set solver: examples, corpus agreement, knobs."""

import itertools

import pytest

from abduce.brute import CheckOutcome, bf_check_explanation, bf_solve
from abduce.formula import Pap
from abduce.generators import gen_family1, gen_family2
from abduce.hitting import CorrectionSetReducer, HardUnsatError, enumerate_mcs
from abduce.hyper import (EntailmentChecker, HyperOptions,
                          extract_counterexample, preprocess_entailed,
                          solve_hyper)

from conftest import small_corpus, worked_instance

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
        # and reduction on that solver still yields real correction sets
        for p in small_corpus(count=200):
            h = len(p.hypotheses)
            clauses = [c for c, _ in p.hypotheses]
            fresh = EntailmentChecker(p)
            for limit in (1, 2):
                oracle = EntailmentChecker(p)
                reducer = CorrectionSetReducer(oracle.solver, oracle.r_vars,
                                               clauses, p.weights)
                try:
                    mcses = enumerate_mcs(oracle.solver, oracle.r_vars,
                                          clauses, limit)
                except HardUnsatError:
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


class TestPreprocess:
    def test_disabled_is_identity(self, ex1):
        work, keep = preprocess_entailed(ex1, BASIC)
        assert work == ex1 and keep == [0, 1, 2]

    def test_entailed_manifestation_dropped(self):
        p = Pap(2, ((1,),), (((2,), 1),), ((1,), (2,)))
        work, _ = preprocess_entailed(
            p, HyperOptions(preprocess_m=True))
        assert work.manifestations == ((2,),)

    def test_entailed_hypothesis_dropped_with_mapping(self):
        p = Pap(2, ((1,),), (((1,), 1), ((2,), 1)), ((2,),))
        work, keep = preprocess_entailed(
            p, HyperOptions(preprocess_h=True))
        assert [c for c, _ in work.hypotheses] == [(2,)]
        assert keep == [1]
        expl, _ = solve_hyper(p, HyperOptions(preprocess_h=True))
        assert expl.indices == (1,)

    def test_indices_refer_to_original_instance(self):
        # hypothesis 0 is entailed by T and would shift indices if kept
        p = Pap(3, ((1,), (-2, 3)), (((1,), 1), ((2,), 1)), ((3,),))
        for opts in (HyperOptions(preprocess_h=True), BASIC):
            expl, _ = solve_hyper(p, opts)
            assert expl.indices == (1,)


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
            for opts in (BASIC, STARRED,
                         HyperOptions(preprocess_m=True, preprocess_h=True)):
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
