"""Brute-force oracles: checking, best-first search, QBF expansion."""

import itertools
import random

import pytest

from abduce.brute import (BF_MAX_HYPOTHESES, BF_MAX_QBF_VARS, CheckOutcome,
                          bf_check_explanation, bf_eval_2qbf, bf_solve)
from abduce.formula import Pap
from abduce.qbf import QbfFormula, emit_explanation_qbf

from conftest import eval_qbf_reference, small_corpus

# one empty clause: a conjunction that never holds, so its negation holds
# and the inner part is the inner clauses alone
NO_NEG = ((),)


class TestCheckExplanation:
    def test_worked_instance_outcomes(self, ex1):
        assert bf_check_explanation(ex1, (0,)) is CheckOutcome.IS_EXPL
        assert bf_check_explanation(ex1, (1,)) is CheckOutcome.NOT_ENTAILING
        assert bf_check_explanation(ex1, ()) is CheckOutcome.NOT_ENTAILING
        assert bf_check_explanation(ex1, (0, 1, 2)) is CheckOutcome.IS_EXPL

    def test_inconsistency_detected_and_preferred(self):
        # {0} clashes with T and also fails to entail M
        p = Pap(2, ((-1,),), (((1,), 1),), ((2,),))
        assert bf_check_explanation(p, (0,)) is CheckOutcome.NOT_CONSISTENT

    def test_duplicate_indices_collapse(self, ex1):
        assert bf_check_explanation(ex1, (0, 0)) is CheckOutcome.IS_EXPL

    def test_out_of_range_index(self, ex1):
        with pytest.raises(IndexError):
            bf_check_explanation(ex1, (3,))
        with pytest.raises(IndexError):
            bf_check_explanation(ex1, (-1,))


class TestSolve:
    def test_worked_instance(self, ex1):
        expl = bf_solve(ex1)
        assert expl.indices == (0,) and expl.cost == 1

    def test_no_explanation(self):
        p = Pap(2, (), (((1,), 1),), ((2,),))
        assert bf_solve(p) is None

    def test_size_refusal(self):
        big = Pap(BF_MAX_HYPOTHESES + 1, (),
                  tuple((((i + 1),), 1) for i in range(BF_MAX_HYPOTHESES + 1)),
                  ((1,),))
        with pytest.raises(ValueError):
            bf_solve(big)

    def test_matches_full_enumeration(self):
        # independent third opinion: scan every subset, keep the cheapest
        for p in small_corpus(count=60):
            if len(p.hypotheses) > 6:
                continue
            best = None
            m = len(p.hypotheses)
            for k in range(m + 1):
                for subset in itertools.combinations(range(m), k):
                    if bf_check_explanation(p, subset) is CheckOutcome.IS_EXPL:
                        cost = sum(p.weights[i] for i in subset)
                        if best is None or cost < best:
                            best = cost
            got = bf_solve(p)
            if best is None:
                assert got is None
            else:
                assert got is not None and got.cost == best


class TestEval2Qbf:
    def test_trivial_cases(self):
        # an empty inner conjunction is vacuously true, so its negation
        # makes the whole matrix false
        empty_inner = QbfFormula((("e", (1,)),), ((1,),), (), NO_NEG, 1)
        assert bf_eval_2qbf(empty_inner) is False
        # exists y: y and not(not y)
        true_q = QbfFormula((("e", (1,)),), ((1,),), ((-1,),), NO_NEG, 1)
        assert bf_eval_2qbf(true_q) is True
        false_q = QbfFormula((("a", (1,)),), ((1,),), ((-1,),), NO_NEG, 1)
        assert bf_eval_2qbf(false_q) is False
        # forall y: not (y), is false because y=True survives
        q = QbfFormula((("a", (1,)),), (), ((1,),), NO_NEG, 1)
        assert bf_eval_2qbf(q) is False
        # forall y: not (y and not y'), inner_neg rescues every y
        q = QbfFormula((("a", (1,)),), (), ((1,),), ((1,),), 1)
        assert bf_eval_2qbf(q) is True
        # an empty inner_neg holds, so its negation falsifies every inner
        q = QbfFormula((("a", (1,)),), (), ((1,),), (), 1)
        assert bf_eval_2qbf(q) is True

    def test_size_refusal(self):
        wide = QbfFormula(
            (("e", tuple(range(1, BF_MAX_QBF_VARS + 2))),),
            (), (), (), BF_MAX_QBF_VARS + 1)
        with pytest.raises(ValueError):
            bf_eval_2qbf(wide)

    def test_agrees_with_reference_on_random_qbfs(self):
        rng = random.Random(17)
        for _ in range(100):
            nv = rng.randint(2, 6)
            cut = rng.randint(1, nv - 1)
            prefix = (("e", tuple(range(1, cut + 1))),
                      ("a", tuple(range(cut + 1, nv + 1))))

            def clauses(k):
                return tuple(
                    tuple(v if rng.random() < 0.5 else -v
                          for v in rng.sample(range(1, nv + 1),
                                              rng.randint(1, 2)))
                    for _ in range(k))

            q = QbfFormula(prefix, clauses(rng.randint(0, 3)),
                           clauses(rng.randint(0, 3)),
                           clauses(rng.randint(1, 2))
                           if rng.random() < 0.5 else NO_NEG, nv)
            assert bf_eval_2qbf(q) == eval_qbf_reference(q)

    def test_agrees_on_instance_encodings(self):
        for p in small_corpus(count=25):
            # the reference evaluator enumerates without pruning, so
            # keep the quantified variable count small
            if p.num_vars > 7 or len(p.hypotheses) < 1:
                continue
            subset = tuple(range(min(2, len(p.hypotheses))))
            q = emit_explanation_qbf(p, subset)
            assert bf_eval_2qbf(q) == eval_qbf_reference(q)
