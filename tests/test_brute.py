"""Brute-force oracles: checking, best-first search, QBF expansion."""

import itertools

import pytest

from abduce.brute import (BF_MAX_HYPOTHESES, CheckOutcome,
                          bf_check_explanation, bf_solve)
from abduce.formula import Pap
from abduce.qbf import QbfFormula

from conftest import NO_NEG, eval_qbf_reference, small_corpus


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
        assert eval_qbf_reference(empty_inner) is False
        # exists y: y and not(not y)
        true_q = QbfFormula((("e", (1,)),), ((1,),), ((-1,),), NO_NEG, 1)
        assert eval_qbf_reference(true_q) is True
        false_q = QbfFormula((("a", (1,)),), ((1,),), ((-1,),), NO_NEG, 1)
        assert eval_qbf_reference(false_q) is False
        # forall y: not (y), is false because y=True survives
        q = QbfFormula((("a", (1,)),), (), ((1,),), NO_NEG, 1)
        assert eval_qbf_reference(q) is False
        # forall y: not (y and not y'), inner_neg rescues every y
        q = QbfFormula((("a", (1,)),), (), ((1,),), ((1,),), 1)
        assert eval_qbf_reference(q) is True
        # an empty inner_neg holds, so its negation falsifies every inner
        q = QbfFormula((("a", (1,)),), (), ((1,),), (), 1)
        assert eval_qbf_reference(q) is True
