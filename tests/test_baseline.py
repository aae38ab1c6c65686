"""Two-call baseline loops: examples, corpus agreement, loop invariants."""

import pytest

import abduce.baseline as baseline
from abduce.baseline import BaselineVariant, ConsistencyChecker, solve_abhs
from abduce.brute import CheckOutcome, bf_check_explanation, bf_solve
from abduce.formula import Pap
from abduce.generators import gen_family1, gen_family2
from abduce.hitting import HittingSetContext
from abduce.hyper import HyperOptions, solve_hyper

from conftest import small_corpus

VARIANTS = (BaselineVariant.ABHS, BaselineVariant.ABHS_PLUS)


class TestExamples:
    def test_worked_instance_both_variants(self, ex1):
        for variant in VARIANTS:
            expl, stats = solve_abhs(ex1, variant)
            assert expl is not None
            assert expl.indices == (0,) and expl.cost == 1
            assert stats.sat_calls >= stats.iterations

    def test_family1_none_with_power_set_type2(self):
        expl, stats = solve_abhs(gen_family1(2), BaselineVariant.ABHS_PLUS)
        assert expl is None
        assert stats.type2_counterexamples == 4

    def test_family2_takes_everything(self):
        expl, stats = solve_abhs(gen_family2(1), BaselineVariant.ABHS)
        assert expl.indices == (0, 1) and expl.cost == 2

    def test_inconsistent_theory(self):
        p = Pap(1, ((1,), (-1,)), (((1,), 1),), ((1,),))
        for variant in VARIANTS:
            expl, _ = solve_abhs(p, variant)
            assert expl is None

    def test_no_hypotheses_entail(self):
        p = Pap(2, (), (((1,), 1),), ((2,),))
        for variant in VARIANTS:
            expl, _ = solve_abhs(p, variant)
            assert expl is None

    def test_empty_manifestations(self):
        p = Pap(2, ((1,),), (((2,), 3),), ())
        for variant in VARIANTS:
            expl, _ = solve_abhs(p, variant)
            assert expl is not None and expl.cost == 0

    def test_variant_names_select_their_variant(self):
        p = gen_family1(3)
        for variant in VARIANTS:
            _, by_enum = solve_abhs(p, variant)
            _, by_name = solve_abhs(p, variant.value)
            assert by_name.iterations == by_enum.iterations
            assert by_name.type2_counterexamples == by_enum.type2_counterexamples
        with pytest.raises(ValueError):
            solve_abhs(p, "nonsense")


class TestConsistencyChecker:
    def test_detects_clash_with_theory(self):
        p = Pap(2, ((-1,),), (((1,), 1), ((2,), 1)), ((2,),))
        checker = ConsistencyChecker(p)
        assert not checker.check({0}).satisfiable
        assert checker.check({1}).satisfiable
        assert checker.check(set()).satisfiable


class TestCorpusAgreement:
    def test_matches_brute_force(self):
        for p in small_corpus(count=120):
            want = bf_solve(p)
            for variant in VARIANTS:
                expl, _ = solve_abhs(p, variant)
                if want is None:
                    assert expl is None
                else:
                    assert expl is not None
                    assert expl.cost == want.cost
                    assert bf_check_explanation(
                        p, expl.indices) is CheckOutcome.IS_EXPL

    def test_seed_changes_path_not_answer(self):
        for p in small_corpus(count=30):
            costs = set()
            for seed in (0, 1, 2):
                expl, _ = solve_abhs(p, BaselineVariant.ABHS_PLUS, seed=seed)
                costs.add(None if expl is None else expl.cost)
            assert len(costs) == 1


class RecordingContext(HittingSetContext):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.log = []

    def hs_next_candidate(self):
        out = super().hs_next_candidate()
        self.log.append(("candidate", None if out is None else out[0]))
        return out

    def hs_add_set(self, members):
        self.log.append(("set", frozenset(members)))
        return super().hs_add_set(members)

    def hs_add_block(self, members):
        self.log.append(("block", frozenset(members)))
        return super().hs_add_block(members)


class TestLoopInvariants:
    def run_recorded(self, p, variant, monkeypatch):
        holder = []

        def make(*args, **kwargs):
            ctx = RecordingContext(*args, **kwargs)
            holder.append(ctx)
            return ctx

        monkeypatch.setattr(baseline, "HittingSetContext", make)
        solve_abhs(p, variant)
        return holder[0].log

    def test_type1_sets_avoid_current_candidate(self, monkeypatch):
        # a falsified-hypotheses set never intersects the candidate that
        # produced it: selected clauses hold under the assumptions
        for p in small_corpus(count=40):
            for variant in VARIANTS:
                log = self.run_recorded(p, variant, monkeypatch)
                current = None
                m = len(p.hypotheses)
                for kind, members in log:
                    if kind == "candidate":
                        current = members
                    elif kind == "set" and members != (
                            frozenset(range(m)) - current):
                        assert not (members & current)

    def test_abhs_plus_blocks_exact_candidate(self, monkeypatch):
        for p in small_corpus(count=40):
            log = self.run_recorded(p, BaselineVariant.ABHS_PLUS,
                                    monkeypatch)
            current = None
            for kind, members in log:
                if kind == "candidate":
                    current = members
                elif kind == "block":
                    assert members == current

    def test_abhs_requires_a_new_hypothesis(self, monkeypatch):
        # the type-2 response is exactly the non-selected hypotheses
        for p in small_corpus(count=40):
            log = self.run_recorded(p, BaselineVariant.ABHS, monkeypatch)
            current = None
            m = len(p.hypotheses)
            for kind, members in log:
                if kind == "candidate":
                    current = members
                elif kind == "set" and (members & current):
                    assert members == frozenset(range(m)) - current


class TestRelativePerformance:
    def test_single_call_loop_needs_fewer_iterations(self):
        opts = HyperOptions(reduce_fraction=0.0, bootstrap_mcs=0)
        for n in range(3, 6):
            _, fast = solve_hyper(gen_family2(n), opts)
            _, slow = solve_abhs(gen_family2(n), BaselineVariant.ABHS)
            assert fast.iterations < slow.iterations
            _, fast1 = solve_hyper(gen_family1(n), opts)
            _, slow1 = solve_abhs(gen_family1(n), BaselineVariant.ABHS_PLUS)
            assert fast1.iterations < slow1.iterations
