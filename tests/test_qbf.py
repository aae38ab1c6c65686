"""Quantified encodings: bridge properties, bound encoding, text formats."""

import hashlib
import itertools
import random

import pytest

from abduce.brute import (CheckOutcome, bf_check_explanation, bf_eval_2qbf,
                          bf_solve)
from abduce.formula import Pap
from abduce.generators import (RandomGenParams, gen_family1, gen_family2,
                               gen_random)
from abduce.qbf import (QbfFormula, emit_decision_qbf, emit_explanation_qbf,
                        emit_qmaxsat_qbf, encode_pb, write_qcir,
                        write_qdimacs)
from abduce.sat import Solver


def bridge_corpus(count, max_vars=4, max_hyps=5, seed_base=4000):
    out = []
    rng = random.Random(seed_base)
    for i in range(count):
        out.append(gen_random(RandomGenParams(
            num_vars=rng.randint(1, max_vars),
            num_theory_clauses=rng.randint(0, 3),
            num_hypotheses=rng.randint(0, max_hyps),
            num_manifestations=rng.randint(0, 2),
            max_clause_len=2,
            max_weight=3,
            seed=seed_base + i)))
    return out


def eval_qdimacs(text):
    """Truth value of a QDIMACS file by straight prefix enumeration."""
    lines = [l for l in text.splitlines() if l and not l.startswith("c")]
    header = lines[0].split()
    assert header[:2] == ["p", "cnf"]
    nv = int(header[2])
    blocks = []
    body = []
    for line in lines[1:]:
        parts = line.split()
        assert parts[-1] == "0"
        if parts[0] in ("e", "a"):
            blocks.append((parts[0], [int(v) for v in parts[1:-1]]))
        else:
            body.append([int(l) for l in parts[:-1]])
    quantified = {v for _, b in blocks for v in b}
    assert quantified == set(range(1, nv + 1))

    assign = [False] * (nv + 1)

    def walk(bi):
        if bi == len(blocks):
            return all(any(assign[abs(l)] == (l > 0) for l in c)
                       for c in body)
        quant, block = blocks[bi]
        agg = any if quant == "e" else all
        def sub():
            for bits in itertools.product((False, True), repeat=len(block)):
                for v, b in zip(block, bits):
                    assign[v] = b
                yield walk(bi + 1)
        return agg(sub())

    return walk(0)


def eval_qcir(text):
    """Truth value of a cleansed QCIR file via gate evaluation."""
    lines = [l.strip() for l in text.splitlines() if l.strip()]
    assert lines[0].startswith("#QCIR")
    blocks = []
    gates = {}
    output = None
    for line in lines[1:]:
        if line.startswith(("exists(", "forall(")):
            quant = "e" if line.startswith("exists") else "a"
            inside = line[line.index("(") + 1:line.rindex(")")]
            blocks.append((quant, [int(v) for v in inside.split(",")]))
        elif line.startswith("output("):
            output = int(line[line.index("(") + 1:line.rindex(")")])
        else:
            name, rhs = line.split("=")
            kind = rhs.strip().split("(")[0]
            inside = rhs[rhs.index("(") + 1:rhs.rindex(")")].strip()
            args = [int(a) for a in inside.split(",")] if inside else []
            gates[int(name)] = (kind, args)

    assign = {}

    def value(lit):
        v = abs(lit)
        if v in gates:
            kind, args = gates[v]
            agg = any if kind == "or" else all
            out = agg(value(a) for a in args)
        else:
            out = assign[v]
        return out if lit > 0 else not out

    def walk(bi):
        if bi == len(blocks):
            return value(output)
        quant, block = blocks[bi]
        agg = any if quant == "e" else all
        def sub():
            for bits in itertools.product((False, True), repeat=len(block)):
                for v, b in zip(block, bits):
                    assign[v] = b
                yield walk(bi + 1)
        return agg(sub())

    return walk(0)


class TestExplanationQbf:
    def test_worked_instance_subsets(self, ex1):
        assert bf_eval_2qbf(emit_explanation_qbf(ex1, (0,))) is True
        assert bf_eval_2qbf(emit_explanation_qbf(ex1, ())) is False
        assert bf_eval_2qbf(emit_explanation_qbf(ex1, (1,))) is False
        assert bf_eval_2qbf(emit_explanation_qbf(ex1, (0, 1, 2))) is True

    def test_numbering_and_shape(self, ex1):
        q = emit_explanation_qbf(ex1, (0,))
        assert q.prefix == (("e", (1, 2, 3, 4)), ("a", (5, 6, 7, 8)))
        assert q.num_vars == 8
        assert len(q.exists_clauses) == 3  # two theory clauses plus S
        assert len(q.inner_clauses) == 3
        assert q.inner_neg == ((8,),)

    def test_out_of_range_subset(self, ex1):
        with pytest.raises(IndexError):
            emit_explanation_qbf(ex1, (5,))

    def test_bridge_property(self):
        for p in bridge_corpus(40):
            m = len(p.hypotheses)
            for k in range(m + 1):
                for subset in itertools.combinations(range(m), k):
                    want = bf_check_explanation(
                        p, subset) is CheckOutcome.IS_EXPL
                    got = bf_eval_2qbf(emit_explanation_qbf(p, subset))
                    assert got == want


class TestQMaxSatQbf:
    def test_shape(self, ex1):
        q, soft = emit_qmaxsat_qbf(ex1)
        assert q.prefix == (("e", (9, 10, 11)), ("e", (1, 2, 3, 4)),
                            ("a", (5, 6, 7, 8)))
        assert len(q.exists_clauses) == 5
        assert len(q.inner_clauses) == 5
        assert q.inner_neg == ((8,),)
        assert soft == ((-9, 1), (-10, 1), (-11, 1))

    def test_fixing_selection_recovers_explanation_check(self, ex1):
        q, _ = emit_qmaxsat_qbf(ex1)
        fixed = QbfFormula(q.prefix,
                           q.exists_clauses + ((9,), (-10,), (-11,)),
                           q.inner_clauses, q.inner_neg, q.num_vars)
        assert bf_eval_2qbf(fixed) is True
        fixed = QbfFormula(q.prefix,
                           q.exists_clauses + ((-9,), (10,), (-11,)),
                           q.inner_clauses, q.inner_neg, q.num_vars)
        assert bf_eval_2qbf(fixed) is False

    def test_appendix_polarity_inverts_selection(self, ex1):
        q, soft = emit_qmaxsat_qbf(ex1, appendix_polarity=True)
        assert soft == ((-9, 1), (-10, 1), (-11, 1))
        # r false now selects the clause, so S={0} is r=(0,1,1)
        fixed = QbfFormula(q.prefix,
                           q.exists_clauses + ((-9,), (10,), (11,)),
                           q.inner_clauses, q.inner_neg, q.num_vars)
        assert bf_eval_2qbf(fixed) is True

    def test_no_hypotheses(self):
        p = Pap(1, ((1,),), (), ((1,),))
        q, soft = emit_qmaxsat_qbf(p)
        assert soft == ()
        assert q.prefix[0][0] == "e" and len(q.prefix) == 2
        assert bf_eval_2qbf(q) is True


class TestEncodePb:
    @staticmethod
    def projections(cnf, lits):
        """Input-literal subsets extendable to a model of the CNF.

        Enumerating only the input literals keeps this independent of
        how many auxiliary counter variables the encoding introduces.
        """
        out = set()
        solver = Solver(cnf.num_vars)
        for c in cnf.clauses:
            solver.add_clause(c)
        for bits in itertools.product((False, True), repeat=len(lits)):
            assumptions = [l if b else -l for l, b in zip(lits, bits)]
            if solver.solve(assumptions).satisfiable:
                out.add(frozenset(l for l, b in zip(lits, bits) if b))
        return out

    def test_unit_weights(self):
        cnf = encode_pb([(1, 1), (2, 1), (3, 1)], 1, first_fresh=4)
        got = self.projections(cnf, (1, 2, 3))
        assert got == {frozenset(), frozenset({1}), frozenset({2}),
                       frozenset({3})}

    def test_general_weights(self):
        cnf = encode_pb([(1, 2), (2, 1)], 2, first_fresh=3)
        assert self.projections(cnf, (1, 2)) == {
            frozenset(), frozenset({1}), frozenset({2})}

    def test_zero_bound_forces_all_false(self):
        cnf = encode_pb([(1, 1), (2, 3)], 0, first_fresh=3)
        assert self.projections(cnf, (1, 2)) == {frozenset()}

    def test_loose_bound_adds_nothing(self):
        cnf = encode_pb([(1, 1), (2, 1)], 5, first_fresh=3)
        assert len(self.projections(cnf, (1, 2))) == 4

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            encode_pb([(1, 1)], -1, first_fresh=2)
        with pytest.raises(ValueError):
            encode_pb([(0, 1)], 1, first_fresh=2)
        with pytest.raises(ValueError):
            encode_pb([(1, 0)], 1, first_fresh=2)

    def test_projection_exact_fuzz(self):
        rng = random.Random(909)
        for _ in range(120):
            m = rng.randint(1, 5)
            weighted = rng.random() < 0.5
            lits = [(i + 1, rng.randint(1, 4) if weighted else 1)
                    for i in range(m)]
            k = rng.randint(0, sum(w for _, w in lits))
            cnf = encode_pb(lits, k, first_fresh=m + 1)
            got = self.projections(cnf, tuple(l for l, _ in lits))
            want = set()
            for bits in itertools.product((False, True), repeat=m):
                if sum(w for (l, w), b in zip(lits, bits) if b) <= k:
                    want.add(frozenset(
                        l for (l, _), b in zip(lits, bits) if b))
            assert got == want


class TestDecisionQbf:
    def test_worked_instance_threshold(self, ex1):
        assert bf_eval_2qbf(emit_decision_qbf(ex1, 0)) is False
        assert bf_eval_2qbf(emit_decision_qbf(ex1, 1)) is True
        assert bf_eval_2qbf(emit_decision_qbf(ex1, 3)) is True

    def test_threshold_matches_optimum(self):
        for p in bridge_corpus(25, max_vars=3, max_hyps=3, seed_base=7000):
            want = bf_solve(p)
            total = sum(p.weights)
            prev = False
            smallest = None
            for k in range(total + 1):
                value = bf_eval_2qbf(emit_decision_qbf(p, k))
                assert not (prev and not value)  # monotone in k
                if value and smallest is None:
                    smallest = k
                prev = value
            if want is None:
                assert smallest is None
            else:
                assert smallest == want.cost


class TestQcir:
    def test_worked_instance_text(self, ex1):
        text = write_qcir(emit_explanation_qbf(ex1, (0,)))
        lines = text.splitlines()
        assert lines[0] == "#QCIR-G14"
        assert lines[1] == "exists(1, 2, 3, 4)"
        assert lines[2] == "forall(5, 6, 7, 8)"
        assert lines[3].startswith("output(")

    def test_truth_preserved(self):
        for p in bridge_corpus(20, max_vars=3, max_hyps=3, seed_base=8100):
            m = len(p.hypotheses)
            subset = tuple(range(min(2, m)))
            q = emit_explanation_qbf(p, subset)
            assert eval_qcir(write_qcir(q)) == bf_eval_2qbf(q)

    def test_decision_truth_preserved(self, ex1):
        for k in (0, 1):
            q = emit_decision_qbf(ex1, k)
            assert eval_qcir(write_qcir(q)) == bf_eval_2qbf(q)


class TestQdimacs:
    def test_worked_instance_text(self, ex1):
        q = emit_explanation_qbf(ex1, (0,))
        text = write_qdimacs(q)
        lines = text.splitlines()
        # 8 instance vars plus one selector per inner clause plus one
        # for the negated manifestation conjunction
        assert lines[0] == "p cnf 12 %d" % (len(lines) - 4)
        assert lines[1] == "e 1 2 3 4 0"
        assert lines[2] == "a 5 6 7 8 0"
        assert lines[3] == "e 9 10 11 12 0"

    def test_truth_preserved(self):
        for p in bridge_corpus(20, max_vars=3, max_hyps=3, seed_base=8200):
            m = len(p.hypotheses)
            subset = tuple(range(min(2, m)))
            q = emit_explanation_qbf(p, subset)
            assert eval_qdimacs(write_qdimacs(q)) == bf_eval_2qbf(q)

    def test_decision_truth_preserved(self, ex1):
        for k in (0, 1):
            q = emit_decision_qbf(ex1, k)
            assert eval_qdimacs(write_qdimacs(q)) == bf_eval_2qbf(q)

    def test_merges_adjacent_exists_blocks(self, ex1):
        q, _ = emit_qmaxsat_qbf(ex1)
        lines = write_qdimacs(q).splitlines()
        assert lines[1] == "e 9 10 11 1 2 3 4 0"
        assert lines[2] == "a 5 6 7 8 0"
        assert lines[3].startswith("e ")


def seeded_instances(count=40, seed=6060):
    """Random instances built here, so the pin below does not move with
    the generators: <= 8 variables, <= 6 hypotheses, weights <= 4."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 8)

        def clause():
            vs = rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))
            return tuple(v if rng.random() < 0.5 else -v for v in vs)

        out.append(Pap(
            n, [clause() for _ in range(rng.randint(0, 5))],
            [(clause(), rng.randint(1, 4)) for _ in range(rng.randint(0, 6))],
            [clause() for _ in range(rng.randint(0, 3))]))
    return out


class TestEmittedText:
    # SHA-256 of every emitter's QCIR and QDIMACS text (and qmaxsat's soft
    # list) on families 1 and 2 for n = 1..3 and seeded_instances(); a
    # refactor of the encodings must leave the emitted bytes unchanged
    PINNED = "32e91ae38e12436dd881324e6e3022d6d31fbd63a73fed8a8bec3aac016a0a4e"

    def test_text_is_pinned(self):
        h = hashlib.sha256()
        instances = [gen(n) for gen in (gen_family1, gen_family2)
                     for n in (1, 2, 3)] + seeded_instances()
        for p in instances:
            qs = [emit_explanation_qbf(p, range(0, len(p.hypotheses), 2))]
            for polarity in (False, True):
                q, soft = emit_qmaxsat_qbf(p, appendix_polarity=polarity)
                qs.append(q)
                h.update(repr(soft).encode())
            qs += [emit_decision_qbf(p, k) for k in (0, 2, 5)]
            for q in qs:
                h.update(write_qcir(q).encode())
                h.update(write_qdimacs(q).encode())
        assert h.hexdigest() == self.PINNED


class TestFormulaValidation:
    def test_rejects_bad_quantifier(self):
        with pytest.raises(ValueError):
            QbfFormula((("x", (1,)),), (), (), (), 1)

    def test_rejects_double_binding(self):
        with pytest.raises(ValueError):
            QbfFormula((("e", (1,)), ("a", (1,))), (), (), (), 1)
