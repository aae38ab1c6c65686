"""Shared fixtures: the worked instance, corpora and reference evaluators."""

import itertools
import random

import pytest

from abduce.formula import Pap
from abduce.generators import RandomGenParams, gen_random


acceptance_results = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_results:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_results:
            terminalreporter.write_line(line)


def worked_instance():
    """Four variables, two theory clauses, three unit hypotheses, one goal."""
    return Pap(
        num_vars=4,
        theory=((-1, 4), (-2, -3, 4)),
        hypotheses=(((1,), 1), ((2,), 1), ((3,), 1)),
        manifestations=((4,),),
    )


def trap_instance():
    """a, b, c, m = 1..4 with T = {(not a or not b), (not c or m)},
    H = {a: 1, b: 1, c: 3} and M = {m}.  No model of T has a, b and c, so
    T and M and H has no model; {a, b} entails m only by contradicting T,
    and the answer is {c} at cost 3, which a model of T and M with a and
    not c would exclude."""
    return Pap(4, ((-1, -2), (-3, 4)),
               (((1,), 1), ((2,), 1), ((3,), 3)), ((4,),))


@pytest.fixture
def ex1():
    return worked_instance()


def small_corpus(count=200, seed_base=1000):
    """Seeded random instances: <= 12 variables, <= 8 hypotheses, weights <= 4."""
    out = []
    for i in range(count):
        rng = random.Random(seed_base + i)
        params = RandomGenParams(
            num_vars=rng.randint(2, 12),
            num_theory_clauses=rng.randint(0, 6),
            num_hypotheses=rng.randint(0, 8),
            num_manifestations=rng.randint(0, 3),
            max_clause_len=3,
            max_weight=4,
            seed=seed_base + i,
        )
        out.append(gen_random(params))
    return out


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


def eval_qbf_reference(q):
    """Second, independently coded QBF expansion (variable-at-a-time).

    Walks the prefix one variable at a time instead of block-wise and
    evaluates the matrix from a flat literal->bool map, so it shares no
    code or recursion structure with the production evaluator.
    """
    order = []
    for quant, block in q.prefix:
        order.extend((quant, v) for v in block)

    def clause_true(clause, assign):
        return any(assign[abs(l)] == (l > 0) for l in clause)

    def matrix(assign):
        if not all(clause_true(c, assign) for c in q.exists_clauses):
            return False
        inner = all(clause_true(c, assign) for c in q.inner_clauses)
        inner = inner and not all(clause_true(c, assign) for c in q.inner_neg)
        return not inner

    def walk(i, assign):
        if i == len(order):
            return matrix(assign)
        quant, v = order[i]
        results = []
        for val in (True, False):
            assign[v] = val
            results.append(walk(i + 1, assign))
        del assign[v]
        return any(results) if quant == "e" else all(results)

    return walk(0, {})


def enumerate_models(num_vars, clauses):
    """All total assignments (as bool lists with dummy index 0) of a CNF."""
    for bits in itertools.product((False, True), repeat=num_vars):
        model = [False] + list(bits)
        if all(any(model[abs(l)] == (l > 0) for l in c) for c in clauses):
            yield model
