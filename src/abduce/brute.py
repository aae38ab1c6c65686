"""Brute-force oracles for validating the solvers at desk scale.

These are deliberately simple and independent of the optimized search
paths: explanation checking uses two plain SAT queries, minimum-cost
search enumerates hypothesis subsets in non-decreasing cost, and QBF
evaluation expands quantifier blocks exhaustively.
"""

from __future__ import annotations

import enum
import heapq
import itertools

from .formula import Explanation, Pap, encode_negation
from .sat import Solver

BF_MAX_HYPOTHESES = 20
BF_MAX_QBF_VARS = 24


class CheckOutcome(enum.Enum):
    IS_EXPL = "IsExpl"
    NOT_CONSISTENT = "NotConsistent"
    NOT_ENTAILING = "NotEntailing"


def bf_check_explanation(p: Pap, indices) -> CheckOutcome:
    """Classify a hypothesis subset: consistent with T, and entailing M?

    NotConsistent takes precedence when both conditions fail.
    """
    chosen = p.theory + p.subset(indices)
    s1 = Solver(p.num_vars)
    for c in chosen:
        s1.add_clause(c)
    if not s1.solve().satisfiable:
        return CheckOutcome.NOT_CONSISTENT
    s2 = Solver(p.num_vars + len(p.manifestations))
    for c in [*chosen, *encode_negation(p.manifestations, p.num_vars + 1)]:
        s2.add_clause(c)
    if s2.solve().satisfiable:
        return CheckOutcome.NOT_ENTAILING
    return CheckOutcome.IS_EXPL


def bf_solve(p: Pap):
    """Cheapest explanation by best-first subset enumeration, or None.

    Subsets are visited in non-decreasing cost, ties broken by
    lexicographic index order, so the first hit is a minimum-cost
    explanation with a reproducible tie-break.
    """
    m = len(p.hypotheses)
    if m > BF_MAX_HYPOTHESES:
        raise ValueError("refusing brute force with %d hypotheses (max %d)"
                         % (m, BF_MAX_HYPOTHESES))
    weights = p.weights
    frontier = [(0, ())]
    while frontier:
        cost, subset = heapq.heappop(frontier)
        if bf_check_explanation(p, subset) is CheckOutcome.IS_EXPL:
            return Explanation(subset, cost)
        start = subset[-1] + 1 if subset else 0
        for j in range(start, m):
            heapq.heappush(frontier, (cost + weights[j], subset + (j,)))
    return None


def _clauses_ok(clauses, assign):
    # False as soon as some clause is fully falsified under the partial
    # assignment; True only means "not yet refuted".
    for c in clauses:
        sat = False
        undecided = False
        for l in c:
            v = assign[abs(l)]
            if v is None:
                undecided = True
            elif v == (l > 0):
                sat = True
                break
        if not sat and not undecided:
            return False
    return True


def _matrix_value(q, assign):
    if not all(
        any(assign[abs(l)] == (l > 0) for l in c) for c in q.exists_clauses
    ):
        return False
    # psi = not (inner_clauses all satisfied and inner_neg not all satisfied)
    inner = all(
        any(assign[abs(l)] == (l > 0) for l in c) for c in q.inner_clauses
    )
    inner = inner and not all(
        any(assign[abs(l)] == (l > 0) for l in c) for c in q.inner_neg
    )
    return not inner


def bf_eval_2qbf(q) -> bool:
    """Exact truth value by block-wise enumeration (refuses > 24 variables)."""
    total = sum(len(block) for _, block in q.prefix)
    if total > BF_MAX_QBF_VARS:
        raise ValueError("refusing QBF evaluation with %d variables" % total)
    assign = [None] * (q.num_vars + 1)

    def eval_from(bi):
        if bi == len(q.prefix):
            return _matrix_value(q, assign)
        quant, block = q.prefix[bi]
        if not _clauses_ok(q.exists_clauses, assign):
            # the matrix is a conjunction with these clauses: dead branch
            return False
        for bits in itertools.product((False, True), repeat=len(block)):
            for v, b in zip(block, bits):
                assign[v] = b
            value = eval_from(bi + 1)
            if quant == "e" and value:
                for v in block:
                    assign[v] = None
                return True
            if quant == "a" and not value:
                for v in block:
                    assign[v] = None
                return False
        for v in block:
            assign[v] = None
        return quant == "a"

    return eval_from(0)
