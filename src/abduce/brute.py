"""Brute-force oracles for validating the solvers at desk scale.

These are deliberately simple and independent of the optimized search
paths: explanation checking uses two plain SAT queries, and minimum-cost
search enumerates hypothesis subsets in non-decreasing cost.
"""

from __future__ import annotations

import enum
import heapq

from .formula import Explanation, Pap, encode_negation
from .sat import Solver

BF_MAX_HYPOTHESES = 20


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
