"""Two-SAT-call hitting-set baselines (AbHS and AbHS+).

Candidates are minimum-cost hitting sets over the accumulated sets and
blocks only; neither the theory nor the manifestations constrain the
selection.  Each candidate then needs up to two oracle calls: an
entailment check (whose model yields a type-1 set to hit) and a
consistency check (whose failure triggers the type-2 response).  AbHS
responds to an inconsistent candidate by requiring some non-selected
hypothesis; AbHS+ blocks the candidate and its supersets.

Both variants return "no explanation" when the hitting-set subproblem
becomes infeasible or when a response would add an empty set or block.
"""

from __future__ import annotations

import enum
import random
import time

from .formula import Explanation, Pap
from .hitting import HittingSetContext
from .hyper import (EntailmentChecker, SolveStats, extract_counterexample,
                    relaxed_solver)


class BaselineVariant(enum.Enum):
    ABHS = "abhs"
    ABHS_PLUS = "abhs-plus"


class ConsistencyChecker:
    """Incremental SAT check of T and S, S given as assumptions."""

    def __init__(self, p: Pap):
        self.solver, self.r_vars = relaxed_solver(p)

    def check(self, picked):
        return self.solver.solve([self.r_vars[i] for i in sorted(picked)])


def solve_abhs(p: Pap, variant: BaselineVariant = BaselineVariant.ABHS_PLUS,
               seed: int = 0):
    """Minimum-cost explanation via the two-call loop, or None.

    ``variant`` is a :class:`BaselineVariant` or its value ("abhs",
    "abhs-plus"); any other value raises ``ValueError``.  Returns
    (Explanation | None, SolveStats) with per-type counterexample
    counters.
    """
    variant = BaselineVariant(variant)
    stats = SolveStats()
    t0 = time.perf_counter()
    try:
        return _solve(p, variant, stats, seed)
    finally:
        stats.wall_time = time.perf_counter() - t0


# Per query, each variable's saved phase is reset to the default
# polarity with this probability.  1.0 would make every query behave
# like a fresh oracle call; lower values keep some phase memory.
PHASE_RESET_PROB = 0.75


def _solve(p, variant, stats, seed):
    m = len(p.hypotheses)
    rng, tie_rng = random.Random(seed), random.Random(seed + 1)
    ctx = HittingSetContext(p.weights, num_base_vars=0)
    entailment = EntailmentChecker(p, small_models=False)
    consistency = ConsistencyChecker(p)
    while True:
        # partially reset saved phases so queries resemble the
        # from-scratch oracle calls of the original loop
        for v in range(1, p.num_vars + 1):
            if rng.random() < PHASE_RESET_PROB:
                entailment.solver.phase[v] = False
        # scatter ties: fresh saved phases pull equal-cost candidates apart
        for r in ctx.r_vars:
            ctx.opt.solver.phase[r] = tie_rng.random() < 0.5
        candidate = ctx.hs_next_candidate()
        stats.hs_calls += 1
        stats.iterations += 1
        if candidate is None:
            return None, stats
        picked, cost = candidate

        res = entailment.check(picked)
        stats.sat_calls += 1
        if res.satisfiable:
            counterexample = extract_counterexample(p, res.model)
            stats.type1_counterexamples += 1
            if not counterexample:
                return None, stats  # even all of H fails to entail M
            ctx.hs_add_set(counterexample)
            continue

        res = consistency.check(picked)
        stats.sat_calls += 1
        if res.satisfiable:
            return Explanation(tuple(picked), cost), stats

        stats.type2_counterexamples += 1
        if variant is BaselineVariant.ABHS:
            rest = frozenset(range(m)) - picked
            if not rest:
                return None, stats
            ctx.hs_add_set(rest)
        else:
            if not picked:
                return None, stats  # T itself is inconsistent
            ctx.hs_add_block(picked)
