"""Implicit-hitting-set abduction with a single SAT check per iteration.

Candidates are minimum-cost hitting sets computed against a background
theory that already conjoins T, M and the relaxed hypotheses, so every
candidate S is consistent with T (and with M) by construction.  One
incremental SAT call on T and S and not-M then either certifies the
explanation or yields a counterexample whose falsified hypotheses form
the next set to hit.

Optional optimizations: partial reduction of counterexamples and hitting
set bootstrapping with MCSes of T and H and not-M.

One oracle.  The bootstrap, the reduction and the checks all query
T and not-M and (not r_i or C_i), so they share the solver of one
:class:`EntailmentChecker`, and what one step learns the others reuse.
The bootstrap leaves a block (OR of r_i, i in U) for every MCS U it
found; this is sound because every candidate S hits every bootstrapped
MCS.  If T and not-M and S has a model, S lies in an MSS whose
complement U' misses S, so U' is not blocked; every blocked MCS U other
than U' has a member outside U', which the model, extended to that MSS,
satisfies.  A check therefore gets the same verdict as without the
blocks.  A reducer query may become unsatisfiable only because of the
blocks; then its member stays in the set, which is still the falsified
set of a real model.  When the bootstrap enumerates every MCS the solver
becomes unsatisfiable, and every check certifies its candidate at once.

One witness.  Before the first candidate, one SAT call on the
hitting-set solver assumes every r_i true.  If T and M and H has a
model mu, then (x = mu, r = S) satisfies the background for every
selection S, because r_i occurs there only in (not r_i or C_i) and mu
satisfies every C_i.  The instance variables are then fixed to mu by
unit clauses: a selection is feasible exactly when it was before, every
optimum stays, and each candidate searches only the r_i and the
totalizer variables instead of T again.  Otherwise the hypotheses are
jointly inconsistent with T and M, nothing is fixed, and the loop runs
on the full background as before; the clauses the call learnt are
consequences of it.  A model of T and M alone would not do, since each
C_i it falsifies would force r_i false: with T = {(not a or not b),
(not c or m)}, H = {a: 1, b: 1, c: 3} and M = {m}, no model has a, b
and c, the set {a, b} entails m only by being inconsistent with T, and
the answer is {c} at cost 3, which a model with a and not c excludes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .formula import Cnf, Explanation, Pap, clause_satisfied, encode_negation
from .hitting import (CorrectionSetReducer, HardUnsatError, HittingSetContext,
                      enumerate_mcs)
from .sat import Solver


@dataclass
class HyperOptions:
    reduce_fraction: float = 0.2  # 0 disables partial reduction
    bootstrap_mcs: int = 0  # 100 for the starred configuration

    def __post_init__(self):
        if not 0.0 <= self.reduce_fraction <= 1.0:
            raise ValueError("reduce_fraction must be in [0, 1]")
        if self.bootstrap_mcs < 0:
            raise ValueError("bootstrap_mcs must be >= 0")


@dataclass
class SolveStats:
    iterations: int = 0
    type1_counterexamples: int = 0
    type2_counterexamples: int = 0
    hs_calls: int = 0
    sat_calls: int = 0
    bootstrap_mcs_found: int = 0
    wall_time: float = 0.0


def relaxed_solver(p: Pap, negate_m: bool):
    """A solver over T and (not r_i or C_i), plus not-M when ``negate_m``.

    Returns (solver, r_vars).  The selectors r_i follow the instance
    variables, and the selectors of not-M (:func:`encode_negation`)
    follow the r_i.
    """
    r_vars, relaxed = p.relaxed(p.num_vars + 1)
    num_vars = p.num_vars + len(r_vars)
    clauses = p.theory + relaxed
    if negate_m:
        neg_m, _ = encode_negation(Cnf(p.num_vars, p.manifestations),
                                   num_vars + 1)
        num_vars, clauses = neg_m.num_vars, clauses + neg_m.clauses
    solver = Solver(num_vars)
    for c in clauses:
        solver.add_clause(c)
    return solver, r_vars


class EntailmentChecker:
    """Incremental SAT check of T and S and not-M, S given as assumptions.

    With small_models the search is biased toward models that satisfy
    hypothesis clauses: deciding an unpicked r true early makes its
    clause propagate, which keeps counterexamples (falsified
    hypotheses) small.
    """

    def __init__(self, p: Pap, small_models: bool = True):
        self.solver, self.r_vars = relaxed_solver(p, negate_m=True)
        if small_models:
            for r in self.r_vars:
                self.solver.set_preference(r, 1.0, True)

    def check(self, picked):
        return self.solver.solve([self.r_vars[i] for i in sorted(picked)])


def extract_counterexample(p: Pap, model) -> frozenset:
    """Indices of all hypothesis clauses the model falsifies."""
    return frozenset(i for i, (c, _) in enumerate(p.hypotheses)
                     if not clause_satisfied(c, model))


def solve_hyper(p: Pap, opts: HyperOptions | None = None):
    """Minimum-cost explanation of p, or None when none exists.

    Returns (Explanation | None, SolveStats).
    """
    if opts is None:
        opts = HyperOptions()
    stats = SolveStats()
    t0 = time.perf_counter()
    try:
        return _solve(p, opts, stats)
    finally:
        stats.wall_time = time.perf_counter() - t0


def _solve(p, opts, stats):
    n = p.num_vars
    weights = p.weights

    ctx = HittingSetContext(weights, num_base_vars=n)
    _, relaxed = p.relaxed(n + 1)  # the same selectors as ctx.r_vars
    for c in p.theory + p.manifestations + relaxed:
        ctx.add_background(c)
    ctx.fix_base_vars(n)  # r_i occurs only in (not r_i or C_i)

    checker = EntailmentChecker(p)
    clauses = [c for c, _ in p.hypotheses]
    reducer = None
    if opts.reduce_fraction > 0:
        reducer = CorrectionSetReducer(checker.solver, checker.r_vars, clauses,
                                       weights)

    if opts.bootstrap_mcs > 0:
        try:
            mcses = enumerate_mcs(checker.solver, checker.r_vars, clauses,
                                  opts.bootstrap_mcs)
        except HardUnsatError:
            # T alone entails M: the main loop settles this immediately.
            mcses = None
        if mcses is not None:
            if not mcses:
                # T and H and not-M is satisfiable: no subset of H entails M.
                return None, stats
            stats.bootstrap_mcs_found = len(mcses)
            for mcs in mcses:
                ctx.hs_add_set(mcs)

    while True:
        candidate = ctx.hs_next_candidate()
        stats.hs_calls += 1
        stats.iterations += 1
        if candidate is None:
            return None, stats
        picked, cost = candidate
        res = checker.check(picked)
        stats.sat_calls += 1
        if not res.satisfiable:
            return Explanation(tuple(picked), cost), stats
        counterexample = extract_counterexample(p, res.model)
        stats.type1_counterexamples += 1
        if reducer is not None and counterexample:
            counterexample = reducer.reduce(res.model, counterexample,
                                            opts.reduce_fraction)
        if not counterexample:
            # the model satisfies all of H, so not even H entails M
            return None, stats
        ctx.hs_add_set(counterexample)
