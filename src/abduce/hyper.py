"""Implicit-hitting-set abduction with a single SAT check per iteration.

Candidates are minimum-cost hitting sets, each consistent with T and M
by construction (see "One witness").  One incremental SAT call on T and
S and not-M then either certifies the explanation or yields a
counterexample whose falsified hypotheses form the next set to hit.

Optional optimizations: reduction of counterexamples by recursive model
rotation and hitting set bootstrapping with MCSes of T and H and not-M.

One oracle.  The bootstrap and the checks both query T and not-M and
(not r_i or C_i), so they share the solver of one
:class:`EntailmentChecker`, and what one step learns the other reuses.
The bootstrap adds no variable.  It leaves a block (OR of r_i, i in U)
for every MCS U it found, and each CLD step's clause over the r_i,
which that block implies (:func:`enumerate_mcs`).  The blocks are sound
because every candidate S hits every bootstrapped MCS.  If T and not-M
and S has a model, S lies in an MSS whose complement U' misses S, so U'
is not blocked; every blocked MCS U other than U' has a member outside
U', which the model, extended to that MSS, satisfies.  A check
therefore gets the same verdict as without the blocks.  When the
bootstrap enumerates every MCS the solver becomes unsatisfiable, and
every check certifies its candidate at once.  The reduction asks no
solver: it keeps a chain of flips of variables in the check's model
only if the model stays one of T and not-M and of every hypothesis it
satisfied, and a flip that breaks exactly one such clause is followed
into that clause (:class:`CorrectionSetReducer`).  So a reduced set is
the falsified set of a real model, with or without the blocks.

One witness.  Before not-M is added, the checker's solver is asked
once for a model of T and M and H (:class:`EntailmentChecker`).  A
model mu satisfies T, M and every C_i, so every selection S is
consistent with T and M, and candidates are minimum-cost hitting sets
of the collected sets alone: :class:`HittingSetContext` computes them
by branch and bound, and every SAT call of the run is on the checker's
solver.  Without a model the hypotheses are jointly inconsistent with
T and M; the candidates then come from an OLL optimizer with the
background T and M and (not r_i or C_i), added clause by clause, and
one query assuming every r_i, which is unsatisfiable and kept for what
it learns (without it, basic hyper on ``gen_family1(40)`` takes 239
iterations instead of 163).  Either way the checks and the bootstrap
start from what the witness query learnt about T.  A model of T and M
alone would not do: with
T = {(not a or not b), (not c or m)}, H = {a: 1, b: 1, c: 3} and
M = {m}, T and M have a model, but {a, b} entails m only by being
inconsistent with T; a candidate free of T would certify {a, b} at
cost 2, while the answer is {c} at cost 3.
"""

from __future__ import annotations

import time

from .formula import (Explanation, Pap, Value, clause_satisfied,
                      encode_negation)
from .hitting import CorrectionSetReducer, HittingSetContext, enumerate_mcs
from .sat import Solver


class HyperOptions(Value):
    __slots__ = ("reduce_fraction", "bootstrap_mcs")

    def __init__(self, reduce_fraction: float = 1.0,  # 0: no reduction
                 bootstrap_mcs: int = 0):  # 100 for the starred configuration
        if not 0.0 <= reduce_fraction <= 1.0:
            raise ValueError("reduce_fraction must be in [0, 1]")
        if type(bootstrap_mcs) is not int:  # a bool is an int, too
            raise ValueError("bootstrap_mcs must be an int, not %s"
                             % type(bootstrap_mcs).__name__)
        if bootstrap_mcs < 0:
            raise ValueError("bootstrap_mcs must be >= 0")
        super().__init__(reduce_fraction, bootstrap_mcs)


class SolveStats(Value):
    __slots__ = ("iterations", "type1_counterexamples", "type2_counterexamples",
                 "hs_calls", "sat_calls", "bootstrap_mcs_found", "wall_time")

    def __init__(self, iterations=0, type1_counterexamples=0,
                 type2_counterexamples=0, hs_calls=0, sat_calls=0,
                 bootstrap_mcs_found=0, wall_time=0.0):
        super().__init__(iterations, type1_counterexamples,
                         type2_counterexamples, hs_calls, sat_calls,
                         bootstrap_mcs_found, wall_time)


def relaxed_solver(p: Pap):
    """A solver over T and (not r_i or C_i): returns (solver, r_vars).

    The selectors r_i follow the instance variables.
    """
    r_vars, relaxed = p.relaxed(p.num_vars + 1)
    solver = Solver(p.num_vars + len(r_vars))
    for c in p.theory + relaxed:
        solver.add_clause(c)
    return solver, r_vars


class EntailmentChecker:
    """Incremental SAT check of T and S and not-M, S given as assumptions.

    With small_models the search is biased toward models that satisfy
    hypothesis clauses: deciding an unpicked r true early makes its
    clause propagate, which keeps counterexamples (falsified
    hypotheses) small.

    With witness, one query on the same solver first asks for a model
    of T and M and H, before not-M is added: M is added guarded by a
    fresh literal b, as (not b or M_j), every r_i and b are assumed, and
    b is then retired by the unit (not b).  ``self.witness`` is that
    model, or None when there is none; every later query starts from
    what this one learnt about T.
    """

    def __init__(self, p: Pap, small_models: bool = True,
                 witness: bool = False):
        self.solver, self.r_vars = relaxed_solver(p)
        if small_models:
            for r in self.r_vars:
                self.solver.set_preference(r, 1.0, True)
        self.witness = None
        if witness:
            b = self.solver.new_var()
            for c in p.manifestations:
                self.solver.add_clause((-b,) + c)
            res = self.solver.solve(self.r_vars + (b,))
            self.solver.add_clause([-b])
            self.witness = res.model
        for c in encode_negation(p.manifestations, self.solver.num_vars + 1):
            self.solver.add_clause(c)

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
    weights = p.weights
    checker = EntailmentChecker(p, witness=True)
    if checker.witness is not None:
        ctx = HittingSetContext(weights)  # every selection is consistent
    else:
        n = p.num_vars
        ctx = HittingSetContext(weights, num_base_vars=n)
        _, relaxed = p.relaxed(n + 1)  # the same selectors as ctx.r_vars
        for c in p.theory + p.manifestations + relaxed:
            ctx.add_background(c)
        # unsatisfiable, as on the checker; kept for what it learns
        ctx.opt.solver.solve(ctx.r_vars)

    clauses = [c for c, _ in p.hypotheses]
    reducer = None
    if opts.reduce_fraction > 0:
        reducer = CorrectionSetReducer(p.theory, clauses, p.manifestations,
                                       weights)

    if opts.bootstrap_mcs > 0:
        mcses = enumerate_mcs(checker.solver, checker.r_vars, clauses,
                              opts.bootstrap_mcs)
        # None: T alone entails M, which the main loop settles at once
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
