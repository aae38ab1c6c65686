"""Implicit-hitting-set abduction with a single SAT check per iteration.

Candidates are minimum-cost hitting sets computed against a background
theory that already conjoins T, M and the relaxed hypotheses, so every
candidate S is consistent with T (and with M) by construction.  One
incremental SAT call on T and S and not-M then either certifies the
explanation or yields a counterexample whose falsified hypotheses form
the next set to hit.

Optional optimizations: partial reduction of counterexamples, hitting
set bootstrapping with MCSes of T and H and not-M, and entailment-based
preprocessing of M and H.

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
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .formula import Cnf, Explanation, Pap, clause_satisfied, encode_negation
from .hitting import (CorrectionSetReducer, HardUnsatError, HittingSetContext,
                      enumerate_mcs)
from .sat import Solver


@dataclass
class HyperOptions:
    reduce_fraction: float = 0.2  # 0 disables partial reduction
    bootstrap_mcs: int = 0  # 100 for the starred configuration
    preprocess_m: bool = False
    preprocess_h: bool = False

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


def preprocess_entailed(p: Pap, opts: HyperOptions):
    """Drop theory-entailed clauses from M and/or H.

    Returns (reduced instance, kept-H-index list); the mapping lets the
    caller report explanation indices against the original instance.
    Entailment of C is checked as unsatisfiability of T and not-C.
    """
    keep_h = list(range(len(p.hypotheses)))
    if not (opts.preprocess_m or opts.preprocess_h):
        return p, keep_h
    solver = Solver(p.num_vars)
    for c in p.theory:
        solver.add_clause(c)
    manifest = p.manifestations
    if opts.preprocess_m:
        manifest = tuple(
            c for c in p.manifestations
            if solver.solve([-l for l in c]).satisfiable
        )
    hyps = p.hypotheses
    if opts.preprocess_h:
        keep_h = [
            i for i, (c, _) in enumerate(p.hypotheses)
            if solver.solve([-l for l in c]).satisfiable
        ]
        hyps = tuple(p.hypotheses[i] for i in keep_h)
    return Pap(p.num_vars, p.theory, hyps, manifest), keep_h


class EntailmentChecker:
    """Incremental SAT check of T and S and not-M, S given as assumptions.

    With small_models the search is biased toward models that satisfy
    hypothesis clauses: deciding an unpicked r true early makes its
    clause propagate, which keeps counterexamples (falsified
    hypotheses) small.
    """

    def __init__(self, p: Pap, small_models: bool = True):
        n = p.num_vars
        self.r_vars = tuple(n + 1 + i for i in range(len(p.hypotheses)))
        neg_m, _ = encode_negation(Cnf(n, p.manifestations),
                                   n + len(p.hypotheses) + 1)
        self.solver = Solver(neg_m.num_vars)
        for c in p.theory:
            self.solver.add_clause(c)
        for r, (c, _) in zip(self.r_vars, p.hypotheses):
            self.solver.add_clause([-r] + list(c))
        for c in neg_m.clauses:
            self.solver.add_clause(c)
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

    Returns (Explanation | None, SolveStats); the reported indices refer
    to the original hypothesis list even when preprocessing is enabled.
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
    work, keep_h = preprocess_entailed(p, opts)
    n = work.num_vars
    weights = work.weights

    ctx = HittingSetContext(weights, num_base_vars=n)
    for c in work.theory:
        ctx.add_background(c)
    for c in work.manifestations:
        ctx.add_background(c)
    for r, (c, _) in zip(ctx.r_vars, work.hypotheses):
        ctx.add_background([-r] + list(c))

    checker = EntailmentChecker(work)
    clauses = [c for c, _ in work.hypotheses]
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
            indices = tuple(keep_h[i] for i in picked)
            return Explanation(indices, cost), stats
        counterexample = extract_counterexample(work, res.model)
        stats.type1_counterexamples += 1
        if reducer is not None and counterexample:
            counterexample = reducer.reduce(res.model, counterexample,
                                            opts.reduce_fraction)
        if not counterexample:
            # the model satisfies all of H, so not even H entails M
            return None, stats
        ctx.hs_add_set(counterexample)
