"""Minimum-cost hitting sets, MCS enumeration and counterexample reduction.

A :class:`HittingSetContext` owns one incremental OLL optimizer.  Each
hypothesis index i has a relaxation variable r_i; sets-to-hit become
positive clauses over the r variables, blocks become negative clauses,
and an optional background theory (added clause by clause) constrains
the candidates further.  Successive candidates are therefore computed
incrementally, with the optimum never decreasing.
"""

from __future__ import annotations

import math

from .formula import clause_satisfied
from .maxsat import CostMinimizer
from .sat import Solver


class HardUnsatError(Exception):
    """The hard part of an MCS enumeration problem is unsatisfiable."""


class HittingSetContext:
    """Incremental minimum-cost hitting-set state over relaxation variables.

    r_i = true means hypothesis i is picked; the soft objective prefers
    every r_i false with the hypothesis weight as penalty.
    """

    def __init__(self, weights, num_base_vars: int = 0, rng=None):
        self.weights = tuple(int(w) for w in weights)
        self.num_base_vars = num_base_vars
        self.r_vars = tuple(num_base_vars + 1 + i for i in range(len(self.weights)))
        self.rng = rng  # optional random.Random for candidate tie-breaking
        self.opt = CostMinimizer()
        self.opt.solver.extend_vars(num_base_vars + len(self.weights))
        for r, w in zip(self.r_vars, self.weights):
            self.opt.add_soft(-r, w)
        self.num_sets = 0
        self.num_blocks = 0

    def add_background(self, clause) -> None:
        """Add a hard background clause (may mention base and r variables)."""
        self.opt.add_hard(clause)

    def hs_add_set(self, indices) -> None:
        """Require every future candidate to intersect ``indices``."""
        if not indices:
            raise ValueError("empty set to hit")
        self.opt.add_hard([self.r_vars[i] for i in sorted(indices)])
        self.num_sets += 1

    def hs_add_block(self, indices) -> None:
        """Exclude ``indices`` and all its supersets from future candidates."""
        if not indices:
            raise ValueError("empty block")
        self.opt.add_hard([-self.r_vars[i] for i in sorted(indices)])
        self.num_blocks += 1

    def hs_next_candidate(self):
        """Minimum-cost candidate as (index set, cost), or None if infeasible."""
        if self.rng is not None:
            # scatter ties: fresh saved phases pull equal-cost candidates apart
            for r in self.r_vars:
                self.opt.solver.phase[r] = self.rng.random() < 0.5
        out = self.opt.compute()
        if out is None:
            return None
        model, cost = out
        picked = frozenset(i for i, r in enumerate(self.r_vars) if model[r])
        return picked, cost


def enumerate_mcs(solver: Solver, selectors, clauses, limit: int):
    """Up to ``limit`` minimal correction subsets, in the order found.

    ``solver`` holds the hard part plus one implication s_i -> C_i per
    soft clause, with ``selectors[i]`` = s_i and ``clauses[i]`` = C_i;
    an MCS is a frozenset of soft indices.  Each MCS is computed by CLD
    (Marques-Silva et al., IJCAI 2013) with plain SAT calls: starting
    from a model, U holds the falsified soft indices; a fresh activation
    literal a guards "some C_i with i in U holds", and the solver is
    asked for it under the selectors of the satisfied indices.  A model
    moves every index it satisfies out of U; unsatisfiability makes U
    an MCS.  The MCS is then blocked by (OR of s_i, i in U) and a is
    retired by the unit -a; both stay in the solver.

    Returns the empty list when the hard part plus all soft clauses is
    satisfiable; raises :class:`HardUnsatError` when the hard part alone
    is unsatisfiable.
    """
    res = solver.solve()
    if not res.satisfiable:
        raise HardUnsatError
    found = []
    while len(found) < limit:
        satisfied, falsified = [], list(range(len(clauses)))
        while True:
            model = res.model
            rest = []
            for i in falsified:
                (satisfied if clause_satisfied(clauses[i], model)
                 else rest).append(i)
            falsified = rest
            if not falsified:
                return found  # everything satisfiable: no correction needed
            a = solver.new_var()
            solver.add_clause([-a] + [l for i in falsified for l in clauses[i]])
            res = solver.solve([selectors[i] for i in satisfied] + [a])
            solver.add_clause([-a])
            if not res.satisfiable:
                break
        found.append(frozenset(falsified))
        solver.add_clause([selectors[i] for i in falsified])
        res = solver.solve()
        if not res.satisfiable:
            break  # all MCSes enumerated
    return found


class CorrectionSetReducer:
    """Linear-search reducer of correction sets, on a caller's solver.

    ``solver`` holds the hard part plus s_i -> C_i for every soft clause
    C_i, with ``selectors[i]`` = s_i, as for :func:`enumerate_mcs`.
    """

    def __init__(self, solver: Solver, selectors, soft_clauses, weights):
        self.solver = solver
        self.selectors = tuple(selectors)
        self.soft_clauses = [tuple(c) for c in soft_clauses]
        self.weights = tuple(weights)

    def reduce(self, model, falsified, fraction):
        """Shrink a correction set by trying to satisfy its cheapest members.

        Walks the first ceil(fraction * m) clauses of the initial set in
        ascending (weight, index) order; each still-falsified one gets a
        single SAT call, and on success it migrates to the satisfied side
        together with every clause the new model happens to satisfy.
        """
        falsified = set(falsified)
        if fraction <= 0 or not falsified:
            return falsified
        budget = math.ceil(fraction * len(falsified))
        order = sorted(falsified, key=lambda i: (self.weights[i], i))[:budget]
        satisfied = [i for i in range(len(self.soft_clauses)) if i not in falsified]
        for i in order:
            if i not in falsified:
                continue  # migrated as a side effect of an earlier call
            res = self.solver.solve([self.selectors[j] for j in satisfied]
                                    + [self.selectors[i]])
            if not res.satisfiable:
                continue
            moved = {j for j in falsified
                     if clause_satisfied(self.soft_clauses[j], res.model)}
            moved.add(i)
            falsified -= moved
            satisfied.extend(sorted(moved))
        return falsified
