"""Minimum-cost hitting sets, MCS enumeration and counterexample reduction.

A :class:`HittingSetContext` computes successive minimum-cost hitting
sets of a growing collection, so the optimum never decreases.  A pure
hitting-set problem takes sets only, so it is always feasible, and is
solved by branch and bound over bit masks, as implicit-hitting-set
solvers solve theirs without SAT (MaxHS and AbHS use an
integer-programming solver).  When a background theory constrains the
selection, or when the baselines need blocks and OLL's tie behaviour,
one incremental OLL optimizer holds the problem instead: each
hypothesis index i has a relaxation variable r_i, sets-to-hit become
positive clauses over the r variables and blocks negative clauses.
"""

from __future__ import annotations

import math

from .formula import _count, _weight, clause_satisfied
from .sat import Solver


class HittingSetContext:
    """Incremental minimum-cost hitting sets over hypothesis indices.

    Two backends, chosen by the constructor's arguments:

    - ``HittingSetContext(weights)``, with no base variables: the
      problem is a pure weighted hitting set of sets only, so picking
      every index always hits them all, and each candidate comes from a
      branch and bound over Python-int bit masks
      (:meth:`_branch_and_bound`); no SAT solver is built and ``r_vars``
      is None.  The context keeps only the last optimum's cost, which
      bounds the next search from below; each search starts from the
      empty pick.  This is what ``hyper`` builds when it has a witness of
      T and M and H.
    - With ``num_base_vars`` (an int, possibly 0): one incremental OLL
      optimizer (``self.opt``).  Hypothesis i gets the relaxation
      variable r_i after the base variables; r_i = true means hypothesis
      i is picked, and the soft objective prefers every r_i false with
      the hypothesis weight as penalty.  It takes background (clauses
      over base and r variables, :meth:`add_background`), sets and
      blocks, and may be infeasible.  ``hyper`` without a witness needs
      it for T and M and the relaxed H; ``abhs``/``abhs-plus`` for their
      blocks and because their iteration counts depend on OLL's saved
      phases, which they scatter themselves before each candidate.
    """

    def __init__(self, weights, num_base_vars: int | None = None):
        self.weights = tuple(map(_weight, weights))
        self.opt = self.r_vars = None
        if num_base_vars is None:
            self._sets = []  # (mask, members by (weight, index))
            self._lower = 0  # the last optimum's cost
            return
        # imported here: a witnessed hyper run never loads the OLL engine
        from .maxsat import CostMinimizer

        self.r_vars = tuple(num_base_vars + 1 + i
                            for i in range(len(self.weights)))
        self.opt = CostMinimizer()
        self.opt.solver.extend_vars(num_base_vars + len(self.weights))
        for r, w in zip(self.r_vars, self.weights):
            self.opt.add_soft(-r, w)

    def _members(self, indices, what):
        members = sorted(indices)
        if not members:
            raise ValueError("empty " + what)
        if members[0] < 0 or members[-1] >= len(self.weights):
            raise ValueError("%s %r: indices must be in range(%d)"
                             % (what, members, len(self.weights)))
        return members

    def add_background(self, clause) -> None:
        """Add a hard background clause (may mention base and r variables)."""
        if self.opt is None:
            raise ValueError("a pure hitting-set context has no background")
        self.opt.solver.add_clause(clause)

    def hs_add_set(self, indices) -> None:
        """Require every future candidate to intersect ``indices``."""
        members = self._members(indices, "set to hit")
        if self.opt is not None:
            self.opt.solver.add_clause([self.r_vars[i] for i in members])
            return
        w = self.weights
        members.sort(key=lambda i: (w[i], i))
        self._sets.append((sum(1 << i for i in set(members)), tuple(members)))

    def hs_add_block(self, indices) -> None:
        """Exclude ``indices`` and its supersets from candidates (OLL only)."""
        if self.opt is None:
            raise ValueError("a pure hitting-set context has no blocks")
        members = self._members(indices, "block")
        self.opt.solver.add_clause([-self.r_vars[i] for i in members])

    def hs_next_candidate(self):
        """Minimum-cost candidate as (index set, cost), or None if
        infeasible, which only the OLL backend can be."""
        if self.opt is None:
            mask, self._lower = self._branch_and_bound(self._lower)
            return frozenset(i for i in range(len(self.weights))
                             if mask >> i & 1), self._lower
        out = self.opt.compute()
        if out is None:
            return None
        model, cost = out
        picked = frozenset(i for i, r in enumerate(self.r_vars) if model[r])
        return picked, cost

    def _branch_and_bound(self, lower):
        """Minimum-cost (mask, cost) hitting every set; ``lower`` is the
        previous optimum's cost.

        Sets are only ever added, so the optimum never decreases and
        ``lower`` bounds it from below.  Every set is non-empty and lies
        in ``range(m)``, so picking every index hits them all and a
        candidate always exists.  The depth-first search starts from the
        empty pick.  A node whose unhit sets include some with a single
        allowed member has one child, which picks all those members at
        once; any other node branches on the unhit set with the fewest
        allowed members, tries them cheapest first and excludes each
        tried member from its later siblings.  A node is pruned when its
        cost plus a packing of disjoint unhit sets, each at its cheapest
        allowed member, reaches the best cost found.  It stops as soon as
        a candidate reaches ``lower``.
        """
        w = self.weights
        best, best_cost = None, math.inf
        stack = [(0, 0, -1, self._sets)]
        while stack:
            pick, cost, allowed, unhit = stack.pop()
            unhit = [s for s in unhit if not s[0] & pick]
            bound, branch, forced, forced_cost = _packing(w, unhit, allowed)
            if cost + bound >= best_cost:
                continue
            if not unhit:
                best, best_cost = (pick, cost), cost
                if cost <= lower:
                    break
                continue
            if forced:
                stack.append((pick | forced, cost + forced_cost, allowed,
                              unhit))
                continue
            children = []
            for i in branch:
                bit = 1 << i
                if not allowed & bit:
                    continue
                children.append((pick | bit, cost + w[i], allowed, unhit))
                allowed &= ~bit
            stack.extend(reversed(children))
        return best


def _packing(weights, sets, allowed):
    """(bound, members of the branching set, forced mask, its cost) for a
    search node whose unhit sets are ``sets`` and whose allowed members
    are ``allowed``.

    The bound sums the cheapest allowed member of each set in a greedy
    packing of sets with pairwise disjoint allowed members; the
    branching set is the one with the fewest allowed members, and the
    forced mask holds the only allowed member of each set that has one.
    Every set keeps an allowed member: the root allows all, a forced
    child keeps its parent's, and a child of a branching set S excludes
    only the members of S tried before it, fewer than the allowed
    members of any set at its parent.
    """
    bound, used, branch, fewest = 0, 0, (), math.inf
    forced, forced_cost = 0, 0
    for mask, members in sets:
        free = mask & allowed
        count = free.bit_count()
        if count < fewest:
            branch, fewest = members, count
        if count == 1 and not free & forced:
            forced |= free
            forced_cost += weights[free.bit_length() - 1]
        if not free & used:
            used |= free
            bound += weights[next(i for i in members if free >> i & 1)]
    return bound, branch, forced, forced_cost


def enumerate_mcs(solver: Solver, selectors, clauses, limit: int):
    """Up to ``limit`` minimal correction subsets, in the order found.

    ``solver`` holds the hard part plus one implication s_i -> C_i per
    soft clause, with ``selectors[i]`` = s_i and ``clauses[i]`` = C_i;
    an MCS is a frozenset of soft indices.  Each MCS is computed by CLD
    (Marques-Silva et al., IJCAI 2013) with plain SAT calls and no new
    variable: starting from a model, U holds the falsified soft indices;
    the clause D = (OR of s_i, i in U) is added for good, and the solver
    is asked for a model under the selectors of the satisfied indices.
    A model moves every index it satisfies out of U; unsatisfiability
    makes U an MCS, and the last D added is its block.  Within a round
    U only shrinks, so that block implies every D the round added.

    Returns the empty list when the hard part plus all soft clauses is
    satisfiable; that is decided in the first round, whose D clauses
    then stay unimplied.  Returns None when the hard part alone is
    unsatisfiable.  ``limit`` must be at least 1 (``ValueError``
    otherwise, before any SAT call), since an empty list already means
    that no correction is needed.
    """
    _count(limit, "limit", 1)
    res = solver.solve()
    if not res.satisfiable:
        return None
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
            solver.add_clause([selectors[i] for i in falsified])
            res = solver.solve([selectors[i] for i in satisfied])
            if not res.satisfiable:
                break
        found.append(frozenset(falsified))
        res = solver.solve()
        if not res.satisfiable:
            break  # all MCSes enumerated
    return found


class CorrectionSetReducer:
    """Counterexample reduction by recursive model rotation, with no SAT
    call.

    Built once per run from the clauses of the theory T, the hypotheses
    H and the manifestations M, with one occurrence list per literal
    over T and H and one over M.  A model of T and not-M stays one as
    long as every clause of T holds and some clause of M is falsified;
    :meth:`reduce` flips variables of such a model under exactly that
    invariant, and follows a flip that breaks one clause into that
    clause (Marques-Silva & Lynce, SAT 2011; Belov & Marques-Silva,
    FMCAD 2011).
    """

    def __init__(self, theory, hypotheses, manifestations, weights):
        self.clauses = [tuple(c) for c in (*theory, *hypotheses)]
        self.first_hyp = len(theory)
        self.manifestations = [tuple(c) for c in manifestations]
        self.weights = tuple(weights)
        self.occurs = _occurrences(self.clauses)
        self.goal_occurs = _occurrences(self.manifestations)

    def reduce(self, model, falsified, fraction):
        """Shrink the set of hypotheses ``model`` falsifies by rotation.

        ``model`` (bool per variable, index 0 unused; not modified)
        satisfies T and falsifies M, and ``falsified`` is the set of
        hypotheses it falsifies.  Walks the first ceil(fraction * m) of
        them in ascending (weight, index) order, and walks them again
        until a pass keeps no flip.  Each one still falsified is
        rotated as :meth:`_rotate` says.  Returns the hypotheses the
        rotated model falsifies: a subset of ``falsified`` whose
        complement is consistent with T and not-M.
        """
        falsified = set(falsified)
        if fraction <= 0 or not falsified:
            return falsified
        budget = math.ceil(fraction * len(falsified))
        order = sorted(falsified, key=lambda i: (self.weights[i], i))[:budget]
        value = list(model)
        goals = {j for j, c in enumerate(self.manifestations)
                 if not clause_satisfied(c, value)}
        kept = True
        while kept:  # each kept rotation satisfies one more hypothesis
            kept = False
            for i in order:
                if i in falsified and self._rotate(i, value, falsified, goals):
                    kept = True
        return falsified

    def _rotate(self, i, value, falsified, goals):
        """Satisfy hypothesis i by a chain of flips in ``value``, or leave
        ``value`` as it was; returns whether a chain was kept.

        A flip makes a literal of the entered clause true.  It is kept
        when it breaks no kept clause (one of T, hypothesis i, or a
        hypothesis not in ``falsified``) and some clause of M stays
        falsified.  When it breaks exactly one kept clause, not entered
        before, the search enters that clause and tries its literals in
        turn; otherwise the flip is undone.  Each clause is entered at
        most once, so the depth-first search, on an explicit stack, ends
        after at most one frame per clause.  ``falsified`` and ``goals``
        (the indices of the falsified clauses of M) follow a kept chain.
        """
        clauses, occurs = self.clauses, self.occurs
        first_hyp = self.first_hyp
        home = first_hyp + i
        entered = {home}
        path = []  # path[j]: the flip that entered frames[j + 1]
        frames = [iter(clauses[home])]
        while frames:
            lit = next(frames[-1], 0)
            if not lit:
                frames.pop()
                if path:
                    self._flip(-path.pop(), value, goals)
                continue
            value[abs(lit)] = lit > 0
            broken = []
            for k in occurs.get(-lit, ()):
                if ((k < first_hyp or k == home
                     or k - first_hyp not in falsified)
                        and not clause_satisfied(clauses[k], value)):
                    broken.append(k)
                    if len(broken) > 1:
                        break
            if len(broken) > 1 or broken and broken[0] in entered:
                value[abs(lit)] = lit < 0
                continue
            self._flip(lit, value, goals)
            if broken:
                entered.add(broken[0])
                path.append(lit)
                frames.append(iter(clauses[broken[0]]))
            elif goals:
                path.append(lit)
                for l in path:
                    for k in occurs.get(l, ()):
                        if (k - first_hyp in falsified
                                and clause_satisfied(clauses[k], value)):
                            falsified.discard(k - first_hyp)
                return True
            else:
                self._flip(-lit, value, goals)
        return False

    def _flip(self, lit, value, goals):
        """Make ``lit`` true in ``value``, keeping ``goals`` the indices of
        the falsified clauses of M."""
        value[abs(lit)] = lit > 0
        goals.difference_update(self.goal_occurs.get(lit, ()))
        for j in self.goal_occurs.get(-lit, ()):
            if not clause_satisfied(self.manifestations[j], value):
                goals.add(j)


def _occurrences(clauses):
    """Map each literal to the indices of the clauses holding it."""
    occurs = {}
    for k, c in enumerate(clauses):
        for l in set(c):
            occurs.setdefault(l, []).append(k)
    return occurs
