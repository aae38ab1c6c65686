"""Incremental, assumption-based CDCL SAT solver.

Conflict-driven clause learning with two-watched-literal propagation,
activity-based branching, phase saving, Luby restarts and learned-clause
reduction.  Assumptions are handled MiniSat-style: they occupy the first
decision levels, and when one is found falsified the implication graph
is walked backwards to extract an unsatisfiable core (a subset of the
assumption literals).

The clause database only grows; clauses may be added between solve
calls and all subsequent queries see them.

Invariants the hot paths rely on:

- Watch slots.  Every stored clause of two or more literals sits in
  exactly the watch lists of its first two literals, ``c[0]`` and
  ``c[1]``.  While the watches of a false literal ``-p`` are visited, a
  clause that keeps watching ``-p`` holds it in slot 1 and a clause that
  moves to a new watch holds ``-p`` in neither slot, so the surviving
  list is recovered by a filter on the slots, in its old order, and is
  only rebuilt when some clause moved.  The new watch is the first
  literal from slot 2 on, in clause order, that is not false; the scan
  walks the clause by index and copies nothing.  A clause that is the
  reason of an assigned variable holds that variable's literal in slot
  0, which propagation never moves.
- Analysis flags.  ``seen`` marks variables during conflict analysis;
  it holds one flag per variable and every flag is clear between calls
  of ``_analyze``.  A resolved variable stays marked while its reason is
  walked, so the reason's ``c[0]`` is skipped without a slice.
- Branching order.  ``order`` is a lazy heap of ``(-activity, var)``
  entries, some of them stale.  ``queued[v]`` is set only while the heap
  holds an entry for ``v`` at its current activity.  A bump, always of
  an assigned variable, makes its entry stale and clears the flag;
  a decision's pop clears it too; a backjump pushes each variable it
  unassigns whose flag is clear; a rescale rebuilds heap and flags.  So
  every unassigned variable has an up-to-date entry, and a decision is
  the unassigned variable of highest activity, the lowest index among
  equals.
- Determinism.  A sequence of calls fixes the whole trajectory: the
  decisions, the propagation order, the literal order in every clause,
  the learned clauses, every result and the three counters
  ``num_conflicts``, ``num_decisions`` and ``num_propagations``.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .formula import Value, _count, _literal


class SatResult(Value):
    """Outcome of a query: a total model, or a core over the assumptions."""

    __slots__ = ("satisfiable", "model", "core")

    def __init__(self, satisfiable: bool, model: list | None = None,
                 core: frozenset | None = None):
        # model: bool per variable, index 0 unused
        # core: subset of the passed assumption literals
        super().__init__(satisfiable, model, core)


def _luby(x):
    # Luby sequence (1, 1, 2, 1, 1, 2, 4, ...), 0-based index.
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) // 2
        seq -= 1
        x = x % size
    return 1 << seq


class Solver:
    """A single-instance CDCL engine; distinct instances are independent.

    Identical call sequences give identical results.
    """

    def __init__(self, num_vars: int = 0):
        self.ok = True
        self.num_vars = 0
        self.val = [0]  # 0 unassigned, 1 true, -1 false (per variable)
        self.level = [0]
        self.reason = [None]
        self.phase = [False]
        self.activity = [0.0]
        self.queued = [False]  # heap holds an entry at current activity
        self.seen = [False]  # conflict analysis marks; all clear between calls
        self.watches = {}
        self.clauses = []  # problem clauses
        self.learnts = []
        self.trail = []
        self.trail_lim = []
        self.qhead = 0
        self.var_inc = 1.0
        self.order = []  # lazy max-activity heap of (-activity, var)
        self.max_learnts = 1000
        self.num_conflicts = 0
        self.num_decisions = 0
        self.num_propagations = 0
        self.extend_vars(num_vars)

    # -- variables ----------------------------------------------------------

    def extend_vars(self, n):
        """Declare variables up to ``n`` (an int >= 0); fewer is a no-op."""
        _count(n, "variable count")
        while self.num_vars < n:
            self.num_vars += 1
            v = self.num_vars
            self.val.append(0)
            self.level.append(0)
            self.reason.append(None)
            self.phase.append(False)
            self.activity.append(0.0)
            self.queued.append(True)
            self.seen.append(False)
            self.watches[v] = []
            self.watches[-v] = []
            heappush(self.order, (0.0, v))

    def new_var(self) -> int:
        self.extend_vars(self.num_vars + 1)
        return self.num_vars

    def set_preference(self, v, activity, phase):
        """Give variable v a branching activity and a saved phase."""
        old = self.activity[v]
        self.activity[v] = activity
        self.phase[v] = phase
        if activity >= old:
            heappush(self.order, (-activity, v))
            self.queued[v] = True
        else:
            self._rebuild_order()  # a lowered entry cannot be pushed lazily

    def _rebuild_order(self):
        val, activity = self.val, self.activity
        self.order[:] = [(-activity[u], u) for u in range(1, self.num_vars + 1)
                         if val[u] == 0]
        heapify(self.order)
        self.queued[:] = [x == 0 for x in val]

    # -- clause addition ----------------------------------------------------

    def add_clause(self, lits) -> None:
        """Add a clause; out-of-range variables extend the variable count.
        Every literal is checked first: a refused clause changes nothing."""
        self._backjump(0)
        val = self.val  # every assigned variable is now at level 0
        n = top = self.num_vars
        satisfied = False
        seen = set()
        clause = []
        for l in map(_literal, lits):
            if l in seen:
                continue
            if -l in seen:
                satisfied = True  # tautology
            seen.add(l)
            v = l if l > 0 else -l
            if v > n:
                top = max(top, v)
            elif val[v]:
                if (val[v] == 1) == (l > 0):
                    satisfied = True  # at root
                continue  # falsified at root: drop literal
            clause.append(l)
        if top > n:
            self.extend_vars(top)
        if satisfied or not self.ok:
            return
        if not clause:
            self.ok = False
            return
        if len(clause) == 1:
            self._enqueue(clause[0], None)  # unassigned, as every kept literal
            return
        self.clauses.append(clause)
        self.watches[clause[0]].append(clause)
        self.watches[clause[1]].append(clause)

    # -- trail management ---------------------------------------------------

    def _enqueue(self, l, reason):
        v = abs(l)
        self.val[v] = 1 if l > 0 else -1
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(l)

    def _backjump(self, blevel):
        trail_lim = self.trail_lim
        if len(trail_lim) <= blevel:
            return
        trail, val, phase, reason = self.trail, self.val, self.phase, self.reason
        queued, activity, order = self.queued, self.activity, self.order
        bound = trail_lim[blevel]
        for l in trail[bound:]:
            if l > 0:
                v = l
                phase[v] = True
            else:
                v = -l
                phase[v] = False
            val[v] = 0
            reason[v] = None
            if not queued[v]:
                queued[v] = True
                heappush(order, (-activity[v], v))
        del trail[bound:]
        del trail_lim[blevel:]
        self.qhead = len(trail)

    # -- propagation --------------------------------------------------------

    def _propagate(self):
        """Propagate the trail from qhead; return a conflict clause or None."""
        trail, val, watches = self.trail, self.val, self.watches
        level, reason = self.level, self.reason
        lvl = len(self.trail_lim)
        start = qhead = self.qhead
        conflict = None
        while qhead < len(trail):
            p = trail[qhead]
            qhead += 1
            neg = -p
            ws = watches[neg]
            moved = False
            for c in ws:
                if c[0] == neg:
                    c[0] = first = c[1]
                    c[1] = neg
                else:
                    first = c[0]
                fv = val[first] if first > 0 else -val[-first]
                if fv == 1:
                    continue
                # k: the first slot past the watches holding a literal that is
                # not false, or n; a ternary clause has one slot to test
                n = len(c)
                k = 2
                if n == 3:
                    q = c[2]
                    if (val[q] if q > 0 else -val[-q]) == -1:
                        k = 3
                elif n > 3:
                    while k < n:
                        q = c[k]
                        if (val[q] if q > 0 else -val[-q]) != -1:
                            break
                        k += 1
                if k < n:
                    c[1] = q
                    c[k] = neg
                    watches[q].append(c)
                    moved = True
                    continue
                if fv == -1:
                    conflict = c
                    break
                if first > 0:
                    val[first] = 1
                    v = first
                else:
                    v = -first
                    val[v] = -1
                level[v] = lvl
                reason[v] = c
                trail.append(first)
            if conflict is not None:
                if moved:
                    # clauses past the conflict are unvisited: neg is in slot 0 or 1
                    watches[neg] = [d for d in ws if d[0] == neg or d[1] == neg]
                break
            if moved:
                watches[neg] = [d for d in ws if d[1] == neg]
        self.num_propagations += qhead - start
        self.qhead = qhead
        return conflict

    # -- conflict analysis --------------------------------------------------

    def _rescale(self):
        activity = self.activity
        for u in range(1, self.num_vars + 1):
            activity[u] *= 1e-100
        self.var_inc *= 1e-100
        self._rebuild_order()

    def _analyze(self, conflict):
        level, reason, trail = self.level, self.reason, self.trail
        activity, queued, seen = self.activity, self.queued, self.seen
        var_inc = self.var_inc
        learnt = [0]
        counter = 0
        v = 0  # the variable resolved on (none yet: seen[0] stays clear)
        idx = len(trail) - 1
        cur_level = len(self.trail_lim)
        c = conflict
        while True:
            # a reason's c[0] is v's own literal: v is still marked
            for q in c:
                u = q if q > 0 else -q
                if not seen[u] and level[u] > 0:
                    seen[u] = True
                    # u is assigned: its entry goes stale until it is unassigned
                    activity[u] += var_inc
                    queued[u] = False
                    if activity[u] > 1e100:
                        self._rescale()
                        var_inc = self.var_inc
                    if level[u] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            seen[v] = False
            while True:
                p = trail[idx]
                v = p if p > 0 else -p
                if seen[v]:
                    break
                idx -= 1
            c = reason[v]
            counter -= 1
            idx -= 1
            if counter == 0:
                break
        learnt[0] = -p

        # cheap local minimization: drop literals implied by the rest; the
        # marked variables are those of learnt, r[0]'s among them
        full = learnt
        if len(learnt) > 2:
            keep = [learnt[0]]
            for q in learnt[1:]:
                r = reason[q if q > 0 else -q]
                if r is None:
                    keep.append(q)
                    continue
                for x in r:
                    x = x if x > 0 else -x
                    if not seen[x] and level[x] > 0:
                        keep.append(q)
                        break
            learnt = keep
        for q in full:
            seen[q if q > 0 else -q] = False

        if len(learnt) == 1:
            return learnt, 0
        # pull the second-highest level literal into slot 1 (first maximum)
        mi, best = 1, -1
        for i in range(1, len(learnt)):
            q = learnt[i]
            lv = level[q if q > 0 else -q]
            if lv > best:
                mi, best = i, lv
        learnt[1], learnt[mi] = learnt[mi], learnt[1]
        return learnt, best

    def _analyze_final(self, p):
        """Assumptions implying the falsified assumption literal p."""
        core = {p}
        if not self.trail_lim:
            return frozenset(core)
        seen = {abs(p)}
        for i in range(len(self.trail) - 1, self.trail_lim[0] - 1, -1):
            l = self.trail[i]
            v = abs(l)
            if v not in seen:
                continue
            r = self.reason[v]
            if r is None:
                if self.level[v] > 0:
                    core.add(l)
            else:
                for q in r[1:]:
                    if self.level[abs(q)] > 0:
                        seen.add(abs(q))
            seen.discard(v)
        return frozenset(core)

    # -- learned clause management ------------------------------------------

    def _reduce_db(self):
        # right after _backjump(0), only level-0 trail variables have a reason
        locked = {id(self.reason[abs(l)]) for l in self.trail}
        self.learnts.sort(key=len)
        keep_n = len(self.learnts) // 2
        kept, dropped = [], []
        for i, c in enumerate(self.learnts):
            if i < keep_n or len(c) <= 2 or id(c) in locked:
                kept.append(c)
            else:
                dropped.append(id(c))
        if not dropped:
            return
        self.learnts = kept
        dropped = set(dropped)
        for l in self.watches:
            self.watches[l] = [c for c in self.watches[l] if id(c) not in dropped]

    # -- search -------------------------------------------------------------

    def solve(self, assumptions=()) -> SatResult:
        """Decide satisfiability of the clause database under assumptions."""
        assumptions = list(map(_literal, assumptions))
        self._backjump(0)
        if self.ok and self._propagate() is not None:
            self.ok = False
        if not self.ok:
            return SatResult(False, core=frozenset())
        for a in assumptions:
            if abs(a) > self.num_vars:
                self.extend_vars(abs(a))

        val, trail, trail_lim = self.val, self.trail, self.trail_lim
        level, phase, order = self.level, self.phase, self.order
        queued, num_vars = self.queued, self.num_vars
        restart_idx = 0
        conflicts_left = 100 * _luby(restart_idx)
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.num_conflicts += 1
                if not trail_lim:
                    self.ok = False
                    return SatResult(False, core=frozenset())
                learnt, blevel = self._analyze(conflict)
                self._backjump(blevel)
                if len(learnt) == 1:
                    # unset: backjump(0) undid the UIP's level, which is >= 1
                    self._enqueue(learnt[0], None)
                else:
                    self.learnts.append(learnt)
                    self.watches[learnt[0]].append(learnt)
                    self.watches[learnt[1]].append(learnt)
                    self._enqueue(learnt[0], learnt)
                self.var_inc /= 0.95
                conflicts_left -= 1
                if conflicts_left <= 0:
                    restart_idx += 1
                    conflicts_left = 100 * _luby(restart_idx)
                    self._backjump(0)
                    if len(self.learnts) > self.max_learnts:
                        self._reduce_db()
                        # int(1.2 * limit) alone would never grow a limit below 5
                        self.max_learnts = max(self.max_learnts + 1,
                                               int(self.max_learnts * 1.2))
                continue

            dl = len(trail_lim)
            if dl < len(assumptions):
                a = assumptions[dl]
                v = a if a > 0 else -a
                x = val[v] if a > 0 else -val[v]
                if x == 1:
                    trail_lim.append(len(trail))
                    continue
                if x == -1:
                    core = self._analyze_final(a)
                    self._backjump(0)
                    return SatResult(False, core=core)
                lit = a
            else:
                if len(trail) == num_vars:
                    model = [x == 1 for x in val]
                    self._backjump(0)
                    return SatResult(True, model=model)
                # the branching-order invariant: some entry is unassigned
                while True:
                    _, v = heappop(order)
                    queued[v] = False
                    if val[v] == 0:
                        break
                lit = v if phase[v] else -v
            self.num_decisions += 1
            trail_lim.append(len(trail))
            val[v] = 1 if lit > 0 else -1
            level[v] = dl + 1  # reason[v] is None while v is unassigned
            trail.append(lit)
