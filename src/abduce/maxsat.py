"""Core-guided weighted MaxSAT on top of the CDCL engine.

The optimizer follows the OLL scheme with soft cardinality constraints:
soft literals are passed as assumptions, each unsatisfiable core pays
its minimum weight into a lower bound and is relaxed with a totalizer
whose outputs become new (lazily extended) soft literals.  Weighted
cores are handled by weight splitting.  The engine is incremental:
hard clauses may be added between ``compute`` calls, and the search
resumes from the reformulated state (the optimum can only grow).

:func:`totalizer` is the one totalizer construction in the package: it
emits its clauses to any sink, optionally truncated to ``cap`` outputs.
:class:`Totalizer` feeds it to the optimizer's solver in full, and
``qbf.encode_pb`` writes it, capped at k+1, into a cardinality bound.
:func:`solve_wcnf` is the one-shot MaxSAT entry point.
"""

from __future__ import annotations

from .formula import Cnf, Value
from .sat import Solver


class MaxSatResult(Value):
    __slots__ = ("hard_unsat", "model", "cost")

    def __init__(self, hard_unsat: bool, model: list | None = None,
                 cost: int | None = None):
        # cost: the exact sum of weights of falsified soft literals
        super().__init__(hard_unsat, model, cost)


def totalizer(lits, new_var, emit, cap=None):
    """Emit a totalizer over ``lits``; returns its output literals.

    Only the input-to-output direction is encoded: output j (0-based)
    is forced true whenever at least j+1 inputs are true, so assuming
    its negation bounds the count from above.  With ``cap`` every node
    keeps at most ``cap`` outputs, which still counts exactly up to
    ``cap``.  ``new_var()`` returns a fresh variable and ``emit(clause)``
    receives each clause (a list), bottom-up, left subtree first.
    """

    def build(part):
        if len(part) == 1:
            return [part[0]]
        half = len(part) // 2
        left = build(part[:half])
        right = build(part[half:])
        width = len(left) + len(right)
        if cap is not None:
            width = min(width, cap)
        outs = [new_var() for _ in range(width)]
        for i in range(len(left) + 1):
            for j in range(len(right) + 1):
                if not 0 < i + j <= width:
                    continue
                clause = []
                if i > 0:
                    clause.append(-left[i - 1])
                if j > 0:
                    clause.append(-right[j - 1])
                clause.append(outs[i + j - 1])
                emit(clause)
        return outs

    return build(list(lits))


class Totalizer:
    """Full :func:`totalizer` over ``inputs``, emitted into ``solver``."""

    def __init__(self, solver: Solver, inputs):
        # outs[j] is true when at least j+1 inputs are true
        self.outs = totalizer(inputs, solver.new_var, solver.add_clause)


class CostMinimizer:
    """Incremental OLL optimizer over one owned SAT solver."""

    def __init__(self):
        self.solver = Solver()
        self.softs: dict[int, int] = {}  # soft literal -> remaining weight
        self.lower_bound = 0
        # soft literal -> (totalizer, output index, creation weight)
        self._sums: dict[int, tuple[Totalizer, int, int]] = {}
        self.cores_found = 0
        # always 0, since cores are relaxed as found; perfbench reads it
        self.trim_solves = 0

    def add_hard(self, clause):
        self.solver.add_clause(clause)

    def add_soft(self, lit, weight):
        if weight < 1:
            raise ValueError("soft weight must be >= 1")
        if abs(lit) > self.solver.num_vars:
            self.solver.extend_vars(abs(lit))
        self.softs[lit] = self.softs.get(lit, 0) + weight

    def _extend_sum(self, lit):
        # `lit` was an exhausted totalizer output: expose the next bound.
        entry = self._sums.pop(lit, None)
        if entry is None:
            return
        tot, idx, weight = entry
        if idx + 1 < len(tot.outs):
            nxt = -tot.outs[idx + 1]
            self.softs[nxt] = self.softs.get(nxt, 0) + weight
            self._sums[nxt] = (tot, idx + 1, weight)

    def compute(self):
        """Advance to the current optimum; returns (model, cost) or None."""
        while True:
            res = self.solver.solve(sorted(self.softs))
            if res.satisfiable:
                return res.model, self.lower_bound
            core = res.core
            if not core:  # hard part unsatisfiable: so is every later call
                return None
            self.cores_found += 1
            w = min(self.softs[l] for l in core)
            self.lower_bound += w
            inputs = []
            for l in sorted(core):
                self.softs[l] -= w
                if self.softs[l] == 0:
                    del self.softs[l]
                    self._extend_sum(l)
                inputs.append(-l)
            if len(inputs) > 1:
                tot = Totalizer(self.solver, inputs)
                out = -tot.outs[1]  # penalize a second falsified member
                self.softs[out] = self.softs.get(out, 0) + w
                self._sums[out] = (tot, 1, w)


def solve_wcnf(hard: Cnf, soft) -> MaxSatResult:
    """Minimize the weight of falsified soft clauses (not just literals).

    Unit soft clauses become soft literals directly; longer ones are
    relaxed with a fresh selector implied by the clause's falsity.
    """
    opt = CostMinimizer()
    opt.solver.extend_vars(hard.num_vars)
    for c in hard.clauses:
        opt.add_hard(c)
    for clause, w in soft:
        clause = tuple(clause)
        if len(clause) == 1:
            opt.add_soft(clause[0], w)
        else:
            s = opt.solver.new_var()
            opt.add_hard((-s,) + clause)
            opt.add_soft(s, w)
    out = opt.compute()
    if out is None:
        return MaxSatResult(hard_unsat=True)
    model, cost = out
    return MaxSatResult(hard_unsat=False, model=model, cost=cost)
