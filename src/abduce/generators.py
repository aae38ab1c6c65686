"""Instance generators: two analytic families plus seeded random instances.

Family 1 has no explanation for any n: entailing the manifestations
forces every t_i true, which contradicts the theory.  Family 2 is
solvable only by taking all of H.  Both exhibit exponential iteration
growth for the baseline hitting-set algorithms while the single-call
algorithm stays flat.

Variable numbering is fixed so emitted files are stable:
  family 1: t_i = i, x_i = n+i, y_i = 2n+i, m_i = 3n+i   (i = 1..n)
  family 2: m = 1, t_i = 1+i, x_i = 1+n+i
"""

from __future__ import annotations

import random

from .formula import Pap, Value, _count


def gen_family1(n: int) -> Pap:
    """4n unit-weight hypotheses, n manifestations; never has an explanation."""
    _count(n, "n", 1)
    t = lambda i: i
    x = lambda i: n + i
    y = lambda i: 2 * n + i
    m = lambda i: 3 * n + i
    hyps = []
    for i in range(1, n + 1):
        hyps.append(((-x(i),), 1))
        hyps.append(((x(i), t(i)), 1))
        hyps.append(((-y(i),), 1))
        hyps.append(((y(i), t(i)), 1))
    theory = [tuple(-t(i) for i in range(1, n + 1))]
    theory += [(-t(i), m(i)) for i in range(1, n + 1)]
    manifest = [(m(i),) for i in range(1, n + 1)]
    return Pap(4 * n, tuple(theory), tuple(hyps), tuple(manifest))


def gen_family2(n: int) -> Pap:
    """2n unit-weight hypotheses; the unique explanation is all of H (cost 2n)."""
    _count(n, "n", 1)
    mv = 1
    t = lambda i: 1 + i
    x = lambda i: 1 + n + i
    hyps = []
    for i in range(1, n + 1):
        hyps.append(((mv, -x(i)), 1))
        hyps.append(((mv, x(i), t(i)), 1))
    theory = [tuple(-t(i) for i in range(1, n + 1))]
    return Pap(1 + 2 * n, tuple(theory), tuple(hyps), ((mv,),))


class RandomGenParams(Value, frozen=True):
    __slots__ = ("num_vars", "num_theory_clauses", "num_hypotheses",
                 "num_manifestations", "max_clause_len", "max_weight", "seed")

    def __init__(self, num_vars, num_theory_clauses=0, num_hypotheses=0,
                 num_manifestations=0, max_clause_len=3, max_weight=1, seed=0):
        counts = (num_vars, num_theory_clauses, num_hypotheses,
                  num_manifestations, max_clause_len, max_weight)
        for name, n, least in zip(self.__slots__, counts, (0, 0, 0, 0, 1, 1)):
            _count(n, name, least)
        super().__init__(*counts, seed)


def gen_random(params: RandomGenParams) -> Pap:
    """Deterministic function of the seed; clauses are tautology-free."""
    rng = random.Random(params.seed)
    nv = params.num_vars

    def rand_clause():
        length = rng.randint(1, min(params.max_clause_len, nv))
        variables = rng.sample(range(1, nv + 1), length)
        return [v if rng.random() < 0.5 else -v for v in variables]

    total = (params.num_theory_clauses + params.num_hypotheses
             + params.num_manifestations)
    if total and nv == 0:
        raise ValueError("cannot generate clauses with 0 variables")
    theory = tuple(rand_clause() for _ in range(params.num_theory_clauses))
    hyps = tuple((rand_clause(), rng.randint(1, params.max_weight))
                 for _ in range(params.num_hypotheses))
    manifest = tuple(rand_clause() for _ in range(params.num_manifestations))
    return Pap(nv, theory, hyps, manifest)
