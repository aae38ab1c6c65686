"""Benchmark inputs, built from a seed without any code of `abduce`.

An instance is a dict with its APF text plus what the checks need to
know about it: the hypothesis weights, the planted subset and its cost
(planted instances) or the analytic answer (families).  The same seed
always gives the same texts, so the inputs never change with the code
under test.
"""

from __future__ import annotations

import random


def apf_text(num_vars, theory, hypotheses, manifestations):
    lines = ["p abd %d" % num_vars]
    lines += ["t %s 0" % " ".join(map(str, c)) for c in theory]
    lines += ["h %d %s 0" % (w, " ".join(map(str, c))) for c, w in hypotheses]
    lines += ["m %s 0" % " ".join(map(str, c)) for c in manifestations]
    return "\n".join(lines) + "\n"


def _clause_true_under(rng, hidden, variables, length):
    """A random clause over distinct variables that the hidden model satisfies."""
    while True:
        vs = rng.sample(variables, length)
        lits = [v if rng.random() < 0.5 else -v for v in vs]
        if any((l > 0) == hidden[abs(l)] for l in lits):
            return sorted(lits, key=abs)


def planted(instance_id, num_vars, num_hyps, ratio=4.2, num_manifest=3,
            max_weight=9):
    """Weighted planted 3-CNF abduction instance number ``instance_id``.

    A hidden model satisfies the random 3-CNF part of T and every
    hypothesis (2-3 literals, weights 2..max_weight).  Each
    manifestation m_j is a fresh variable tied to two planted
    hypotheses C_a, C_b by the 3-literal clauses (-x | -u | m_j) for x
    in C_a and u in C_b, so T and C_a and C_b entail m_j.  The planted
    subset (all the C_a, C_b) is therefore an explanation, and its cost
    is an upper bound on the optimum.
    """
    rng = random.Random("planted:%d:%d:%s:%d:%d:%d" % (
        instance_id, num_vars, ratio, num_hyps, num_manifest, max_weight))
    base = num_vars - num_manifest
    hidden = [False] + [rng.random() < 0.5 for _ in range(num_vars)]
    variables = list(range(1, base + 1))
    theory = [_clause_true_under(rng, hidden, variables, 3)
              for _ in range(round(ratio * base))]
    hyps = [(_clause_true_under(rng, hidden, variables, rng.choice((2, 3))),
             rng.randint(2, max_weight)) for _ in range(num_hyps)]
    chosen = rng.sample(range(num_hyps), 2 * num_manifest)
    manifest = []
    for j in range(num_manifest):
        m = base + 1 + j
        lit = m if hidden[m] else -m
        a, b = hyps[chosen[2 * j]][0], hyps[chosen[2 * j + 1]][0]
        theory += [sorted({-x, -u, lit}, key=abs) for x in a for u in b
                   if x != -u]
        manifest.append([lit])
    rng.shuffle(theory)
    planted_set = sorted(set(chosen))
    return {
        "name": "planted-v%d-h%d-%d" % (num_vars, num_hyps, instance_id),
        "text": apf_text(num_vars, theory, hyps, manifest),
        "weights": [w for _, w in hyps],
        "planted": planted_set,
        "planted_cost": sum(hyps[i][1] for i in planted_set),
    }


def family(kind, n):
    """Analytic family ``kind`` (1 or 2) of size n, numbered as in the paper.

    Family 1 (4n unit-weight hypotheses) has no explanation: entailing
    every m_i needs every t_i, which the theory clause
    (-t_1 | ... | -t_n) forbids.  Family 2 (2n unit-weight hypotheses)
    has exactly one explanation, all of H, at cost 2n.
    """
    if kind == 1:
        t, x, y, m = (lambda i, k=k: k * n + i for k in range(4))
        num_vars = 4 * n
        hyps = []
        for i in range(1, n + 1):
            hyps += [([-x(i)], 1), ([x(i), t(i)], 1),
                     ([-y(i)], 1), ([y(i), t(i)], 1)]
        theory = [[-t(i) for i in range(1, n + 1)]]
        theory += [[-t(i), m(i)] for i in range(1, n + 1)]
        manifest = [[m(i)] for i in range(1, n + 1)]
        answer = None
    elif kind == 2:
        t, x = (lambda i: 1 + i), (lambda i: 1 + n + i)
        num_vars = 1 + 2 * n
        hyps = []
        for i in range(1, n + 1):
            hyps += [([1, -x(i)], 1), ([1, x(i), t(i)], 1)]
        theory = [[-t(i) for i in range(1, n + 1)]]
        manifest = [[1]]
        answer = list(range(2 * n))
    else:
        raise ValueError("unknown family %r" % kind)
    return {
        "name": "family%d-n%d" % (kind, n),
        "text": apf_text(num_vars, theory, hyps, manifest),
        "weights": [w for _, w in hyps],
        "answer": answer,
    }
