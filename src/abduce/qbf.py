"""Quantified formulas for abduction and their text encodings.

Explanation checking becomes a 2QBF: exists X [T and S] and for all Y
not [T and S and not-M], with Y a disjoint renaming of the instance
variables.  Adding relaxation variables turns the same shape into the
hard part of a quantified MaxSAT problem, and bolting a pseudo-Boolean
bound on the relaxation variables gives a cost-k decision QBF.

Variable numbering is fixed: X is 1..n, Y is n+1..2n, relaxation
variables follow, auxiliaries come last.  The inner part is the
existential part with X renamed to Y; relaxation and auxiliary
variables keep their numbers there.  Output formats are QCIR
(structured, no clausification) and QDIMACS, whose negated universal
part is clausified by :func:`formula.encode_negation`, with its
selectors as fresh innermost existentials.
"""

from __future__ import annotations

import itertools

from .formula import (Cnf, Pap, Value, _clauses, _count, _literal, _weight,
                      encode_negation)
from .maxsat import totalizer


class QbfFormula(Value, frozen=True):
    """Prenex 2QBF of the form  Q... [ /\\ exists_clauses  and  not inner ].

    ``inner`` is the conjunction of ``inner_clauses`` with the negation
    of the ``inner_neg`` conjunction appended.  All clause groups are
    CNF clause lists, each clause checked as ``Cnf``'s are; the prefix
    is a sequence of ("e" | "a", block), each variable in 1..num_vars
    and bound once.
    """

    __slots__ = ("prefix", "exists_clauses", "inner_clauses", "inner_neg",
                 "num_vars")

    def __init__(self, prefix, exists_clauses, inner_clauses, inner_neg,
                 num_vars: int):
        super().__init__(
            tuple((q, tuple(b)) for q, b in prefix),
            _clauses("exists clause", exists_clauses, num_vars),
            _clauses("inner clause", inner_clauses, num_vars),
            _clauses("inner_neg clause", inner_neg, num_vars),
            num_vars)
        seen = set()
        for q, block in self.prefix:
            if q not in ("e", "a"):
                raise ValueError("bad quantifier %r" % (q,))
            for v in block:
                if type(v) is not int or not 0 < v <= num_vars:
                    raise ValueError("bound variable %r is not in 1..%d"
                                     % (v, num_vars))
                if v in seen:
                    raise ValueError("variable %d bound twice" % v)
                seen.add(v)


def _rename(clause, n):
    """``clause`` with X = 1..n moved to Y = n+1..2n; other variables stay."""
    return tuple(l + n if 0 < l <= n else l - n if -n <= l < 0 else l
                 for l in clause)


def _two_copies(p: Pap, exists, inner, outer=()) -> QbfFormula:
    """exists outer, X forall Y [exists and not (inner and M)], with
    ``inner`` and M renamed to Y; ``outer`` numbers 2n+1 onward."""
    n = p.num_vars
    prefix = (("e", outer),) if outer else ()
    prefix += (("e", range(1, n + 1)), ("a", range(n + 1, 2 * n + 1)))
    return QbfFormula(prefix, exists, [_rename(c, n) for c in inner],
                      [_rename(c, n) for c in p.manifestations],
                      2 * n + len(outer))


def emit_explanation_qbf(p: Pap, s) -> QbfFormula:
    """2QBF that is true iff the hypothesis subset ``s`` explains ``p``."""
    exists = p.theory + p.subset(s)
    return _two_copies(p, exists, exists)


def emit_qmaxsat_qbf(p: Pap):
    """Hard 2QBF over R, X, Y plus the soft relaxation literals.

    Returns (QbfFormula, soft) where soft lists (-r_i, weight).  The
    relaxed clauses are (not r_i or C_i), so r_i true selects C_i and
    fixing any R-assignment leaves the explanation check for the
    decoded subset.
    """
    r_vars, relaxed = p.relaxed(2 * p.num_vars + 1)
    exists = p.theory + relaxed
    soft = tuple((-r, w) for r, w in zip(r_vars, p.weights))
    return _two_copies(p, exists, exists, r_vars), soft


def encode_pb(r_weights, k: int, first_fresh: int) -> Cnf:
    """CNF forcing sum(weight * [lit true]) <= k, auxiliaries from first_fresh.

    Models project onto the input literals exactly as the assignments
    respecting the bound.  Unit weights use :func:`maxsat.totalizer`
    truncated at k+1 outputs; general weights use a sequential weighted
    counter.
    """
    _count(k, "bound")
    r_weights = [(_literal(l), _weight(w)) for l, w in r_weights]
    clauses = []
    # literals too heavy to ever be true (covers all of them when k=0)
    counted = []
    for l, w in r_weights:
        if w > k:
            clauses.append((-l,))
        else:
            counted.append((l, w))
    top = max((abs(l) for l, _ in r_weights), default=0)
    nv = max(top, first_fresh - 1)
    if not counted or sum(w for _, w in counted) <= k:
        return Cnf(nv, tuple(clauses))

    if all(w == 1 for _, w in counted):
        # a clause of a literal and its complement, both counted, holds
        # under every assignment: dropping it keeps exactly the models
        def emit(clause):
            if not any(-l in clause for l in clause):
                clauses.append(clause)
        fresh = itertools.count(nv + 1)
        outs = totalizer([l for l, _ in counted], fresh.__next__, emit,
                         cap=k + 1)
        clauses.append((-outs[k],))
        nv = next(fresh) - 1
        return Cnf(nv, tuple(clauses))

    # sequential weighted counter: s[i][j] true when the weighted sum of
    # the first i+1 literals is >= j (one direction only).  Every counted
    # weight is <= k, and at least two literals are counted.
    s_prev = None
    for l, w in counted[:-1]:
        row = {}
        for j in range(1, k + 1):
            row[j] = nv = nv + 1
        for j in range(1, w + 1):
            clauses.append((-l, row[j]))
        if s_prev is not None:
            for j in range(1, k + 1):
                clauses.append((-s_prev[j], row[j]))
                if j + w <= k:
                    clauses.append((-l, -s_prev[j], row[j + w]))
            clauses.append((-l, -s_prev[k + 1 - w]))
        s_prev = row
    # the last literal only needs its overflow clause
    l, w = counted[-1]
    clauses.append((-l, -s_prev[k + 1 - w]))
    return Cnf(nv, tuple(clauses))


def emit_decision_qbf(p: Pap, k: int) -> QbfFormula:
    """QBF that is true iff ``p`` has an explanation of cost at most k."""
    r_vars, relaxed = p.relaxed(2 * p.num_vars + 1)
    top = 2 * p.num_vars + len(r_vars)
    pb = encode_pb(zip(r_vars, p.weights), k, first_fresh=top + 1)
    hard = p.theory + relaxed
    return _two_copies(p, hard + pb.clauses, hard,
                       r_vars + tuple(range(top + 1, pb.num_vars + 1)))


def write_qcir(q: QbfFormula) -> str:
    """Cleansed QCIR text; the structured matrix is emitted gate by gate."""
    lines = ["#QCIR-G14"]
    for quant, block in q.prefix:
        if block:
            name = "exists" if quant == "e" else "forall"
            lines.append("%s(%s)" % (name, ", ".join(str(v) for v in block)))
    gid = q.num_vars
    gates = []

    def gate(kind, args):
        nonlocal gid
        gid += 1
        gates.append("%d = %s(%s)" % (gid, kind,
                                      ", ".join(str(a) for a in args)))
        return gid

    top_args = [gate("or", c) for c in q.exists_clauses]
    inner_args = [gate("or", c) for c in q.inner_clauses]
    neg_gate = gate("and", [gate("or", c) for c in q.inner_neg])
    inner_args.append(-neg_gate)
    inner_gate = gate("and", inner_args)
    out = gate("and", top_args + [-inner_gate])
    lines.append("output(%d)" % out)
    lines.extend(gates)
    return "\n".join(lines) + "\n"


def write_qdimacs(q: QbfFormula) -> str:
    """QDIMACS text; clausifying not-inner adds one innermost e-block.

    :func:`formula.encode_negation` gives each inner clause a selector
    meaning "this clause is falsified"; inner_neg gets one more selector
    guarding its clauses, and the disjunction of all the selectors
    replaces the negated conjunction.
    """
    neg = encode_negation(q.inner_clauses, q.num_vars + 1)
    guard = q.num_vars + len(q.inner_clauses) + 1
    clauses = (list(q.exists_clauses) + neg[1:]
               + [(-guard,) + c for c in q.inner_neg] + [neg[0] + (guard,)])

    # merge adjacent equal quantifiers, the selectors innermost
    blocks = []
    for quant, block in q.prefix + (("e", range(q.num_vars + 1, guard + 1)),):
        if not block:
            continue
        if blocks and blocks[-1][0] == quant:
            blocks[-1] = (quant, blocks[-1][1] + tuple(block))
        else:
            blocks.append((quant, tuple(block)))

    lines = ["p cnf %d %d" % (guard, len(clauses))]
    for quant, block in blocks:
        lines.append("%s %s 0" % (quant, " ".join(str(v) for v in block)))
    for c in clauses:
        lines.append(" ".join(str(l) for l in c) + " 0")
    return "\n".join(lines) + "\n"
