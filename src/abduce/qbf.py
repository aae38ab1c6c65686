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
(structured, no clausification) and QDIMACS (the universal part's
negation is clausified with fresh innermost existentials).
"""

from __future__ import annotations

import itertools

from .formula import Cnf, Pap, Value
from .maxsat import totalizer


class QbfFormula(Value, frozen=True):
    """Prenex 2QBF of the form  Q... [ /\\ exists_clauses  and  not inner ].

    ``inner`` is the conjunction of ``inner_clauses`` with the negation
    of the ``inner_neg`` conjunction appended (inner_neg None means the
    inner part has no negated conjunct at all).  All clause groups are
    CNF clause lists; the prefix is a sequence of ("e" | "a", block).
    """

    __slots__ = ("prefix", "exists_clauses", "inner_clauses", "inner_neg",
                 "num_vars")

    def __init__(self, prefix, exists_clauses, inner_clauses, inner_neg,
                 num_vars: int):
        super().__init__(
            tuple((q, tuple(b)) for q, b in prefix),
            tuple(tuple(c) for c in exists_clauses),
            tuple(tuple(c) for c in inner_clauses),
            None if inner_neg is None else tuple(tuple(c) for c in inner_neg),
            num_vars)
        seen = set()
        for q, block in self.prefix:
            if q not in ("e", "a"):
                raise ValueError("bad quantifier %r" % (q,))
            for v in block:
                if v in seen:
                    raise ValueError("variable %d bound twice" % v)
                seen.add(v)


def _rename(clause, n):
    """``clause`` with X = 1..n moved to Y = n+1..2n; other variables stay."""
    return tuple(l + n if 0 < l <= n else l - n if -n <= l < 0 else l
                 for l in clause)


def emit_explanation_qbf(p: Pap, s) -> QbfFormula:
    """2QBF that is true iff the hypothesis subset ``s`` explains ``p``."""
    s = sorted(set(s))
    for i in s:
        if not 0 <= i < len(p.hypotheses):
            raise IndexError("hypothesis index %d out of range" % i)
    n = p.num_vars
    x_block = tuple(range(1, n + 1))
    y_block = tuple(range(n + 1, 2 * n + 1))
    exists = list(p.theory) + [p.hypotheses[i][0] for i in s]
    inner = [_rename(c, n) for c in exists]
    inner_neg = tuple(_rename(c, n) for c in p.manifestations)
    prefix = [("e", x_block), ("a", y_block)]
    return QbfFormula(tuple(prefix), tuple(exists), tuple(inner),
                      inner_neg, 2 * n)


def emit_qmaxsat_qbf(p: Pap, appendix_polarity: bool = False):
    """Hard 2QBF over R, X, Y plus the soft relaxation literals.

    Returns (QbfFormula, soft) where soft lists (-r_i, weight).  The
    relaxed clauses are (not r_i or C_i), so r_i true selects C_i and
    fixing any R-assignment leaves the explanation check for the
    decoded subset.  With appendix_polarity the clauses are emitted as
    (r_i or C_i) instead, which inverts the meaning of R.
    """
    n = p.num_vars
    x_block = tuple(range(1, n + 1))
    y_block = tuple(range(n + 1, 2 * n + 1))
    r_vars, relaxed = p.relaxed(2 * n + 1)
    if appendix_polarity:
        relaxed = tuple((-c[0],) + c[1:] for c in relaxed)
    exists = p.theory + relaxed
    inner = [_rename(c, n) for c in exists]
    inner_neg = tuple(_rename(c, n) for c in p.manifestations)
    soft = tuple((-r, w) for r, (_, w) in zip(r_vars, p.hypotheses))
    prefix = [("e", r_vars), ("e", x_block), ("a", y_block)]
    if not r_vars:
        prefix = prefix[1:]
    q = QbfFormula(tuple(prefix), tuple(exists), tuple(inner),
                   inner_neg, 2 * n + len(r_vars))
    return q, soft


def encode_pb(r_weights, k: int, first_fresh: int) -> Cnf:
    """CNF forcing sum(weight * [lit true]) <= k, auxiliaries from first_fresh.

    Models project onto the input literals exactly as the assignments
    respecting the bound.  Unit weights use :func:`maxsat.totalizer`
    truncated at k+1 outputs; general weights use a sequential weighted
    counter.
    """
    if k < 0:
        raise ValueError("bound must be >= 0")
    r_weights = [(int(l), int(w)) for l, w in r_weights]
    for l, w in r_weights:
        if l == 0 or w < 1:
            raise ValueError("literals must be nonzero with weight >= 1")
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
        fresh = itertools.count(nv + 1)
        outs = totalizer([l for l, _ in counted], fresh.__next__,
                         clauses.append, cap=k + 1)
        clauses.append((-outs[k],))
        nv = next(fresh) - 1
        return Cnf(nv, tuple(clauses))

    # sequential weighted counter: s[i][j] true when the weighted sum of
    # the first i+1 literals is >= j (one direction only)
    s_prev = None
    for i, (l, w) in enumerate(counted):
        if i + 1 == len(counted):
            # the last literal only needs its overflow clause
            if s_prev is not None and k + 1 - w >= 1:
                clauses.append((-l, -s_prev[k + 1 - w]))
            elif s_prev is None and w > k:
                clauses.append((-l,))
            break
        row = {}
        for j in range(1, k + 1):
            row[j] = nv = nv + 1
        for j in range(1, min(w, k) + 1):
            clauses.append((-l, row[j]))
        if s_prev is not None:
            for j in range(1, k + 1):
                clauses.append((-s_prev[j], row[j]))
                if j + w <= k:
                    clauses.append((-l, -s_prev[j], row[j + w]))
            if k + 1 - w >= 1:
                clauses.append((-l, -s_prev[k + 1 - w]))
        s_prev = row
    return Cnf(nv, tuple(clauses))


def emit_decision_qbf(p: Pap, k: int) -> QbfFormula:
    """QBF that is true iff ``p`` has an explanation of cost at most k."""
    if k < 0:
        raise ValueError("bound must be >= 0")
    q, soft = emit_qmaxsat_qbf(p)
    r_vars = tuple(-l for l, _ in soft)
    pb = encode_pb([(-l, w) for l, w in soft], k, first_fresh=q.num_vars + 1)
    aux = tuple(range(q.num_vars + 1, pb.num_vars + 1))
    rest = q.prefix[1:] if r_vars else q.prefix
    prefix = (("e", r_vars + aux),) + rest if r_vars + aux else q.prefix
    return QbfFormula(prefix, q.exists_clauses + pb.clauses,
                      q.inner_clauses, q.inner_neg,
                      max(q.num_vars, pb.num_vars))


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
    if q.inner_neg is not None:
        neg_gate = gate("and", [gate("or", c) for c in q.inner_neg])
        inner_args.append(-neg_gate)
    inner_gate = gate("and", inner_args)
    out = gate("and", top_args + [-inner_gate])
    lines.append("output(%d)" % out)
    lines.extend(gates)
    return "\n".join(lines) + "\n"


def write_qdimacs(q: QbfFormula) -> str:
    """QDIMACS text; clausifying not-inner adds one innermost e-block.

    Each inner clause gets a selector meaning "this clause is
    falsified"; inner_neg gets one selector guarding its clauses.  The
    disjunction of the selectors replaces the negated conjunction.
    """
    clauses = [tuple(c) for c in q.exists_clauses]
    nv = q.num_vars
    fresh = []
    big = []
    for c in q.inner_clauses:
        nv += 1
        fresh.append(nv)
        big.append(nv)
        for l in c:
            clauses.append((-nv, -l))
    if q.inner_neg is not None:
        nv += 1
        fresh.append(nv)
        big.append(nv)
        for c in q.inner_neg:
            clauses.append((-nv,) + tuple(c))
    clauses.append(tuple(big))

    # merge adjacent equal quantifiers, then append the fresh e-block
    blocks = []
    for quant, block in q.prefix:
        if not block:
            continue
        if blocks and blocks[-1][0] == quant:
            blocks[-1] = (quant, blocks[-1][1] + tuple(block))
        else:
            blocks.append((quant, tuple(block)))
    if fresh:
        if blocks and blocks[-1][0] == "e":
            blocks[-1] = ("e", blocks[-1][1] + tuple(fresh))
        else:
            blocks.append(("e", tuple(fresh)))

    lines = ["p cnf %d %d" % (nv, len(clauses))]
    for quant, block in blocks:
        lines.append("%s %s 0" % (quant, " ".join(str(v) for v in block)))
    for c in clauses:
        lines.append(" ".join(str(l) for l in c) + " 0")
    return "\n".join(lines) + "\n"
