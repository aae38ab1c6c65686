"""Propositional data model and file formats.

Literals are nonzero signed ints (sign = polarity, magnitude = 1-based
variable index), clauses are tuples of literals, and an abduction
instance bundles a hard background theory, weighted hypothesis clauses
and manifestation clauses.

Two text formats are handled here: APF, a small line-oriented format
for abduction instances, and the classic weighted-partial WCNF format
with an explicit top weight.
"""

from __future__ import annotations


class FormatError(ValueError):
    """Malformed input text; carries a 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class TautologyError(ValueError):
    """A clause contained both a literal and its complement."""


def make_clause(lits) -> tuple[int, ...]:
    """Normalize a literal sequence into a clause tuple.

    Duplicate literals are dropped (first occurrence kept); a literal
    together with its complement is rejected, as is literal 0.
    """
    seen = set()
    out = []
    for l in lits:
        l = int(l)
        if l == 0:
            raise ValueError("literal 0 is not allowed in a clause")
        if l in seen:
            continue
        if -l in seen:
            raise TautologyError("clause contains %d and %d" % (-l, l))
        seen.add(l)
        out.append(l)
    return tuple(out)


def clause_satisfied(clause, model) -> bool:
    """True if the model (bool list indexed by variable) satisfies the clause."""
    for l in clause:
        if model[abs(l)] == (l > 0):
            return True
    return False


def _check_bounds(clauses, num_vars, what="clause"):
    """Reject literal 0 and literals beyond ``num_vars``.

    Each literal is tested once, by one chained comparison; only the
    clause that fails it is searched for a zero, so a zero is reported
    before an out-of-bounds literal of the same clause.
    """
    for c in clauses:
        for l in c:
            if not -num_vars <= l <= num_vars or not l:
                if 0 in c:
                    raise ValueError("%s literal 0 is not allowed" % what)
                raise ValueError(
                    "%s literal %d out of bounds (%d variables)" % (what, l, num_vars)
                )


class Value:
    """Base of the package's value types, whose fields are the
    ``__slots__`` in constructor order: ``==``, a ``Name(field=value,
    ...)`` repr and pickling through the constructor.  A subclass
    declared with ``frozen=True`` is also hashable and read-only."""

    __slots__ = ()

    def __init_subclass__(cls, frozen=False):
        if frozen:
            cls.__hash__ = lambda self: hash(self.__reduce__()[1])
            cls.__setattr__ = cls.__delattr__ = _read_only

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__reduce__() == other.__reduce__()

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self.__slots__))


def _read_only(self, name, *value):
    raise AttributeError("cannot assign to field %r" % name)


class Cnf(Value, frozen=True):
    """A CNF formula: a variable count and a sequence of clauses."""

    __slots__ = ("num_vars", "clauses")

    def __init__(self, num_vars: int, clauses=()):
        super().__init__(num_vars, tuple(tuple(c) for c in clauses))
        _check_bounds(self.clauses, num_vars)


class Pap(Value, frozen=True):
    """A propositional abduction instance.

    ``hypotheses`` is a sequence of (clause, weight) pairs; duplicates
    are kept as distinct entries, and all weights are positive ints.
    """

    __slots__ = ("num_vars", "theory", "hypotheses", "manifestations")

    def __init__(self, num_vars: int, theory=(), hypotheses=(),
                 manifestations=()):
        super().__init__(
            num_vars, tuple(tuple(c) for c in theory),
            tuple((tuple(c), int(w)) for c, w in hypotheses),
            tuple(tuple(c) for c in manifestations))
        _check_bounds(self.theory, num_vars, "theory")
        _check_bounds((c for c, _ in self.hypotheses), num_vars, "hypothesis")
        _check_bounds(self.manifestations, num_vars, "manifestation")
        for c, w in self.hypotheses:
            if w < 1:
                raise ValueError("hypothesis weight must be >= 1, got %d" % w)

    @property
    def weights(self) -> tuple[int, ...]:
        return tuple(w for _, w in self.hypotheses)

    def relaxed(self, first_var: int):
        """Selectors and relaxed hypotheses: (r_vars, clauses).

        Hypothesis i gets the selector r_i = first_var + i and the clause
        (not r_i or C_i), so r_i true selects C_i.  Every relaxed encoding
        of the instance (the checkers, the hitting-set background and the
        quantified MaxSAT hard part) is built from this.
        """
        r_vars = tuple(range(first_var, first_var + len(self.hypotheses)))
        return r_vars, tuple((-r,) + c for r, (c, _) in zip(r_vars, self.hypotheses))


class Explanation(Value, frozen=True):
    """A solver answer: hypothesis indices (sorted) and their total cost."""

    __slots__ = ("indices", "cost")

    def __init__(self, indices, cost: int):
        super().__init__(tuple(sorted(set(indices))), cost)


# ---------------------------------------------------------------------------
# Line formats shared by APF and WCNF: comment lines start with "c", one
# "p <format> ..." header precedes the clause lines, each clause ends in 0.
# ---------------------------------------------------------------------------


def _lines(text: str, fmt: str):
    """Yield (line number, tokens) of the header, then of each clause line.

    Blank and comment lines are skipped.  A second header, a clause line
    before the header and a missing header raise :class:`FormatError`.
    """
    header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = raw.split()
        if not toks or toks[0].startswith("c"):
            continue
        if toks[0] == "p":
            if header:
                raise FormatError("duplicate header", lineno)
            header = True
        elif not header:
            raise FormatError("clause line before 'p %s' header" % fmt, lineno)
        yield lineno, toks
    if not header:
        raise FormatError("missing 'p %s' header" % fmt)


def _int(tok, what, lineno, minimum=None):
    try:
        value = int(tok)
    except ValueError:
        raise FormatError("bad %s %r" % (what, tok), lineno) from None
    if minimum is not None and value < minimum:
        raise FormatError("%s must be >= %d" % (what, minimum), lineno)
    return value


def _clause(toks, start, num_vars, lineno):
    """The clause of the literal tokens ``toks[start:]``, ending in "0",
    within ``num_vars``.

    One pass converts each token once and checks its literal for a
    duplicate, a complement, a zero or an out-of-range variable; a line
    that passes is its own clause.  A line that trips the check is read
    again by :func:`make_clause`, which drops duplicates and reports a
    zero or a tautology, and only then checked for bounds, so those
    errors come first.
    """
    if len(toks) <= start or toks[-1] != "0":
        raise FormatError("clause line must end with 0", lineno)
    end = len(toks) - 1
    seen = {}  # keeps insertion order: a clean line's clause is its keys
    try:
        for i in range(start, end):
            l = int(toks[i])
            if (l in seen or -l in seen or not -num_vars <= l <= num_vars
                    or not l):
                break
            seen[l] = None
        else:
            return tuple(seen)
        lits = [*seen, *map(int, toks[i:end])]
    except ValueError:
        raise FormatError("bad literal in %r" % " ".join(toks[start:]),
                          lineno) from None
    try:
        clause = make_clause(lits)
    except ValueError as exc:  # literal 0 or a tautology
        raise FormatError(str(exc), lineno) from None
    for l in clause:
        if abs(l) > num_vars:
            raise FormatError(
                "variable %d out of bounds (%d declared)" % (abs(l), num_vars),
                lineno)
    return clause


# ---------------------------------------------------------------------------
# APF: "p abd <nv>" header, then "t ... 0" / "h <w> ... 0" / "m ... 0" lines.
# ---------------------------------------------------------------------------


def parse_apf(text: str) -> Pap:
    lines = _lines(text, "abd")
    lineno, toks = next(lines)
    if len(toks) != 3 or toks[1] != "abd":
        raise FormatError("expected 'p abd <num_vars>'", lineno)
    num_vars = _int(toks[2], "variable count", lineno, minimum=0)
    theory = []
    hypotheses = []
    manifestations = []
    for lineno, toks in lines:
        kind = toks[0]
        if kind == "t":
            theory.append(_clause(toks, 1, num_vars, lineno))
        elif kind == "h":
            if len(toks) < 2:
                raise FormatError("hypothesis line needs a weight", lineno)
            weight = _int(toks[1], "weight", lineno, minimum=1)
            hypotheses.append((_clause(toks, 2, num_vars, lineno), weight))
        elif kind == "m":
            manifestations.append(_clause(toks, 1, num_vars, lineno))
        else:
            raise FormatError("unknown line type %r" % kind, lineno)
    return Pap(num_vars, tuple(theory), tuple(hypotheses), tuple(manifestations))


def write_apf(p: Pap) -> str:
    lines = ["p abd %d" % p.num_vars]
    for c in p.theory:
        lines.append("t %s 0" % " ".join(str(l) for l in c))
    for c, w in p.hypotheses:
        lines.append("h %d %s 0" % (w, " ".join(str(l) for l in c)))
    for c in p.manifestations:
        lines.append("m %s 0" % " ".join(str(l) for l in c))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# WCNF (weighted partial, explicit top weight).
# ---------------------------------------------------------------------------


def parse_wcnf(text: str):
    """Parse weighted-partial WCNF; returns (hard: Cnf, soft: [(clause, weight)])."""
    lines = _lines(text, "wcnf")
    lineno, toks = next(lines)
    if len(toks) != 5 or toks[1] != "wcnf":
        raise FormatError("expected 'p wcnf <nv> <nc> <top>'", lineno)
    num_vars = _int(toks[2], "variable count", lineno, minimum=0)
    _int(toks[3], "clause count", lineno, minimum=0)
    top = _int(toks[4], "top weight", lineno, minimum=1)
    hard = []
    soft = []
    for lineno, toks in lines:
        weight = _int(toks[0], "clause weight", lineno, minimum=1)
        if weight > top:
            raise FormatError("weight %d exceeds top %d" % (weight, top), lineno)
        clause = _clause(toks, 1, num_vars, lineno)
        if weight == top:
            hard.append(clause)
        else:
            soft.append((clause, weight))
    return Cnf(num_vars, tuple(hard)), soft


def write_wcnf(hard: Cnf, soft) -> str:
    top = sum(w for _, w in soft) + 1
    lines = ["p wcnf %d %d %d" % (hard.num_vars, len(hard.clauses) + len(soft), top)]
    for c in hard.clauses:
        lines.append("%d %s 0" % (top, " ".join(str(l) for l in c)))
    for c, w in soft:
        lines.append("%d %s 0" % (w, " ".join(str(l) for l in c)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Negation of a manifestation CNF via one selector per clause.
# ---------------------------------------------------------------------------


def encode_negation(clauses, first_fresh: int):
    """CNF-encode "at least one of ``clauses`` is falsified".

    One fresh selector z_j (numbered from ``first_fresh``) is introduced
    per clause; z_j forces every literal of clause j false, and the big
    disjunction requires some selector true.  No clauses yield the empty
    clause (constant false).  Returns the list of clauses.
    """
    out = [tuple(range(first_fresh, first_fresh + len(clauses)))]
    for z, c in enumerate(clauses, first_fresh):
        out.extend((-z, -l) for l in c)
    return out
