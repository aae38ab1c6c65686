"""Propositional data model and file formats.

Literals are nonzero signed ints (sign = polarity, magnitude = 1-based
variable index), clauses are tuples of literals, and an abduction
instance bundles a hard background theory, weighted hypothesis clauses
and manifestation clauses.

The one text format is APF, a small line-oriented format for
abduction instances.
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


def clause_satisfied(clause, model) -> bool:
    """True if the model (bool list indexed by variable) satisfies the clause."""
    for l in clause:
        if model[abs(l)] == (l > 0):
            return True
    return False


def _clause(lits, num_vars) -> tuple[int, ...]:
    """The clause of the literals ``lits`` within ``num_vars``, repeats
    folded: what a clause is, for the constructors and the parser alike.
    Each literal is read once: a zero or a complementary pair is reported
    where it stands, the first variable past ``num_vars`` only after the
    last literal, so a later zero or pair is reported first."""
    seen = {}  # keeps insertion order: the clause is its keys
    bad = 0  # the first variable out of bounds
    for l in lits:
        if (l in seen or -l in seen or not -num_vars <= l <= num_vars
                or not l):
            _literal(l)  # raises for a zero
            if -l in seen:
                raise TautologyError("clause contains %d and %d" % (-l, l))
            if l in seen:
                continue
            bad = bad or abs(l)
        seen[l] = None
    if bad:
        raise ValueError("variable %d out of bounds (%d declared)"
                         % (bad, num_vars))
    return tuple(seen)


def _clauses(part, clauses, num_vars) -> tuple[tuple[int, ...], ...]:
    """Each of ``clauses`` through :func:`_clause`; a fault keeps its
    type and is prefixed by ``part`` and the clause's position, as in
    "theory clause 0: clause contains 1 and -1".  Only the constructors
    refuse a variable count or a literal that is not an int (a bool
    included): the parser converts every token with ``int``."""
    _count(num_vars, "variable count")
    out = []
    for c in clauses:
        try:
            c = tuple(c)
            for l in c:  # a zero or a pair is _clause's, in clause order
                if type(l) is not int:
                    _literal(l)  # raises
            out.append(_clause(c, num_vars))
        except ValueError as exc:
            raise type(exc)("%s %d: %s" % (part, len(out), exc)) from None
    return tuple(out)


def _literal(l) -> int:
    """``l`` when it is a literal: an int (a bool refused) other than 0.
    The one literal rule, for the constructors, the parser, the engine
    and the bound encoding alike."""
    if type(l) is not int:
        raise ValueError("literal %r is not an int" % (l,))
    if not l:
        raise ValueError("literal 0 is not allowed")
    return l


def _count(n, what, minimum=0) -> int:
    """``n`` when it is an int (a bool refused) of at least ``minimum``;
    ``what`` names it in the message.  The one count rule."""
    if type(n) is not int or n < minimum:
        raise ValueError("%s %r is not an int >= %d" % (what, n, minimum))
    return n


def _weight(w) -> int:
    """A weight as an int >= 1; a number must be whole already, so 1.7
    is refused rather than cut to 1, and a bool is refused."""
    n = int(w)
    if isinstance(w, bool) or n != w and not isinstance(w, str):
        raise ValueError("weight must be a whole number, got %r" % (w,))
    if n < 1:
        raise ValueError("weight must be >= 1, got %d" % n)
    return n


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
        super().__init__(num_vars, _clauses("clause", clauses, num_vars))


class Pap(Value, frozen=True):
    """A propositional abduction instance.

    ``hypotheses`` is a sequence of (clause, weight) pairs; duplicates
    are kept as distinct entries, and all weights are positive ints.
    """

    __slots__ = ("num_vars", "theory", "hypotheses", "manifestations")

    def __init__(self, num_vars: int, theory=(), hypotheses=(),
                 manifestations=()):
        hypotheses = [(c, _weight(w)) for c, w in hypotheses]
        super().__init__(
            num_vars, _clauses("theory clause", theory, num_vars),
            tuple(zip(_clauses("hypothesis clause",
                               (c for c, _ in hypotheses), num_vars),
                      (w for _, w in hypotheses))),
            _clauses("manifestation clause", manifestations, num_vars))

    @property
    def weights(self) -> tuple[int, ...]:
        return tuple(w for _, w in self.hypotheses)

    def subset(self, indices) -> tuple[tuple[int, ...], ...]:
        """The hypothesis clauses at ``indices``, sorted and distinct."""
        indices = sorted(set(indices))
        for i in indices:
            if not 0 <= i < len(self.hypotheses):
                raise IndexError("hypothesis index %d out of range" % i)
        return tuple(self.hypotheses[i][0] for i in indices)

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
# APF: comment lines start with "c"; one "p abd <nv>" header precedes the
# "t ... 0" / "h <w> ... 0" / "m ... 0" clause lines.
# ---------------------------------------------------------------------------


def _lines(text: str):
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
            raise FormatError("clause line before 'p abd' header", lineno)
        yield lineno, toks
    if not header:
        raise FormatError("missing 'p abd' header")


def _int(tok, what, lineno, minimum=None):
    try:
        value = int(tok)
    except ValueError:
        raise FormatError("bad %s %r" % (what, tok), lineno) from None
    if minimum is not None and value < minimum:
        raise FormatError("%s must be >= %d" % (what, minimum), lineno)
    return value


def _line_clause(toks, start, num_vars, lineno):
    """The clause of the literal tokens ``toks[start:]``, ending in "0",
    by :func:`_clause`; a token that is not an int is the fault reported
    first, wherever it stands."""
    if len(toks) <= start or toks[-1] != "0":
        raise FormatError("clause line must end with 0", lineno)
    try:
        return _clause(map(int, toks[start:-1]), num_vars)
    except ValueError as exc:
        try:
            [*map(int, toks[start:-1])]
        except ValueError:
            exc = "bad literal in %r" % " ".join(toks[start:])
        raise FormatError(str(exc), lineno) from None


def parse_apf(text: str) -> Pap:
    lines = _lines(text)
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
            theory.append(_line_clause(toks, 1, num_vars, lineno))
        elif kind == "h":
            if len(toks) < 2:
                raise FormatError("hypothesis line needs a weight", lineno)
            weight = _int(toks[1], "weight", lineno, minimum=1)
            hypotheses.append((_line_clause(toks, 2, num_vars, lineno),
                               weight))
        elif kind == "m":
            manifestations.append(_line_clause(toks, 1, num_vars, lineno))
        else:
            raise FormatError("unknown line type %r" % kind, lineno)
    # each clause is checked already: no second pass through Pap.__init__
    p = object.__new__(Pap)
    Value.__init__(p, num_vars, tuple(theory), tuple(hypotheses),
                   tuple(manifestations))
    return p


def write_apf(p: Pap) -> str:
    lines = ["p abd %d" % p.num_vars]
    lines += ["t %s 0" % " ".join(map(str, c)) for c in p.theory]
    lines += ["h %d %s 0" % (w, " ".join(map(str, c))) for c, w in p.hypotheses]
    lines += ["m %s 0" % " ".join(map(str, c)) for c in p.manifestations]
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
