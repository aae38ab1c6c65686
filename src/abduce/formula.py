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

from dataclasses import dataclass


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
    for c in clauses:
        for l in c:
            if abs(l) > num_vars:
                raise ValueError(
                    "%s literal %d out of bounds (%d variables)" % (what, l, num_vars)
                )


@dataclass(frozen=True)
class Cnf:
    """A CNF formula: a variable count and a sequence of clauses."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "clauses", tuple(tuple(c) for c in self.clauses))
        _check_bounds(self.clauses, self.num_vars)


@dataclass(frozen=True)
class Pap:
    """A propositional abduction instance.

    ``hypotheses`` is a sequence of (clause, weight) pairs; duplicates
    are kept as distinct entries, and all weights are positive ints.
    """

    num_vars: int
    theory: tuple[tuple[int, ...], ...] = ()
    hypotheses: tuple[tuple[tuple[int, ...], int], ...] = ()
    manifestations: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "theory", tuple(tuple(c) for c in self.theory))
        object.__setattr__(
            self, "hypotheses", tuple((tuple(c), int(w)) for c, w in self.hypotheses)
        )
        object.__setattr__(
            self, "manifestations", tuple(tuple(c) for c in self.manifestations)
        )
        _check_bounds(self.theory, self.num_vars, "theory")
        _check_bounds((c for c, _ in self.hypotheses), self.num_vars, "hypothesis")
        _check_bounds(self.manifestations, self.num_vars, "manifestation")
        for c, w in self.hypotheses:
            if w < 1:
                raise ValueError("hypothesis weight must be >= 1, got %d" % w)

    @property
    def weights(self) -> tuple[int, ...]:
        return tuple(w for _, w in self.hypotheses)


@dataclass(frozen=True)
class Explanation:
    """A solver answer: hypothesis indices (sorted) and their total cost."""

    indices: tuple[int, ...]
    cost: int

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(sorted(set(self.indices))))


# ---------------------------------------------------------------------------
# APF: "p abd <nv>" header, then "t ... 0" / "h <w> ... 0" / "m ... 0" lines.
# ---------------------------------------------------------------------------


def parse_apf(text: str) -> Pap:
    num_vars = None
    theory = []
    hypotheses = []
    manifestations = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        toks = line.split()
        if toks[0] == "p":
            if num_vars is not None:
                raise FormatError("duplicate header", lineno)
            if len(toks) != 3 or toks[1] != "abd":
                raise FormatError("expected 'p abd <num_vars>'", lineno)
            try:
                num_vars = int(toks[2])
            except ValueError:
                raise FormatError("bad variable count %r" % toks[2], lineno) from None
            if num_vars < 0:
                raise FormatError("negative variable count", lineno)
            continue
        if num_vars is None:
            raise FormatError("clause line before 'p abd' header", lineno)
        kind = toks[0]
        if kind not in ("t", "h", "m"):
            raise FormatError("unknown line type %r" % kind, lineno)
        body = toks[1:]
        weight = None
        if kind == "h":
            if not body:
                raise FormatError("hypothesis line needs a weight", lineno)
            try:
                weight = int(body[0])
            except ValueError:
                raise FormatError("bad weight %r" % body[0], lineno) from None
            if weight < 1:
                raise FormatError("hypothesis weight must be >= 1", lineno)
            body = body[1:]
        if not body or body[-1] != "0":
            raise FormatError("clause line must end with 0", lineno)
        try:
            lits = [int(t) for t in body[:-1]]
        except ValueError:
            raise FormatError("bad literal in %r" % line, lineno) from None
        try:
            clause = make_clause(lits)
        except TautologyError as exc:
            raise FormatError(str(exc), lineno) from None
        except ValueError as exc:
            raise FormatError(str(exc), lineno) from None
        for l in clause:
            if abs(l) > num_vars:
                raise FormatError(
                    "variable %d out of bounds (%d declared)" % (abs(l), num_vars),
                    lineno,
                )
        if kind == "t":
            theory.append(clause)
        elif kind == "h":
            hypotheses.append((clause, weight))
        else:
            manifestations.append(clause)
    if num_vars is None:
        raise FormatError("missing 'p abd' header")
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
    num_vars = top = None
    hard = []
    soft = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        toks = line.split()
        if toks[0] == "p":
            if top is not None:
                raise FormatError("duplicate header", lineno)
            if len(toks) != 5 or toks[1] != "wcnf":
                raise FormatError("expected 'p wcnf <nv> <nc> <top>'", lineno)
            try:
                num_vars, _, top = int(toks[2]), int(toks[3]), int(toks[4])
            except ValueError:
                raise FormatError("bad header numbers", lineno) from None
            continue
        if top is None:
            raise FormatError("clause line before 'p wcnf' header", lineno)
        if toks[-1] != "0":
            raise FormatError("clause line must end with 0", lineno)
        try:
            nums = [int(t) for t in toks]
        except ValueError:
            raise FormatError("bad token in %r" % line, lineno) from None
        weight = nums[0]
        if weight < 1:
            raise FormatError("clause weight must be >= 1", lineno)
        if weight > top:
            raise FormatError("weight %d exceeds top %d" % (weight, top), lineno)
        clause = make_clause(nums[1:-1])
        for l in clause:
            if abs(l) > num_vars:
                raise FormatError("variable %d out of bounds" % abs(l), lineno)
        if weight == top:
            hard.append(clause)
        else:
            soft.append((clause, weight))
    if top is None:
        raise FormatError("missing 'p wcnf' header")
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


def encode_negation(m: Cnf, first_fresh: int):
    """CNF-encode "at least one clause of m is falsified".

    One fresh selector z_j (numbered from ``first_fresh``) is introduced
    per clause; z_j forces every literal of clause j false, and the big
    disjunction requires some selector true.  Empty m yields the empty
    clause (constant false).  Returns (Cnf, number of fresh variables).
    """
    k = len(m.clauses)
    clauses = [tuple(range(first_fresh, first_fresh + k))]
    for j, c in enumerate(m.clauses):
        z = first_fresh + j
        for l in c:
            clauses.append((-z, -l))
    return Cnf(first_fresh - 1 + k, tuple(clauses)), k
