"""Property-based tests: every algorithm against brute force, and
malformed APF text failing cleanly."""

import pytest

from abduce import cli
from abduce.brute import CheckOutcome, bf_check_explanation, bf_solve
from abduce.cli import ALGOS, run_algo
from abduce.formula import FormatError, Pap, TautologyError, parse_apf

from conftest import enumerate_models, make_clause

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
configuration = pytest.importorskip("hypothesis.configuration")

# the same examples on every run, and no example database on disk
SETTINGS = hypothesis.settings(derandomize=True, database=None, deadline=None,
                               max_examples=150)


@pytest.fixture
def storage_in_tmp(tmp_path):
    """Hypothesis also caches the constants it reads from local source
    files; send that cache to a temporary directory, not .hypothesis/."""
    configuration.set_hypothesis_home_dir(tmp_path)
    yield
    configuration.set_hypothesis_home_dir(None)


def consistent(num_vars, clauses):
    return next(enumerate_models(num_vars, clauses), None) is not None


@st.composite
def instances(draw):
    """Instances with <= 6 variables and <= 6 weighted hypotheses.

    Some draws repeat a hypothesis, make T inconsistent, take a unit
    clause of T as a hypothesis or a manifestation, or take M from the
    hypotheses, so that an optimum may have to pay; M may be empty.
    """
    n = draw(st.integers(1, 6))
    literal = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
    clause = st.lists(literal, min_size=1, max_size=3).map(
        lambda lits: tuple(dict.fromkeys(lits))).filter(
        lambda c: not any(-l in c for l in c))
    theory = draw(st.lists(clause, max_size=4))
    units = [(l,) for l in draw(st.lists(literal, max_size=2))]
    theory += units
    if draw(st.booleans()):
        v = draw(st.integers(1, n))
        theory += [(v,), (-v,)]
    hyp_clause = st.sampled_from(units) | clause if units else clause
    hyps = draw(st.lists(st.tuples(hyp_clause, st.integers(1, 4)),
                         max_size=6))
    if hyps and len(hyps) < 6 and draw(st.booleans()):
        hyps.append(draw(st.sampled_from(hyps)))
    if hyps and draw(st.booleans()):
        manifest = [c for c, _ in draw(st.lists(st.sampled_from(hyps),
                                                min_size=1, max_size=2))]
    else:
        manifest = draw(st.lists(hyp_clause, max_size=3))
    return Pap(n, tuple(theory), tuple(hyps), tuple(manifest))


# every algorithm, and hyper under each bootstrap limit and reduction
# fraction: small limits give the hitting sets a mix of MCSes and
# counterexamples
RUNS = [(algo, {}) for algo in ALGOS] + [
    ("hyper", {"bootstrap": b, "reduce_frac": r})
    for b in (0, 1, 3, 100) for r in (0.0, 0.2, 1.0)]


def test_every_algorithm_matches_brute_force(storage_in_tmp):
    seen = {"duplicate hypotheses": 0, "empty M": 0, "inconsistent T": 0,
            "hypothesis in T": 0, "manifestation in T": 0,
            "H inconsistent with T ∧ M": 0, "non-empty optimum": 0}

    @SETTINGS
    @hypothesis.given(instances())
    def check(p):
        units = {c for c in p.theory if len(c) == 1}
        clauses = [c for c, _ in p.hypotheses]
        seen["duplicate hypotheses"] += len(set(clauses)) < len(clauses)
        seen["empty M"] += not p.manifestations
        seen["inconsistent T"] += any((-c[0],) in units for c in units)
        seen["hypothesis in T"] += any(c in units for c in clauses)
        seen["manifestation in T"] += any(c in units
                                          for c in p.manifestations)
        # hyper then fixes no instance variable in its hitting-set solver
        t_and_m = p.theory + p.manifestations
        seen["H inconsistent with T ∧ M"] += (
            consistent(p.num_vars, t_and_m)
            and not consistent(p.num_vars, t_and_m + tuple(clauses)))
        want = bf_solve(p)
        seen["non-empty optimum"] += want is not None and bool(want.indices)
        for algo, kwargs in RUNS:
            expl, _ = run_algo(algo, p, **kwargs)
            if want is None:
                assert expl is None, (algo, kwargs)
            else:
                assert expl is not None and expl.cost == want.cost, (algo,
                                                                     kwargs)
                assert bf_check_explanation(
                    p, expl.indices) is CheckOutcome.IS_EXPL, (algo, kwargs)

    check()
    assert all(seen.values()), seen


# APF-like text: a header that may be wrong, clause lines of every kind
# with tokens that may be bad and a terminating 0 that may be missing,
# comments, blank lines and arbitrary text
TOKENS = (st.integers(-7, 7).map(str)
          | st.sampled_from(["00", "-0", "+3", "1.5", "x", ""])
          | st.text(max_size=4))
HEADERS = st.sampled_from(["p abd 0", "p abd", "p abd -1", "p abd x",
                           "p cnf 5", "p abd 5 5", "p"])
CLAUSES = st.tuples(st.sampled_from(["t", "h", "m", "c", "x"]),
                    st.lists(TOKENS, max_size=4), st.booleans()).map(
    lambda line: " ".join([line[0]] + line[1] + ["0"] * line[2]))


@st.composite
def apf_texts(draw):
    lines = draw(st.lists(CLAUSES, max_size=6))
    if not draw(st.integers(0, 2)):
        odd = draw(HEADERS | st.text(max_size=12))
        lines.insert(draw(st.integers(0, len(lines))), odd)
    if draw(st.integers(0, 5)):
        lines.insert(0, "p abd 5")
    return "\n".join(lines)


def test_malformed_apf_fails_cleanly(storage_in_tmp, tmp_path, capsys):
    path = tmp_path / "drawn.apf"
    seen = {"rejected": 0, "accepted": 0}

    @SETTINGS
    @hypothesis.given(apf_texts())
    def check(text):
        try:
            parse_apf(text)
        except FormatError as exc:
            error = str(exc)
        else:
            seen["accepted"] += 1
            return  # valid text: solving it is the other tests' business
        seen["rejected"] += 1
        assert error.startswith("line ") or "missing" in error, error
        path.write_text(text, encoding="utf-8")
        capsys.readouterr()
        assert cli.main(["solve", str(path)]) == cli.EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: %s\n" % error

    check()
    assert all(seen.values()), seen


def reference_clause(tokens, num_vars):
    """What the literal tokens of a clause line (before its 0) read as:
    the clause, or the message of the line's FormatError.  A bad token
    comes first, then make_clause's zero or tautology, then the first
    variable out of range."""
    try:
        lits = [int(t) for t in tokens]
    except ValueError:
        return "bad literal in %r" % " ".join(tokens + ["0"])
    try:
        clause = make_clause(lits)
    except ValueError as exc:
        return str(exc)
    for l in clause:
        if abs(l) > num_vars:
            return "variable %d out of bounds (%d declared)" % (abs(l),
                                                                 num_vars)
    return clause


# kind -> (header, start of the clause line, parser, the parsed clause)
CLAUSE_READERS = {
    "t": ("p abd %d", "t", parse_apf, lambda p: p.theory[0]),
    "h": ("p abd %d", "h 2", parse_apf, lambda p: p.hypotheses[0][0]),
    "m": ("p abd %d", "m", parse_apf, lambda p: p.manifestations[0]),
}
LITERAL = st.integers(-6, 6).map(str) | st.sampled_from(["+3", "00", "-0", "x"])


@st.composite
def literal_tokens(draw):
    """Literal tokens of one clause line; half the draws repeat a token
    or add its complement."""
    tokens = draw(st.lists(LITERAL, max_size=5))
    if tokens and draw(st.booleans()):
        token = draw(st.sampled_from(tokens))
        if draw(st.booleans()):
            token = token[1:] if token.startswith("-") else "-" + token
        tokens.insert(draw(st.integers(0, len(tokens))), token)
    return tokens


def test_clause_lines_read_as_make_clause_reads_them(storage_in_tmp):
    # the messages' keys first: "clause" is in two of the messages too
    seen = {"bad literal": 0, "literal 0": 0, "contains": 0,
            "out of bounds": 0, "clause": 0, "duplicate": 0}

    @SETTINGS
    @hypothesis.given(literal_tokens(), st.integers(0, 5),
                      st.sampled_from(sorted(CLAUSE_READERS)))
    # the tautology is reported, not variable 5
    @hypothesis.example(["5", "1", "-1"], 2, "t")
    def check(tokens, num_vars, kind):
        header, start, parse, clause_of = CLAUSE_READERS[kind]
        text = "%s\n%s %s 0\n" % (header % num_vars, start, " ".join(tokens))
        want = reference_clause(tokens, num_vars)
        try:
            got = clause_of(parse(text))
        except FormatError as exc:
            assert str(exc) == "line 2: %s" % (want,), text
            seen[next(k for k in seen if k in want)] += 1
        else:
            assert got == want, text
            seen["clause"] += 1
            seen["duplicate"] += len(got) < len(tokens)

    check()
    assert all(seen.values()), seen


def test_constructors_report_the_parsers_fault(storage_in_tmp):
    # a literal list with zeros, repeats and complements: Pap reports
    # what the parser reports for the same clause line, fault for fault,
    # and a complementary pair as a TautologyError
    seen = {"literal 0": 0, "contains": 0, "out of bounds": 0, "clause": 0}

    @SETTINGS
    @hypothesis.given(st.lists(st.integers(-3, 3), max_size=6),
                      st.integers(0, 3))
    # the pair stands before the zero, which a whole-clause check of the
    # literals first would report instead
    @hypothesis.example([1, -1, 0], 2)
    def check(lits, num_vars):
        text = "p abd %d\nt %s 0\n" % (num_vars, " ".join(map(str, lits)))
        try:
            parsed = parse_apf(text)
        except FormatError as exc:
            fault = str(exc)
            assert fault.startswith("line 2: "), fault
            fault = fault[len("line 2: "):]
            with pytest.raises(ValueError) as built:
                Pap(num_vars, (lits,))
            assert str(built.value) == "theory clause 0: " + fault, lits
            assert (type(built.value) is TautologyError
                    if fault.startswith("clause contains ")
                    else type(built.value) is ValueError), lits
            seen[next(k for k in seen if k in fault)] += 1
        else:
            assert Pap(num_vars, (lits,)) == parsed, lits
            seen["clause"] += 1

    check()
    assert all(seen.values()), seen
