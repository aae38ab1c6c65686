"""Property-based differential test: every algorithm against brute force."""

import pytest

from abduce.brute import CheckOutcome, bf_check_explanation, bf_solve
from abduce.cli import ALGOS, run_algo
from abduce.formula import Pap

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


@st.composite
def instances(draw):
    """Instances with <= 6 variables and <= 6 weighted hypotheses.

    Some draws repeat a hypothesis, make T inconsistent, or take a unit
    clause of T as a hypothesis or a manifestation; M may be empty.
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
    manifest = draw(st.lists(hyp_clause, max_size=3))
    return Pap(n, tuple(theory), tuple(hyps), tuple(manifest))


def test_every_algorithm_matches_brute_force(storage_in_tmp):
    seen = {"duplicate hypotheses": 0, "empty M": 0, "inconsistent T": 0,
            "hypothesis in T": 0, "manifestation in T": 0}

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
        want = bf_solve(p)
        for algo in ALGOS:
            expl, _ = run_algo(algo, p)
            if want is None:
                assert expl is None, algo
            else:
                assert expl is not None and expl.cost == want.cost, algo
                assert bf_check_explanation(
                    p, expl.indices) is CheckOutcome.IS_EXPL, algo

    check()
    assert all(seen.values()), seen
