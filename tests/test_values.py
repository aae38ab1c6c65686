"""Value semantics of the result, option and instance types: fields in
constructor order, ``==``, a ``Name(field=value, ...)`` repr, hashing and
read-only fields for the frozen types, validation and pickling."""

import copy
import functools
import pickle
import re

import pytest

from abduce.cli import csv_row
from abduce.formula import Cnf, Explanation, Pap
from abduce.generators import RandomGenParams, gen_family1, gen_family2
from abduce.hitting import HittingSetContext, enumerate_mcs
from abduce.hyper import HyperOptions, SolveStats
from abduce.maxsat import CostMinimizer, solve_wcnf
from abduce.qbf import QbfFormula, encode_pb
from abduce.sat import SatResult, Solver

PAP_ARGS = (2, ((1, -2),), (((1,), 3), ((2,), 1)), ((2,),))
QBF_ARGS = ((("e", (1,)), ("a", (2,))), ((1,),), ((2,),), ((-2,),), 2)

# (type, positional arguments, the same as keywords, one field to change)
CASES = [
    (SatResult, (True, [None, True], None),
     {"satisfiable": True, "model": [None, True], "core": None}, "core"),
    (Cnf, (2, ((1, -2),)), {"num_vars": 2, "clauses": ((1, -2),)},
     "num_vars"),
    (Pap, PAP_ARGS,
     dict(zip(("num_vars", "theory", "hypotheses", "manifestations"),
              PAP_ARGS)), "num_vars"),
    (Explanation, ((0, 2), 4), {"indices": (0, 2), "cost": 4}, "cost"),
    (HyperOptions, (0.5, 7), {"reduce_fraction": 0.5, "bootstrap_mcs": 7},
     "bootstrap_mcs"),
    (SolveStats, (1, 2, 3, 4, 5, 6, 0.5),
     dict(zip(("iterations", "type1_counterexamples",
               "type2_counterexamples", "hs_calls", "sat_calls",
               "bootstrap_mcs_found", "wall_time"),
              (1, 2, 3, 4, 5, 6, 0.5))), "hs_calls"),
    (RandomGenParams, (6, 2, 3, 1, 2, 4, 9),
     dict(zip(("num_vars", "num_theory_clauses", "num_hypotheses",
               "num_manifestations", "max_clause_len", "max_weight",
               "seed"), (6, 2, 3, 1, 2, 4, 9))), "seed"),
    (QbfFormula, QBF_ARGS,
     dict(zip(("prefix", "exists_clauses", "inner_clauses", "inner_neg",
               "num_vars"), QBF_ARGS)), "num_vars"),
]
FROZEN = (Cnf, Pap, Explanation, RandomGenParams, QbfFormula)
IDS = [case[0].__name__ for case in CASES]


def changed(cls, kwargs, field):
    """``cls`` built from ``kwargs`` with ``field`` moved to another value."""
    other = dict(kwargs)
    other[field] = 5 if other[field] in (None, 0) else other[field] + 1
    return cls(**other)


@pytest.mark.parametrize("cls, args, kwargs, field", CASES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, args, kwargs,
                                                   field):
    by_position, by_name = cls(*args), cls(**kwargs)
    assert by_position == by_name
    assert not by_position != by_name
    for name, value in kwargs.items():
        assert getattr(by_name, name) == value
    assert by_position != changed(cls, kwargs, field)
    assert by_position != args  # another type is never equal


@pytest.mark.parametrize("cls, args, kwargs, field", CASES, ids=IDS)
def test_repr_names_every_field_in_order(cls, args, kwargs, field):
    assert repr(cls(*args)) == "%s(%s)" % (cls.__name__, ", ".join(
        "%s=%r" % item for item in kwargs.items()))


@pytest.mark.parametrize("cls, args, kwargs, field", CASES, ids=IDS)
def test_frozen_types_hash_and_refuse_assignment(cls, args, kwargs, field):
    value = cls(*args)
    if cls not in FROZEN:
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
        setattr(value, field, getattr(value, field))  # mutable
        return
    assert hash(value) == hash(cls(**kwargs))
    assert len({value, cls(**kwargs), changed(cls, kwargs, field)}) == 2
    with pytest.raises(AttributeError):
        setattr(value, field, 1)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert value == cls(*args)


@pytest.mark.parametrize("cls, args, kwargs, field", CASES, ids=IDS)
def test_copies_are_equal(cls, args, kwargs, field):
    value = cls(*args)
    for twin in (copy.copy(value), copy.deepcopy(value),
                 pickle.loads(pickle.dumps(value))):
        assert twin == value and twin is not value


def test_records_and_explanations_survive_the_worker_queue():
    row = csv_row("f.apf", "hyper", result="error", error="ValueError: bad")
    expl = Explanation((3, 1), 2)
    assert pickle.loads(pickle.dumps(row)) == row
    assert pickle.loads(pickle.dumps(expl)).indices == (1, 3)


def test_mutable_types_count_in_place():
    stats = SolveStats()
    stats.iterations += 2
    stats.wall_time = 1.5
    assert stats == SolveStats(iterations=2, wall_time=1.5)


def test_normalisation():
    assert Explanation((3, 1, 3), 4) == Explanation([1, 3], 4)
    assert Cnf(2, [[1, -2]]).clauses == ((1, -2),)
    p = Pap(2, [[1]], [([2], "3")], [[2]])
    assert p == Pap(2, ((1,),), (((2,), 3),), ((2,),))
    q = QbfFormula([("e", [1])], [[1]], [], [[-1]], 1)
    assert q.prefix == (("e", (1,)),) and q.inner_neg == ((-1,),)


def test_defaults():
    assert SatResult(False) == SatResult(False, None, None)
    assert Cnf(3).clauses == ()
    assert Pap(1) == Pap(1, (), (), ())
    assert Pap(1, (), [((1,), 2.0)]).weights == (2,)
    assert HyperOptions() == HyperOptions(1.0, 0)
    assert SolveStats() == SolveStats(0, 0, 0, 0, 0, 0, 0.0)
    assert RandomGenParams(4) == RandomGenParams(4, 0, 0, 0, 3, 1, 0)


def add_to_two_vars(*clauses):
    """Add the clauses to a 2-variable solver; one it refuses leaves the
    variable count at 2."""
    s = Solver(2)
    try:
        for c in clauses:
            s.add_clause(c)
    finally:
        assert s.num_vars == 2


# every site of the one literal rule: (prefix of the message, build)
LITERAL_SITES = {
    "Solver.add_clause": ("", lambda l: add_to_two_vars([1, l])),
    "Solver.solve": ("", lambda l: Solver(2).solve([1, l])),
    "CostMinimizer.add_soft": ("", lambda l: CostMinimizer().add_soft(l, 1)),
    "encode_pb": ("", lambda l: encode_pb([(1, 1), (l, 1)], 1, 3)),
    "Pap": ("theory clause 0: ", lambda l: Pap(2, ((1, l),))),
}
# every site of the one count rule: (site, name, minimum, build)
COUNT_SITES = [
    ("Pap", "variable count", 0, lambda n: Pap(n)),
    ("HyperOptions", "bootstrap_mcs", 0,
     lambda n: HyperOptions(bootstrap_mcs=n)),
    ("encode_pb", "bound", 0, lambda n: encode_pb([(1, 1)], n, 2)),
    ("enumerate_mcs", "limit", 1,
     lambda n: enumerate_mcs(Solver(1), [1], [(1,)], n)),
    ("gen_family1", "n", 1, gen_family1),
    ("gen_family2", "n", 1, gen_family2),
] + [("RandomGenParams", field, least,
      lambda n, field=field: RandomGenParams(**{"num_vars": 1, field: n}))
     for field, least in zip(RandomGenParams.__slots__, (0, 0, 0, 0, 1, 1))]


def rule_cases():
    """Each site given a bool, a float, a string and a value below its
    minimum (0 for a literal), with the rule's message."""
    for site, (prefix, build) in LITERAL_SITES.items():
        for l in (True, 1.0, "1", 0):
            message = ("literal 0 is not allowed" if type(l) is int
                       else "literal %r is not an int" % (l,))
            yield pytest.param(functools.partial(build, l),
                               "^%s$" % re.escape(prefix + message),
                               id="%s-literal %r" % (site, l))
    for site, name, least, build in COUNT_SITES:
        for n in (True, 2.0, "2", least - 1):
            message = "%s %r is not an int >= %d" % (name, n, least)
            yield pytest.param(functools.partial(build, n),
                               "^%s$" % re.escape(message),
                               id="%s-%s %r" % (site, name, n))


@pytest.mark.parametrize("build, message", [
    (lambda: Cnf(1, ((2,),)), "out of bounds"),
    # the constructors give the parsers' message, after the part and the
    # clause's position; the ids are the names these cases have long had
    pytest.param(lambda: Pap(1, ((2,),)),
                 "^theory clause 0: variable 2 out of bounds",
                 id="<lambda>-theory literal 2 out of bounds"),
    pytest.param(lambda: Pap(1, (), (((2,), 1),)),
                 "^hypothesis clause 0: variable 2 out of bounds",
                 id="<lambda>-hypothesis literal 2"),
    pytest.param(lambda: Pap(1, (), (), ((-2,),)),
                 "^manifestation clause 0: variable 2 out of bounds",
                 id="<lambda>-manifestation literal -2"),
    pytest.param(lambda: Cnf(1, ((0, 1),)),
                 "^clause 0: literal 0 is not allowed",
                 id="<lambda>-clause literal 0 is not allowed"),
    pytest.param(lambda: Pap(1, theory=((0,),)),
                 "^theory clause 0: literal 0 is not allowed",
                 id="<lambda>-theory literal 0 is not allowed"),
    pytest.param(lambda: Pap(1, (), (((1, 0), 1),)),
                 "^hypothesis clause 0: literal 0 is not allowed",
                 id="<lambda>-hypothesis literal 0 is not allowed"),
    pytest.param(lambda: Pap(1, (), (), ((0,),)),
                 "^manifestation clause 0: literal 0 is not allowed",
                 id="<lambda>-manifestation literal 0 is not allowed"),
    # the constructors refuse a literal or a variable count that is not an
    # int, which the parsers refuse as text
    (lambda: Pap(2, ((1.5,),), (((2,), 1),), ((2,),)),
     "^theory clause 0: literal 1.5 is not an int"),
    (lambda: Cnf(2, ((True, 2),)), "^clause 0: literal True is not an int"),
    (lambda: Pap(2, (), (((1.0,), 1),), ((1,),)),
     "^hypothesis clause 0: literal 1.0 is not an int"),
    (lambda: Pap(2, (), (((2,), 1),), ((2, False),)),
     "^manifestation clause 0: literal False is not an int"),
    (lambda: Pap(-1), "variable count -1 is not an int >= 0"),
    (lambda: Pap(2.5, (), (((1,), 1),), ((1,),)),
     "variable count 2.5 is not an int >= 0"),
    (lambda: Cnf(True), "variable count True is not an int >= 0"),
    (lambda: Pap(1, (), (((1,), 0),)), "weight must be >= 1"),
    (lambda: Pap(2, (), (((1,), 1.7), ((2,), 2)), ((1,),)),
     "weight must be a whole number, got 1.7"),
    (lambda: HyperOptions(reduce_fraction=1.5), r"reduce_fraction"),
    (lambda: HyperOptions(reduce_fraction=float("nan")), r"reduce_fraction"),
    # a bool or a string is not a fraction; the CLI reads it with float
    pytest.param(lambda: HyperOptions(reduce_fraction="0.5"),
                 r"^reduce_fraction '0\.5' is not a number in \[0, 1\]$",
                 id="HyperOptions-reduce_fraction '0.5'"),
    pytest.param(lambda: HyperOptions(reduce_fraction=True),
                 r"^reduce_fraction True is not a number in \[0, 1\]$",
                 id="HyperOptions-reduce_fraction True"),
    # a bool is not a weight, as it is not a literal or a count
    pytest.param(lambda: Pap(1, (), [((1,), True)], ((1,),)),
                 "^weight must be a whole number, got True$",
                 id="Pap-weight True"),
    pytest.param(lambda: HittingSetContext((True, 2)),
                 "^weight must be a whole number, got True$",
                 id="HittingSetContext-weight True"),
    # the ids are the names these cases had before the one count rule
    pytest.param(lambda: HyperOptions(bootstrap_mcs=-1),
                 "^bootstrap_mcs -1 is not an int >= 0$",
                 id="<lambda>-bootstrap_mcs must be >= 0"),
    pytest.param(lambda: HyperOptions(bootstrap_mcs=2.5),
                 "^bootstrap_mcs 2.5 is not an int >= 0$",
                 id="<lambda>-bootstrap_mcs must be an int"),
    pytest.param(lambda: HyperOptions(bootstrap_mcs=True),
                 "^bootstrap_mcs True is not an int >= 0$",
                 id="<lambda>-must be an int, not bool"),
    pytest.param(lambda: RandomGenParams(-1), "^num_vars -1 is not an int >= 0$",
                 id="<lambda>-counts must be >= 0_0"),
    pytest.param(lambda: RandomGenParams(3, num_hypotheses=-1),
                 "^num_hypotheses -1 is not an int >= 0$",
                 id="<lambda>-counts must be >= 0_1"),
    (lambda: RandomGenParams(3, max_clause_len=0), "max_clause_len"),
    pytest.param(lambda: RandomGenParams(3, max_weight=0),
                 "^max_weight 0 is not an int >= 1$",
                 id="<lambda>-max_weight must be >= 1"),
    (lambda: QbfFormula((("x", (1,)),), (), (), (), 1), "bad quantifier"),
    (lambda: QbfFormula((("e", (1,)), ("a", (1,))), (), (), (), 1),
     "bound twice"),
    # the engine refuses the literals the constructors refuse
    (lambda: solve_wcnf(Cnf(2, ((1,), (2,))), [((-1.5,), 3), ((1,), 2)]),
     "^literal -1.5 is not an int$"),
    (lambda: solve_wcnf(Cnf(2), [((1, 2.5), 1)]),
     "^literal 2.5 is not an int$"),
    (lambda: Solver(2).add_clause([1.7, -2]), "^literal 1.7 is not an int$"),
    (lambda: Solver(2).solve([2.9]), "^literal 2.9 is not an int$"),
    (lambda: Solver(1).add_clause(["2"]), "^literal '2' is not an int$"),
    # every literal is checked, before a tautology or a root-satisfied
    # literal ends the scan and before the variable count grows
    (lambda: add_to_two_vars([1, -1, 1.5]), "^literal 1.5 is not an int$"),
    (lambda: add_to_two_vars([1], [1, 3.5]), "^literal 3.5 is not an int$"),
    (lambda: add_to_two_vars([5, "x"]), "^literal 'x' is not an int$"),
    pytest.param(lambda: add_to_two_vars([5, 0]), "^literal 0 is not allowed$",
                 id="<lambda>-^literal 0 in clause$")] + list(rule_cases()))
def test_validation(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("cls, args", [
    (SatResult, ()), (Cnf, ()), (Explanation, ((1,),))])
def test_missing_arguments_are_type_errors(cls, args):
    with pytest.raises(TypeError):
        cls(*args)


def test_unknown_keyword_is_a_type_error():
    with pytest.raises(TypeError):
        HyperOptions(reduce=0.5)
    with pytest.raises(TypeError):
        SolveStats(iterations=1, calls=2)
