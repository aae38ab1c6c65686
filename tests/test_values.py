"""Value semantics of the result, option and instance types: fields in
constructor order, ``==``, a ``Name(field=value, ...)`` repr, hashing and
read-only fields for the frozen types, validation and pickling."""

import copy
import pickle

import pytest

from abduce.cli import csv_row
from abduce.formula import Cnf, Explanation, Pap
from abduce.generators import RandomGenParams
from abduce.hyper import HyperOptions, SolveStats
from abduce.maxsat import MaxSatResult
from abduce.qbf import QbfFormula
from abduce.sat import SatResult

PAP_ARGS = (2, ((1, -2),), (((1,), 3), ((2,), 1)), ((2,),))
QBF_ARGS = ((("e", (1,)), ("a", (2,))), ((1,),), ((2,),), ((-2,),), 2)

# (type, positional arguments, the same as keywords, one field to change)
CASES = [
    (SatResult, (True, [None, True], None),
     {"satisfiable": True, "model": [None, True], "core": None}, "core"),
    (MaxSatResult, (False, [None, False], 2),
     {"hard_unsat": False, "model": [None, False], "cost": 2}, "cost"),
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
    assert MaxSatResult(True) == MaxSatResult(True, None, None)
    assert Cnf(3).clauses == ()
    assert Pap(1) == Pap(1, (), (), ())
    assert Pap(1, (), [((1,), 2.0)]).weights == (2,)
    assert HyperOptions() == HyperOptions(1.0, 0)
    assert SolveStats() == SolveStats(0, 0, 0, 0, 0, 0, 0.0)
    assert RandomGenParams(4) == RandomGenParams(4, 0, 0, 0, 3, 1, 0)


@pytest.mark.parametrize("build, message", [
    (lambda: Cnf(1, ((2,),)), "out of bounds"),
    (lambda: Pap(1, ((2,),)), "theory literal 2 out of bounds"),
    (lambda: Pap(1, (), (((2,), 1),)), "hypothesis literal 2"),
    (lambda: Pap(1, (), (), ((-2,),)), "manifestation literal -2"),
    (lambda: Cnf(1, ((0, 1),)), "clause literal 0 is not allowed"),
    (lambda: Pap(1, theory=((0,),)), "theory literal 0 is not allowed"),
    (lambda: Pap(1, (), (((1, 0), 1),)), "hypothesis literal 0 is not allowed"),
    (lambda: Pap(1, (), (), ((0,),)), "manifestation literal 0 is not allowed"),
    (lambda: Pap(1, (), (((1,), 0),)), "weight must be >= 1"),
    (lambda: Pap(2, (), (((1,), 1.7), ((2,), 2)), ((1,),)),
     "weight must be a whole number, got 1.7"),
    (lambda: HyperOptions(reduce_fraction=1.5), r"reduce_fraction"),
    (lambda: HyperOptions(reduce_fraction=float("nan")), r"reduce_fraction"),
    (lambda: HyperOptions(bootstrap_mcs=-1), "bootstrap_mcs must be >= 0"),
    (lambda: HyperOptions(bootstrap_mcs=2.5), "bootstrap_mcs must be an int"),
    (lambda: HyperOptions(bootstrap_mcs=True), "must be an int, not bool"),
    (lambda: RandomGenParams(-1), "counts must be >= 0"),
    (lambda: RandomGenParams(3, num_hypotheses=-1), "counts must be >= 0"),
    (lambda: RandomGenParams(3, max_clause_len=0), "max_clause_len"),
    (lambda: RandomGenParams(3, max_weight=0), "max_weight must be >= 1"),
    (lambda: QbfFormula((("x", (1,)),), (), (), (), 1), "bad quantifier"),
    (lambda: QbfFormula((("e", (1,)), ("a", (1,))), (), (), (), 1),
     "bound twice")])
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
