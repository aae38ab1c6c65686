"""The boundaries perfbench's tracer wraps from outside still resolve.

``perfbench/tracer.py`` replaces module and class attributes by name and
reads some arguments and counters by position or name, so a rename, a
move or an inherited method in the package would drop or double-count a
layer of the benchmark's per-layer metrics.  The tracer file is loaded
by path and never edited; the one test that installs it saves every
boundary first, so its wrappers are undone afterwards.
"""

import importlib.util
import inspect
import pathlib

import pytest

import abduce
import abduce.cli
from abduce import hitting, maxsat
from abduce.generators import gen_family1
from abduce.hyper import SolveStats, solve_hyper
from abduce.maxsat import CostMinimizer
from abduce.sat import Solver

from conftest import trap_instance, worked_instance

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def boundaries():
    return load_tracer().BOUNDARIES


def resolve(owner):
    mod, _, cls = owner.partition(".")
    target = getattr(abduce, mod)
    return getattr(target, cls) if cls else target


def test_every_boundary_resolves():
    for owner, attr, name in boundaries():
        assert callable(getattr(resolve(owner), attr)), name


def test_no_traced_method_is_inherited():
    # a method inherited from another traced class would be wrapped twice
    seen = {}
    for owner, attr, name in boundaries():
        if "." not in owner:
            continue
        cls = resolve(owner)
        assert attr in vars(cls), "%s.%s is inherited" % (owner, attr)
        fn = vars(cls)[attr]
        assert seen.setdefault(id(fn), name) == name, (owner, attr)


def test_counted_arguments_and_fields():
    # the tracer reads Totalizer's inputs and the set given to reduce as
    # args[2], and these counters
    params = inspect.signature(maxsat.Totalizer.__init__).parameters
    assert list(params) == ["self", "solver", "inputs"]
    params = inspect.signature(hitting.CorrectionSetReducer.reduce).parameters
    assert list(params) == ["self", "model", "falsified", "fraction"]
    # and the reducer has no knob of its own
    params = inspect.signature(hitting.CorrectionSetReducer.__init__).parameters
    assert list(params) == ["self", "theory", "hypotheses", "manifestations",
                            "weights"]
    # nor the hitting-set context: the baselines scatter their own ties
    params = inspect.signature(hitting.HittingSetContext.__init__).parameters
    assert list(params) == ["self", "weights", "num_base_vars"]
    for attr in ("num_conflicts", "num_decisions", "num_propagations"):
        assert hasattr(Solver(), attr)
    for attr in ("cores_found", "trim_solves"):
        assert hasattr(CostMinimizer(), attr)
    fields = set(SolveStats.__slots__)
    assert {"iterations", "sat_calls", "hs_calls", "type1_counterexamples",
            "type2_counterexamples"} <= fields


def test_background_is_added_clause_by_clause(monkeypatch):
    added = []
    original = hitting.HittingSetContext.add_background

    def spy(self, clause):
        added.append(tuple(clause))
        return original(self, clause)

    monkeypatch.setattr(hitting.HittingSetContext, "add_background", spy)
    p = trap_instance()  # T and M and H has no model: the full background
    solve_hyper(p)
    assert len(added) == (len(p.theory) + len(p.manifestations)
                          + len(p.hypotheses))
    added.clear()
    solve_hyper(worked_instance())  # a witness: no background at all
    assert added == []


@pytest.mark.parametrize("instance", [gen_family1(3), trap_instance()],
                         ids=["family1", "trap"])
@pytest.mark.parametrize("algo, kwargs", [
    ("hyper", {}), ("hyper-star", {}), ("hyper", {"reduce_frac": 0.0}),
    ("abhs", {}), ("abhs-plus", {})], ids=["hyper", "hyper-star",
                                           "hyper-basic", "abhs", "abhs-plus"])
def test_tracer_sees_every_loop_call(monkeypatch, instance, algo, kwargs):
    # the tracer's counts, taken at the boundaries from outside, match what
    # the loop counts itself, so no loop step bypasses a traced boundary
    tracer = load_tracer()
    for owner, attr, _ in tracer.BOUNDARIES:
        target = resolve(owner)
        monkeypatch.setattr(target, attr, getattr(target, attr))
    tr = tracer.install({name: getattr(abduce, name) for name in (
        "cli", "hyper", "baseline", "hitting", "maxsat", "sat")})
    _, stats = abduce.cli.run_algo(algo, instance, **kwargs)
    calls, _, _ = tr.totals()
    assert calls["cli.run_algo"] == 1
    assert calls["loop.check"] == stats.sat_calls
    assert calls["hitting.candidate"] == stats.hs_calls
    assert tr.counts["loop.iterations"] == stats.iterations
    assert tr.counts["loop.type1"] == stats.type1_counterexamples
    assert tr.counts["loop.type2"] == stats.type2_counterexamples
    assert tr.counts["hitting.bootstrap_mcs"] == stats.bootstrap_mcs_found
