"""Spans and counts at the public boundaries of `abduce`'s layers.

:func:`install` wraps the layer functions from outside, by replacing
module and class attributes, so the code under test is not edited.
Each call records a span (name, start, end, parent); spans stay in
memory until :meth:`Tracer.dump`.  Counts are taken at the same
boundaries: engine counter deltas around ``Solver.solve``, core and
trim deltas around ``CostMinimizer.compute``, set sizes, reduction
sizes and the loop's ``SolveStats``.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# (owner, attribute, span name); owners are resolved inside install()
BOUNDARIES = [
    ("cli", "run_algo", "cli.run_algo"),
    ("cli", "solve_hyper", "loop.solve_hyper"),
    ("cli", "solve_abhs", "loop.solve_abhs"),
    ("hyper.EntailmentChecker", "check", "loop.check"),
    ("baseline.ConsistencyChecker", "check", "loop.check"),
    ("hitting.HittingSetContext", "__init__", "hitting.init"),
    ("hitting.HittingSetContext", "add_background", "hitting.add_background"),
    ("hitting.HittingSetContext", "hs_next_candidate", "hitting.candidate"),
    ("hitting.HittingSetContext", "hs_add_set", "hitting.add_set"),
    ("hitting.HittingSetContext", "hs_add_block", "hitting.add_block"),
    ("hyper", "enumerate_mcs", "hitting.bootstrap"),
    ("hitting.CorrectionSetReducer", "reduce", "hitting.reduce"),
    ("maxsat.CostMinimizer", "compute", "maxsat.compute"),
    ("maxsat.Totalizer", "__init__", "maxsat.totalizer"),
    ("sat.Solver", "solve", "sat.solve"),
]


class Tracer:
    """Spans kept in flat parallel lists (name, parent index, start, end),
    so a call adds numbers to lists rather than a new object per span."""

    def __init__(self):
        self.names, self.parents, self.starts, self.ends = [], [], [], []
        self.stack = []
        self.counts = defaultdict(float)

    def span(self, name, fn, count):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, counts, clock = self.stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            before = count(args, None, counts) if count else None
            starts[idx] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count:
                count(args, (before, out), counts)
            return out

        return wrapper

    def totals(self, keep=None):
        """Per span name: (calls, inclusive seconds, self seconds).

        Only spans whose index passes ``keep`` count, when it is given.
        Inclusive time counts only the outermost span of a name, so a
        span nested in one of its own name is not counted twice.
        """
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += dur[i]
        calls, incl, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
        for i, name in enumerate(self.names):
            if keep is not None and not keep(i):
                continue
            calls[name] += 1
            if self._outermost(i):
                incl[name] += dur[i]
            self_s[name] += dur[i] - child[i]
        return calls, incl, self_s

    def _outermost(self, i):
        name, parent = self.names[i], self.parents[i]
        while parent >= 0:
            if self.names[parent] == name:
                return False
            parent = self.parents[parent]
        return True

    @classmethod
    def load(cls, path):
        """The spans :meth:`dump` wrote, without counts."""
        tracer = cls()
        with open(path) as fh:
            for line in fh:
                span = json.loads(line)
                tracer.names.append(span["name"])
                tracer.parents.append(span["parent"])
                tracer.starts.append(span["start"])
                tracer.ends.append(span["end"])
        return tracer

    def dump(self, path):
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({"id": i, "parent": self.parents[i],
                                     "name": name, "start": self.starts[i],
                                     "end": self.ends[i]}) + "\n")


# -- counts taken at the boundaries ------------------------------------------
# Each is called twice: before the call with result None (returns state to
# keep), and after it with (state, return value).


def _sat_counts(args, result, counts):
    s = args[0]
    now = (s.num_conflicts, s.num_decisions, s.num_propagations)
    if result is None:
        return now
    before, _ = result
    counts["sat.conflicts"] += now[0] - before[0]
    counts["sat.decisions"] += now[1] - before[1]
    counts["sat.propagations"] += now[2] - before[2]


def _compute_counts(args, result, counts):
    m = args[0]
    now = (m.cores_found, m.trim_solves)
    if result is None:
        return now
    before, _ = result
    counts["maxsat.cores"] += now[0] - before[0]
    counts["maxsat.trim_solves"] += now[1] - before[1]


def _totalizer_counts(args, result, counts):
    if result is not None:
        counts["maxsat.totalizers"] += 1
        counts["maxsat.totalizer_inputs"] += len(args[2])


def _set_counts(args, result, counts):
    if result is not None:
        counts["hitting.set_elements"] += len(args[1])


def _bootstrap_counts(args, result, counts):
    if result is not None and result[1] is not None:
        counts["hitting.bootstrap_mcs"] += len(result[1])


def _reduce_counts(args, result, counts):
    if result is not None:
        given = len(args[2])
        counts["hitting.reduce_given"] += given
        counts["hitting.reduce_removed"] += given - len(result[1])


def _loop_counts(args, result, counts):
    if result is not None:
        stats = result[1][1]
        counts["loop.iterations"] += stats.iterations
        counts["loop.oracle_calls"] += stats.sat_calls + stats.hs_calls
        counts["loop.type1"] += stats.type1_counterexamples
        counts["loop.type2"] += stats.type2_counterexamples


COUNTS = {
    "sat.solve": _sat_counts,
    "maxsat.compute": _compute_counts,
    "maxsat.totalizer": _totalizer_counts,
    "hitting.add_set": _set_counts,
    "hitting.bootstrap": _bootstrap_counts,
    "hitting.reduce": _reduce_counts,
    "loop.solve_hyper": _loop_counts,
    "loop.solve_abhs": _loop_counts,
}


def install(abduce_modules):
    """Wrap every boundary; ``abduce_modules`` maps short names to modules."""
    tracer = Tracer()
    for owner, attr, name in BOUNDARIES:
        mod, _, cls = owner.partition(".")
        target = abduce_modules[mod]
        if cls:
            target = getattr(target, cls)
        setattr(target, attr, tracer.span(name, getattr(target, attr),
                                          COUNTS.get(name)))
    return tracer


def layer_metrics(tracer, parse_s):
    """The per-layer metrics of one traced corpus, by name.

    Times of steps that only some workloads take (bootstrap, reduction)
    would read 0 on every run of the others, so they are given as counts
    here and as times by shares.py.
    """
    calls, incl, self_s = tracer.totals()
    c = tracer.counts

    def layer_self(prefix):
        return sum(v for k, v in self_s.items() if k.startswith(prefix))

    sat_s = incl["sat.solve"]
    candidates = calls["hitting.candidate"]
    sets = calls["hitting.add_set"]
    given = c["hitting.reduce_given"]
    return {
        "sat.calls": (calls["sat.solve"], "count"),
        "sat.s": (sat_s, "s"),
        "sat.conflicts": (c["sat.conflicts"], "count"),
        "sat.decisions": (c["sat.decisions"], "count"),
        "sat.propagations": (c["sat.propagations"], "count"),
        "sat.propagations_per_s": (c["sat.propagations"] / sat_s, "1/s"),
        "sat.conflicts_per_s": (c["sat.conflicts"] / sat_s, "1/s"),
        "maxsat.computes": (calls["maxsat.compute"], "count"),
        "maxsat.self_s": (layer_self("maxsat."), "s"),
        "maxsat.cores": (c["maxsat.cores"], "count"),
        "maxsat.trim_solves": (c["maxsat.trim_solves"], "count"),
        "maxsat.totalizers": (c["maxsat.totalizers"], "count"),
        "maxsat.totalizer_inputs": (c["maxsat.totalizer_inputs"], "count"),
        "hitting.candidates": (candidates, "count"),
        "hitting.candidate_s": (incl["hitting.candidate"], "s"),
        "hitting.candidate_s.mean": (incl["hitting.candidate"] / candidates, "s"),
        "hitting.sets": (sets, "count"),
        "hitting.blocks": (calls["hitting.add_block"], "count"),
        "hitting.set_size.mean": (c["hitting.set_elements"] / sets if sets else 0.0,
                                  "count"),
        "hitting.bootstrap_mcs": (c["hitting.bootstrap_mcs"], "count"),
        "hitting.reduce_calls": (calls["hitting.reduce"], "count"),
        "hitting.reduce_shrink": (c["hitting.reduce_removed"] / given if given else 0.0,
                                  "ratio"),
        "hitting.self_s": (layer_self("hitting."), "s"),
        "loop.iterations": (c["loop.iterations"], "count"),
        "loop.oracle_calls": (c["loop.oracle_calls"], "count"),
        "loop.type1": (c["loop.type1"], "count"),
        "loop.type2": (c["loop.type2"], "count"),
        "loop.check_calls": (calls["loop.check"], "count"),
        "loop.check_s": (incl["loop.check"], "s"),
        "loop.self_s": (layer_self("loop."), "s"),
        "cli.self_s": (layer_self("cli."), "s"),
        "formula.parse_s": (parse_s, "s"),
    }
