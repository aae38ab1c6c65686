"""Self-test of the benchmark's checks.

    python3 perfbench/selftest.py

1. The checker's own CDCL solver agrees with exhaustive search and with
   scipy's HiGHS MILP on small random CNFs.
2. For each workload, the true answers of a few drawn instances pass
   the checks, and every corruption of them is rejected: an index
   dropped (cost kept consistent, so only the entailment check can
   object), an index added, the cost off by one, "no explanation" where
   one exists, an explanation where none exists, and a valid but
   costlier answer from one configuration.

Exits 1 on the first failure.  Verdicts are computed afresh, not read
from the cache.
"""

from __future__ import annotations

import random
import sys

import run
from check import Cdcl, VerdictCache, judge


def brute_sat(n, clauses):
    return any(all(any(((bits >> (abs(l) - 1)) & 1) == (l > 0) for l in c)
                   for c in clauses) for bits in range(1 << n))


def highs_sat(n, clauses):
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    if not clauses:
        return True
    a = np.zeros((len(clauses), n))
    lb = np.ones(len(clauses))
    for row, c in enumerate(clauses):
        for l in c:
            a[row, abs(l) - 1] += 1 if l > 0 else -1
            lb[row] -= 0 if l > 0 else 1
    res = milp(np.zeros(n), constraints=LinearConstraint(a, lb, np.inf),
               integrality=np.ones(n), bounds=Bounds(0, 1))
    return res.status == 0


def test_solver(trials=300):
    rng = random.Random(7)
    for t in range(trials):
        n = rng.randint(1, 10)
        clauses = [[v if rng.random() < 0.5 else -v
                    for v in rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))]
                   for _ in range(rng.randint(0, 5 * n))]
        model = Cdcl(n, [list(c) for c in clauses]).solve()
        expect = brute_sat(n, clauses)
        if (model is not None) != expect or expect != highs_sat(n, clauses):
            fail("solver disagrees on CNF %r" % clauses)
        if model is not None and not all(
                any(model[abs(l)] == (l > 0) for l in c) for c in clauses):
            fail("solver model does not satisfy CNF %r" % clauses)
    print("ok   checker CDCL agrees with brute force and HiGHS on %d CNFs" % trials)


def corruptions(inst, ans):
    """(label, corrupted answer) pairs for one true answer."""
    weights = inst["weights"]
    if ans is None:
        every = list(range(len(weights)))
        return [("explanation where none exists", [every, sum(weights)])]
    idx, cost = ans
    out = [("cost off by one", [idx, cost + 1]),
           ("no explanation where one exists", None)]
    if idx:
        rest = idx[1:]
        out.append(("index dropped", [rest, sum(weights[i] for i in rest)]))
    extra = [i for i in range(len(weights)) if i not in idx]
    if extra:
        out.append(("index added", [sorted(idx + extra[:1]), cost]))
    return out


def test_workload(name, count):
    insts, solves = run.corpus(name, 1)
    keep = sorted({k for k, _ in solves})[:count]
    answers = run.solve_once(name, insts, [(k, c) for k, c in solves if k in keep])
    cache = VerdictCache(path=None)
    rejected = 0
    for k, got in sorted(answers.items()):
        inst = insts[k]
        problems = judge(inst, got, cache)
        if problems:
            fail("%s %s: true answers rejected: %s" % (name, inst["name"], problems))
        config, ans = sorted(got.items())[0]
        bad = corruptions(inst, ans)
        if len(got) > 1 and ans is not None and inst.get("planted_cost", 0) > ans[1]:
            bad.append(("a costlier valid answer from one configuration",
                        [inst["planted"], inst["planted_cost"]]))
        for label, wrong in bad:
            if not judge(inst, dict(got, **{config: wrong}), cache):
                fail("%s %s: %s was accepted: %r" % (name, inst["name"], label, wrong))
            if (label == "index dropped" and "planted" in inst
                    and cache.verdict(inst["text"], wrong[0]) != "not-entailed"):
                fail("%s %s: %s not refuted by a model" % (name, inst["name"], label))
            rejected += 1
    print("ok   %s: %d true answers pass, %d corruptions rejected"
          % (name, sum(map(len, answers.values())), rejected))


def fail(msg):
    print("FAIL", msg)
    sys.exit(1)


def main():
    test_solver()
    for name in run.WORKLOADS:
        test_workload(name, 3)
    return 0


if __name__ == "__main__":
    sys.exit(main())
