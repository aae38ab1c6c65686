"""End-to-end acceptance gates for the solver suite.

Eight criteria, each reported as a single PASS/FAIL line in the
terminal summary:

  1. all four algorithms solve the worked example instantly
  2. the unsolvable family stays cheap for the single-call solver
  3. the blocking baseline doubles its type-2 responses per step
  4. the take-everything family: flat single-call, exponential baseline
  5. solver agreement with brute force on 200 random instances
  6. weighted MaxSAT optimum equals exhaustive enumeration
  7. quantified encodings agree with direct explanation checking
  8. bootstrap and reduction never change the reported optimum

Tolerances are pinned in the assertions below; corpus parameters are
pinned in conftest.small_corpus.
"""

import itertools
import random
import time

import numpy as np

from abduce.baseline import BaselineVariant, solve_abhs
from abduce.brute import (CheckOutcome, bf_check_explanation, bf_eval_2qbf,
                          bf_solve)
from abduce.formula import Cnf, make_clause
from abduce.generators import (RandomGenParams, gen_family1, gen_family2,
                               gen_random)
from abduce.hyper import HyperOptions, solve_hyper
from abduce.maxsat import solve_wcnf
from abduce.qbf import emit_decision_qbf, emit_explanation_qbf

from conftest import acceptance_results, small_corpus, worked_instance

BASIC = dict(reduce_fraction=0.0, bootstrap_mcs=0)
STARRED = dict(reduce_fraction=0.2, bootstrap_mcs=100)

_corpus_cache = None


def corpus():
    global _corpus_cache
    if _corpus_cache is None:
        _corpus_cache = small_corpus(count=200, seed_base=1000)
    return _corpus_cache


def record(name, ok, detail=""):
    line = "criterion %s: %s" % (name, "PASS" if ok else "FAIL")
    if detail:
        line += " (%s)" % detail
    acceptance_results.append(line)
    assert ok, line


def test_1_worked_example_all_algorithms():
    p = worked_instance()
    runs = [
        ("hyper", lambda: solve_hyper(p, HyperOptions(**BASIC))),
        ("hyper-star", lambda: solve_hyper(p, HyperOptions(**STARRED))),
        ("abhs", lambda: solve_abhs(p, BaselineVariant.ABHS)),
        ("abhs-plus", lambda: solve_abhs(p, BaselineVariant.ABHS_PLUS)),
    ]
    ok = True
    worst = 0.0
    for _, run in runs:
        t0 = time.perf_counter()
        expl, _ = run()
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        ok &= expl is not None and expl.cost == 1 and expl.indices == (0,)
        ok &= dt < 0.1
    record("1 worked example, 4 algorithms, cost 1, each < 0.1 s",
           ok, "max %.3f s" % worst)


def test_2_unsolvable_family_single_call_stays_cheap():
    ok = True
    worst_it, worst_t = 0, 0.0
    for n in range(1, 11):
        expl, stats = solve_hyper(gen_family1(n), HyperOptions(**BASIC))
        ok &= expl is None
        ok &= stats.iterations <= 100
        ok &= stats.wall_time < 1.0
        worst_it = max(worst_it, stats.iterations)
        worst_t = max(worst_t, stats.wall_time)
    record("2 unsolvable family n=1..10, no explanation, <= 100 iterations,"
           " < 1 s", ok, "max %d iterations, %.2f s" % (worst_it, worst_t))


def test_3_blocking_baseline_doubles_type2_responses():
    ok = True
    counts = []
    for n in range(1, 7):
        expl, stats = solve_abhs(gen_family1(n), BaselineVariant.ABHS_PLUS)
        ok &= expl is None
        ok &= stats.type2_counterexamples == 2 ** n
        counts.append(stats.type2_counterexamples)
    record("3 blocking baseline n=1..6, type-2 responses exactly 2^n",
           ok, "counts %s" % counts)


def test_4_take_everything_family_flat_vs_exponential():
    ok = True
    worst_it, worst_t = 0, 0.0
    for n in range(1, 11):
        p = gen_family2(n)
        expl, stats = solve_hyper(p, HyperOptions(**BASIC))
        ok &= expl is not None and expl.cost == 2 * n
        ok &= expl.indices == tuple(range(2 * n))
        ok &= stats.iterations <= 40
        ok &= stats.wall_time < 1.0
        worst_it = max(worst_it, stats.iterations)
        worst_t = max(worst_t, stats.wall_time)
    iterations = []
    min_ratio = None
    for n in range(1, 9):
        expl, stats = solve_abhs(gen_family2(n), BaselineVariant.ABHS)
        ok &= expl is not None and expl.cost == 2 * n
        iterations.append(stats.iterations)
        if n >= 4:
            ratio = iterations[-1] / iterations[-2]
            ok &= ratio >= 1.8
            min_ratio = ratio if min_ratio is None else min(min_ratio, ratio)
    record("4 take-everything family: single-call <= 40 iterations < 1 s,"
           " baseline ratio >= 1.8 for n=4..8", ok,
           "max %d iterations %.2f s; min ratio %.2f"
           % (worst_it, worst_t, min_ratio or 0.0))


def test_5_oracle_equivalence_on_random_corpus():
    t0 = time.perf_counter()
    ok = True
    solved = 0
    for p in corpus():
        want = bf_solve(p)
        outcomes = [
            solve_hyper(p, HyperOptions(**BASIC))[0],
            solve_abhs(p, BaselineVariant.ABHS)[0],
            solve_abhs(p, BaselineVariant.ABHS_PLUS)[0],
        ]
        for expl in outcomes:
            if want is None:
                ok &= expl is None
            else:
                ok &= expl is not None and expl.cost == want.cost
                ok &= bf_check_explanation(
                    p, expl.indices) is CheckOutcome.IS_EXPL
        solved += want is not None
    dt = time.perf_counter() - t0
    ok &= dt < 60.0
    record("5 oracle equivalence on 200 random instances, zero tolerance,"
           " < 60 s", ok, "%d solvable, %.1f s" % (solved, dt))


def _wcnf_brute(nv, hard, soft):
    """Vectorized exhaustive optimum: None when the hard part is unsat."""
    count = 1 << nv
    idx = np.arange(count, dtype=np.uint32)
    cols = [(idx >> v) & 1 for v in range(nv)]

    def sat(clause):
        out = np.zeros(count, dtype=bool)
        for l in clause:
            col = cols[abs(l) - 1].astype(bool)
            out |= col if l > 0 else ~col
        return out

    feasible = np.ones(count, dtype=bool)
    for c in hard:
        feasible &= sat(c)
    if not feasible.any():
        return None
    cost = np.zeros(count, dtype=np.int64)
    for c, w in soft:
        cost += w * (~sat(c))
    return int(cost[feasible].min())


def test_6_weighted_maxsat_matches_enumeration():
    t0 = time.perf_counter()
    ok = True
    for i in range(100):
        rng = random.Random(5000 + i)
        nv = rng.randint(1, 18)

        def clause():
            variables = rng.sample(range(1, nv + 1),
                                   rng.randint(1, min(3, nv)))
            return make_clause(v if rng.random() < 0.5 else -v
                               for v in variables)

        hard = [clause() for _ in range(rng.randint(0, 12))]
        soft = [(clause(), rng.randint(1, 6))
                for _ in range(rng.randint(1, 10))]
        res = solve_wcnf(Cnf(nv, tuple(hard)), soft)
        want = _wcnf_brute(nv, hard, soft)
        if want is None:
            ok &= res.hard_unsat
        else:
            ok &= not res.hard_unsat and res.cost == want
    dt = time.perf_counter() - t0
    ok &= dt < 60.0
    record("6 weighted MaxSAT equals exhaustive optimum on 100 instances,"
           " < 60 s", ok, "%.1f s" % dt)


def test_7_quantified_encodings_agree_with_checking():
    t0 = time.perf_counter()
    ok = True
    rng = random.Random(6000)
    instances = []
    for i in range(50):
        instances.append(gen_random(RandomGenParams(
            num_vars=rng.randint(1, 4),
            num_theory_clauses=rng.randint(0, 3),
            num_hypotheses=rng.randint(0, 5),
            num_manifestations=rng.randint(0, 2),
            max_clause_len=2, max_weight=3, seed=6000 + i)))
    for p in instances:
        m = len(p.hypotheses)
        for k in range(m + 1):
            for subset in itertools.combinations(range(m), k):
                want = bf_check_explanation(
                    p, subset) is CheckOutcome.IS_EXPL
                ok &= bf_eval_2qbf(emit_explanation_qbf(p, subset)) == want
    # cost thresholds: unit weights keep the bound encoding small enough
    # for exhaustive quantifier expansion
    checked = 0
    for i in range(50):
        rng2 = random.Random(6500 + i)
        p = gen_random(RandomGenParams(
            num_vars=rng2.randint(1, 3),
            num_theory_clauses=rng2.randint(0, 2),
            num_hypotheses=rng2.randint(0, 3),
            num_manifestations=rng2.randint(0, 2),
            max_clause_len=2, max_weight=1, seed=6500 + i))
        want = bf_solve(p)
        smallest = None
        for k in range(sum(p.weights) + 1):
            if bf_eval_2qbf(emit_decision_qbf(p, k)):
                smallest = k
                break
        if want is None:
            ok &= smallest is None
        else:
            ok &= smallest == want.cost
        checked += 1
    dt = time.perf_counter() - t0
    ok &= dt < 120.0
    record("7 quantified encodings match explanation checks on 50+%d"
           " instances, < 120 s" % checked, ok, "%.1f s" % dt)


def test_8_bootstrap_and_reduction_change_nothing():
    ok = True
    compared = 0
    cases = [worked_instance()]
    cases += [gen_family1(n) for n in range(1, 11)]
    cases += [gen_family2(n) for n in range(1, 11)]
    cases += corpus()
    for p in cases:
        plain, _ = solve_hyper(p, HyperOptions(**BASIC))
        tuned, _ = solve_hyper(p, HyperOptions(**STARRED))
        if plain is None:
            ok &= tuned is None
        else:
            ok &= tuned is not None and tuned.cost == plain.cost
        compared += 1
    record("8 bootstrap + reduction leave every optimum unchanged",
           ok, "%d instances" % compared)
