"""Benchmark of `abduce`: solve a seeded corpus, check it, print metrics.

    python3 perfbench/run.py --workload planted-default --seed 1 \
        --seconds 25 --trace 0

Run from the root of a checkout.  The corpus is generated here from the
seed (instances.py), solved in a child process (worker.py) through
``cli.run_algo`` on ``parse_apf`` text, and checked here (check.py).
The last line of stdout is the JSON result; with ``--trace 1`` it holds
the per-layer metrics of a traced pass instead of the end-to-end ones.

    python3 perfbench/run.py --rebuild-cache

solves every instance a workload can draw and recomputes the verdict
cache from nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import check  # noqa: E402
import instances  # noqa: E402
import speed  # noqa: E402

# Planted instances (90 variables, 54 hypotheses) whose basic-loop solve
# (hyper --reduce-frac 0) passed the 1 s per-solve ceiling when the pool
# was screened; planted-variants never draws them.
VARIANTS_LEFT_OUT = (18, 22, 32, 36, 37, 46)

BASIC = {"algo": "hyper", "reduce_frac": 0.0}
# A run draws most of a fixed pool, or all of it in an order the seed
# sets: the draw changes with the seed, but leaves out few enough
# instances that corpus_s measures the code, not the draw (see README.md).
WORKLOADS = {
    # what `abduce solve` runs: hyper with the CLI defaults
    "planted-default": {
        "params": {"num_vars": 100, "num_hyps": 40},
        "pool": range(140), "draw": 100,
        "configs": {"hyper": {"algo": "hyper"}},
    },
    # the same generator, more hypotheses, under the basic loop and hyper-star
    "planted-variants": {
        "params": {"num_vars": 90, "num_hyps": 54},
        "pool": [i for i in range(52) if i not in VARIANTS_LEFT_OUT],
        "draw": 46,
        "configs": {"hyper-basic": BASIC, "hyper-star": {"algo": "hyper-star"}},
    },
    # the paper's analytic families: (family, n, configuration)
    "families-baseline": {
        "solves": [(1, 6, "abhs-plus"), (1, 4, "abhs"), (2, 8, "abhs"),
                   (1, 40, "hyper-basic"), (2, 40, "hyper-basic")],
        "configs": {"abhs-plus": {"algo": "abhs-plus"}, "abhs": {"algo": "abhs"},
                    "hyper-basic": BASIC},
    },
}
SETUP_SAMPLES = 9
WORKER_TIMEOUT_S = 150


def corpus(workload, seed, whole_pool=False):
    """(instances, solves); a solve is (instance index, configuration name)."""
    spec = WORKLOADS[workload]
    rng = random.Random("%s:%d" % (workload, seed))
    if "pool" in spec:
        ids = list(spec["pool"])
        if not whole_pool:
            ids = rng.sample(ids, spec["draw"])
        insts = [instances.planted(i, **spec["params"]) for i in ids]
        solves = [(k, c) for k in range(len(insts)) for c in spec["configs"]]
    else:
        insts, solves = [], []
        for kind, n, config in spec["solves"]:
            solves.append((len(insts), config))
            insts.append(instances.family(kind, n))
        rng.shuffle(solves)
    return insts, solves


def run_worker(job, *flags, timeout=WORKER_TIMEOUT_S):
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), *flags],
            input=json.dumps(job), capture_output=True, text=True, cwd=ROOT,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit("worker ran past %s s" % timeout) from None
    if proc.returncode != 0:
        raise SystemExit("worker failed (%d): %s" % (proc.returncode,
                                                     proc.stderr.strip()))
    return json.loads(proc.stdout)


def solve_once(workload, insts, solves):
    """Solve each (instance, configuration) once, without a time limit;
    returns {instance index: {configuration: answer}}."""
    configs = WORKLOADS[workload]["configs"]
    result = run_worker({"texts": [i["text"] for i in insts],
                         "jobs": [(k, configs[c]) for k, c in solves]},
                        timeout=None)
    answers = {}
    for (k, c), ans in zip(solves, result["answers"]):
        answers.setdefault(k, {})[c] = ans
    return answers


def measure_setup(texts):
    """(wall, scaled): median over fresh processes of importing abduce
    plus parsing, as measured and at the reference speed."""
    job = {"texts": texts}
    run_worker(job, "--setup-only")  # untimed: writes the bytecode caches
    samples = [run_worker(job, "--setup-only") for _ in range(SETUP_SAMPLES)]
    wall = statistics.median(s["setup_s"] for s in samples)
    return wall, wall * speed.factor([t for s in samples for t in s["probe_s"]])


def judge_all(insts, solves, rounds):
    """(errors, problems): solves that raised, and answers that fail a check.

    Every round must give the same answers and counts as the first.
    """
    errors, problems = [], []
    first = rounds[0]
    by_inst = {}
    for r in rounds:
        for (k, config), ans, cnt, ans0, cnt0 in zip(
                solves, r["answers"], r["counts"], first["answers"],
                first["counts"]):
            if isinstance(ans, dict):
                errors.append("%s %s: %s" % (insts[k]["name"], config,
                                             ans["error"]))
            elif ans != ans0 or cnt != cnt0:
                problems.append("%s %s: rounds differ (%r/%r vs %r/%r)" % (
                    insts[k]["name"], config, ans, cnt, ans0, cnt0))
            by_inst.setdefault(k, {})[config] = ans
    cache = check.VerdictCache()
    for k, answers in sorted(by_inst.items()):
        answers = {c: a for c, a in answers.items() if not isinstance(a, dict)}
        problems += ["%s %s" % (insts[k]["name"], p)
                     for p in check.judge(insts[k], answers, cache)]
    if cache.added:
        cache.save()
    return errors, problems


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rebuild-cache", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "abduce", "__init__.py")):
        raise SystemExit("no src/abduce under %s: nothing to benchmark" % ROOT)
    if args.rebuild_cache:
        return rebuild_cache()
    if args.workload is None:
        ap.error("--workload is required")
    os.makedirs(OUT, exist_ok=True)

    insts, solves = corpus(args.workload, args.seed)
    texts = [inst["text"] for inst in insts]
    setup_wall_s, setup_s = measure_setup(texts)
    tag = "%s-%d-%d" % (args.workload, args.seed, args.trace)
    configs = WORKLOADS[args.workload]["configs"]
    job = {"texts": texts, "jobs": [(k, configs[c]) for k, c in solves]}
    # whole passes, each in a fresh process; another starts while it fits
    rounds, start, last = [], time.perf_counter(), 0.0
    while not rounds or (not args.trace and time.perf_counter() - start + last
                         <= args.seconds):
        t0 = time.perf_counter()
        rounds.append(run_worker(job))
        last = time.perf_counter() - t0
    if args.trace:
        traced = run_worker(dict(job, trace_path=os.path.join(
            OUT, "trace-%s.jsonl" % tag)))
        rounds.append(traced)
    errors, problems = judge_all(insts, solves, rounds)
    for e in errors:
        print("SOLVE FAILED:", e)
    for p in problems:
        print("CHECK FAILED:", p)

    # untraced solve times at the reference speed (speed.py)
    untraced = [r for r in rounds if "layers" not in r]
    for r in untraced:
        r["scaled"] = speed.scaled(r["times"], r["probe_s"], r["probe_spans"])
        r["factor"] = sum(r["scaled"]) / sum(r["times"])
    wall_s = statistics.mean(sum(r["times"]) for r in untraced)
    corpus_s = statistics.mean(sum(r["scaled"]) for r in untraced)
    times = [t for r in untraced for t in r["scaled"]]
    attempted = len(solves) * len(rounds)
    print("wall time: corpus %.3f s, setup %.4f s; at the reference speed: "
          "corpus %.3f s, setup %.4f s (factors %s)" % (
              wall_s, setup_wall_s, corpus_s, setup_s,
              " ".join("%.3f" % r["factor"] for r in untraced)))
    if args.trace:
        metrics = {k: metric(v, u) for k, (v, u) in traced["layers"].items()}
        # the traced pass is not probed, so compare wall times
        traced_s = sum(traced["times"])
        metrics["trace.overhead_share"] = metric(traced_s / wall_s - 1, "ratio")
        print("traced corpus wall time %.3f s, untraced %.3f s (overhead %.1f%%)"
              % (traced_s, wall_s, 100 * (traced_s / wall_s - 1)))
    else:
        metrics = {
            "corpus_s": metric(corpus_s, "s"),
            "solve_s.p50": metric(statistics.median(times), "s"),
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(max(r["peak_rss_mb"] for r in rounds), "MB"),
        }
        print("solve_s.p50 over %d solves; %d round(s) of %d solves"
              % (len(times), len(untraced), len(solves)))
    for name, m in metrics.items():
        print("%-28s %14.6g %s" % (name, m["value"], m["unit"]))
    out = {"correct": not problems, "attempted": attempted,
           "failed": len(errors), "metrics": metrics}
    with open(os.path.join(OUT, "run-%s.json" % tag), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "instances": [i["name"] for i in insts], "solves": solves,
                   "rounds": rounds, "setup_s": setup_s,
                   "setup_wall_s": setup_wall_s, "errors": errors,
                   "problems": problems,
                   "result": out}, fh)
    print(json.dumps(out))
    return 0


def rebuild_cache():
    """Solve every instance any workload can draw and re-judge it."""
    fresh = check.VerdictCache(path=None)
    for name in WORKLOADS:
        insts, solves = corpus(name, 0, whole_pool=True)
        for k, answers in sorted(solve_once(name, insts, solves).items()):
            for p in check.judge(insts[k], answers, fresh):
                print("%s: %s %s" % (name, insts[k]["name"], p))
        print("%s: %d instances judged" % (name, len(insts)), flush=True)
    fresh.path = check.CACHE
    fresh.save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
