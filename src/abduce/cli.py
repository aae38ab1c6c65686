"""Command-line front end: solve, verify, gen, emit and bench.

Solve prints a result banner plus cost and selected hypothesis indices
and uses SAT-competition style exit codes (10 found, 20 none, 1 error).
Bench runs each (instance, algorithm) pair in its own process with a
wall-clock timeout and appends CSV rows with the solver statistics.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from dataclasses import asdict, dataclass

from .baseline import BaselineVariant, solve_abhs
from .brute import CheckOutcome, bf_check_explanation, bf_solve
from .formula import FormatError, parse_apf, write_apf
from .generators import RandomGenParams, gen_family1, gen_family2, gen_random
from .hyper import HyperOptions, SolveStats, solve_hyper
from .qbf import (emit_decision_qbf, emit_explanation_qbf, emit_qmaxsat_qbf,
                  write_qcir, write_qdimacs)

EXIT_FOUND = 10
EXIT_NONE = 20
EXIT_ERROR = 1

CSV_FIELDS = ["instance", "algo", "result", "cost", "iterations",
              "type1", "type2", "hs_calls", "sat_calls", "time_s", "error"]

ALGOS = ("hyper", "hyper-star", "abhs", "abhs-plus", "bf")


@dataclass
class RunRecord:
    instance: str
    algo: str
    result: str  # explanation | no-explanation | timeout | error
    cost: int | None
    iterations: int
    type1: int
    type2: int
    hs_calls: int
    sat_calls: int
    time_s: float
    error: str = ""  # why result is "error"; empty otherwise

    def row(self):
        d = asdict(self)
        d["cost"] = "" if self.cost is None else self.cost
        d["time_s"] = "%.3f" % self.time_s
        return d


def append_records(path, records):
    new_file = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
        if new_file:
            writer.writeheader()
        for rec in records:
            writer.writerow(rec.row())


def run_algo(algo, p, seed=0, bootstrap=None, reduce_frac=None,
             preprocess=""):
    """Dispatch to a solver; returns (Explanation | None, SolveStats)."""
    if algo == "bf":
        t0 = time.perf_counter()
        expl = bf_solve(p)
        stats = SolveStats(wall_time=time.perf_counter() - t0)
        return expl, stats
    if algo in ("hyper", "hyper-star"):
        opts = HyperOptions()
        if algo == "hyper-star":
            opts.bootstrap_mcs = 100
            opts.reduce_fraction = 0.2
        if bootstrap is not None:
            opts.bootstrap_mcs = bootstrap
        if reduce_frac is not None:
            opts.reduce_fraction = reduce_frac
        pieces = [s.strip() for s in preprocess.split(",") if s.strip()]
        for piece in pieces:
            if piece == "m":
                opts.preprocess_m = True
            elif piece == "h":
                opts.preprocess_h = True
            else:
                raise ValueError("unknown preprocess target %r" % piece)
        return solve_hyper(p, opts)
    variant = BaselineVariant(algo)
    return solve_abhs(p, variant, seed=seed)


def make_record(instance, algo, expl, stats):
    return RunRecord(
        instance=instance, algo=algo,
        result="explanation" if expl is not None else "no-explanation",
        cost=expl.cost if expl is not None else None,
        iterations=stats.iterations,
        type1=stats.type1_counterexamples,
        type2=stats.type2_counterexamples,
        hs_calls=stats.hs_calls, sat_calls=stats.sat_calls,
        time_s=stats.wall_time)


def _load(path):
    with open(path) as fh:
        return parse_apf(fh.read())


def run_solve(args) -> int:
    try:
        p = _load(args.file)
        expl, stats = run_algo(args.algo, p, seed=args.seed,
                               bootstrap=args.bootstrap,
                               reduce_frac=args.reduce_frac,
                               preprocess=args.preprocess)
    except (OSError, FormatError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR
    if args.stats:
        append_records(args.stats, [make_record(args.file, args.algo,
                                                expl, stats)])
    if expl is not None:
        print("s EXPLANATION FOUND")
        print("o %d" % expl.cost)
        print("v %s" % " ".join(str(i) for i in expl.indices))
        return EXIT_FOUND
    print("s NO EXPLANATION")
    return EXIT_NONE


def run_verify(args) -> int:
    try:
        p = _load(args.file)
        indices = [int(tok) for tok in args.indices.replace(",", " ").split()]
        outcome = bf_check_explanation(p, indices)
    except (OSError, FormatError, ValueError, IndexError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR
    if outcome is CheckOutcome.IS_EXPL:
        print("s VERIFIED")
        return 0
    print("s NOT AN EXPLANATION (%s)" % outcome.value)
    return 2


def run_gen(args) -> int:
    try:
        if args.family == "family1":
            p = gen_family1(args.n)
        elif args.family == "family2":
            p = gen_family2(args.n)
        else:
            p = gen_random(RandomGenParams(
                num_vars=args.num_vars,
                num_theory_clauses=args.theory,
                num_hypotheses=args.hypotheses,
                num_manifestations=args.manifestations,
                max_clause_len=args.max_clause_len,
                max_weight=args.max_weight, seed=args.seed))
        text = write_apf(p)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR
    return 0


def run_emit(args) -> int:
    try:
        p = _load(args.file)
        if args.encoding == "explanation":
            indices = [int(tok)
                       for tok in args.indices.replace(",", " ").split()]
            q = emit_explanation_qbf(p, indices)
        elif args.encoding == "qmaxsat":
            q, soft = emit_qmaxsat_qbf(
                p, appendix_polarity=args.appendix_polarity)
        else:
            q = emit_decision_qbf(p, args.k)
        text = write_qcir(q) if args.format == "qcir" else write_qdimacs(q)
        if args.encoding == "qmaxsat":
            comment = "" if args.format == "qcir" else "c "
            text += "".join("%ssoft %d %d\n" % (comment, lit, w)
                            for lit, w in soft)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (OSError, FormatError, ValueError, IndexError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR
    return 0


def _bench_worker(path, algo, seed, queue):
    try:
        p = _load(path)
        expl, stats = run_algo(algo, p, seed=seed)
        queue.put(make_record(path, algo, expl, stats))
    except Exception as exc:  # noqa: BLE001 - reported as an error row
        queue.put(RunRecord(path, algo, "error", None, 0, 0, 0, 0, 0, 0.0,
                            "%s: %s" % (type(exc).__name__, exc)))


def run_bench(args) -> int:
    import multiprocessing

    if args.timeout < 1:
        print("error: timeout must be >= 1 s", file=sys.stderr)
        return EXIT_ERROR
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    for a in algos:
        if a not in ALGOS:
            print("error: unknown algorithm %r" % a, file=sys.stderr)
            return EXIT_ERROR
    records = []
    for path in args.files:
        for algo in algos:
            queue = multiprocessing.Queue()
            proc = multiprocessing.Process(
                target=_bench_worker, args=(path, algo, args.seed, queue))
            t0 = time.perf_counter()
            proc.start()
            proc.join(args.timeout)
            if proc.is_alive():
                proc.terminate()
                proc.join()
                rec = RunRecord(path, algo, "timeout", None, 0, 0, 0, 0, 0,
                                time.perf_counter() - t0)
            else:
                rec = queue.get() if not queue.empty() else RunRecord(
                    path, algo, "error", None, 0, 0, 0, 0, 0,
                    time.perf_counter() - t0,
                    "worker exited with code %s and no result" % proc.exitcode)
            records.append(rec)
            print("%s %s: %s" % (path, algo, rec.result))
    append_records(args.out, records)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="abduce",
        description="minimum-cost propositional abduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve an APF instance")
    ps.add_argument("--algo", choices=ALGOS, default="hyper")
    ps.add_argument("--bootstrap", type=int, default=None, metavar="N")
    ps.add_argument("--reduce-frac", type=float, default=None, metavar="F")
    ps.add_argument("--preprocess", default="", metavar="m,h")
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--stats", default=None, metavar="FILE.csv")
    ps.add_argument("file")
    ps.set_defaults(func=run_solve)

    pv = sub.add_parser("verify", help="check a claimed explanation")
    pv.add_argument("file")
    pv.add_argument("indices", help="hypothesis indices, e.g. '0,2'")
    pv.set_defaults(func=run_verify)

    pg = sub.add_parser("gen", help="generate an APF instance")
    pg.add_argument("family", choices=("family1", "family2", "random"))
    pg.add_argument("--n", type=int, default=1)
    pg.add_argument("--num-vars", type=int, default=10)
    pg.add_argument("--theory", type=int, default=5)
    pg.add_argument("--hypotheses", type=int, default=5)
    pg.add_argument("--manifestations", type=int, default=1)
    pg.add_argument("--max-clause-len", type=int, default=3)
    pg.add_argument("--max-weight", type=int, default=1)
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("-o", "--output", default=None)
    pg.set_defaults(func=run_gen)

    pe = sub.add_parser("emit", help="emit a QBF encoding")
    pe.add_argument("encoding", choices=("explanation", "qmaxsat", "decision"))
    pe.add_argument("--format", choices=("qcir", "qdimacs"), default="qcir")
    pe.add_argument("--indices", default="",
                    help="hypothesis subset for 'explanation'")
    pe.add_argument("--k", type=int, default=0, help="bound for 'decision'")
    pe.add_argument("--appendix-polarity", action="store_true",
                    help="emit relaxed clauses as (r_i or C_i)")
    pe.add_argument("-o", "--output", default=None)
    pe.add_argument("file")
    pe.set_defaults(func=run_emit)

    pb = sub.add_parser("bench", help="run algorithms over instance files")
    pb.add_argument("--algos", default="hyper,hyper-star,abhs,abhs-plus")
    pb.add_argument("--timeout", type=int, default=60, help="seconds per run")
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--out", required=True, metavar="FILE.csv")
    pb.add_argument("files", nargs="+")
    pb.set_defaults(func=run_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
