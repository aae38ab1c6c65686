"""Command-line front end: solve, verify, gen, emit and bench.

Solve prints a result banner plus cost and selected hypothesis indices
and uses SAT-competition style exit codes (10 found, 20 none, 1 error).
Bench runs each (instance, algorithm) pair in its own process with a
wall-clock timeout and appends a CSV row with the solver statistics as
each run ends.  Usage errors exit 1 as well; verify keeps 2 for "not an
explanation".
"""

from __future__ import annotations

import contextlib
import sys
import time

from .baseline import solve_abhs
from .formula import _count, parse_apf, write_apf
from .hyper import HyperOptions, SolveStats, solve_hyper, timed

EXIT_FOUND = 10
EXIT_NONE = 20
EXIT_ERROR = 1

CSV_FIELDS = ["instance", "algo", "result", "cost", "iterations",
              "type1", "type2", "hs_calls", "sat_calls", "time_s", "error"]

ALGOS = ("hyper", "hyper-star", "abhs", "abhs-plus", "bf")


def csv_row(instance, algo, expl=None, stats=None, result=None, time_s=0.0,
            error=""):
    """One run's CSV row, as the dict ``csv.DictWriter`` writes.

    A run that solved gives its answer and ``stats``.  A run that did not
    gives ``result`` ("timeout" or "error"), its time and, for "error",
    why; its counts are 0.
    """
    if result is None:
        result = "explanation" if expl is not None else "no-explanation"
    else:
        stats = SolveStats(wall_time=time_s)
    return dict(zip(CSV_FIELDS, (
        instance, algo, result, "" if expl is None else expl.cost,
        stats.iterations, stats.type1_counterexamples,
        stats.type2_counterexamples, stats.hs_calls, stats.sat_calls,
        "%.3f" % stats.wall_time, error)))


def open_records(path):
    """Open ``path`` to append CSV rows; a new or empty file gets the
    header first.  Returns (file, csv.DictWriter)."""
    import csv

    fh = open(path, "a", newline="")
    writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
    if fh.tell() == 0:
        writer.writeheader()
        fh.flush()
    return fh, writer


def run_algo(algo, p, bootstrap=None, reduce_frac=None):
    """Dispatch to a solver; returns (Explanation | None, SolveStats).
    ``bootstrap`` and ``reduce_frac`` tune the hyper variants; any other
    algorithm raises ValueError when one of them is given."""
    if algo in ("hyper", "hyper-star"):
        # built by the constructor, so HyperOptions validates every value
        kwargs = {"bootstrap_mcs": 100} if algo == "hyper-star" else {}
        if bootstrap is not None:
            kwargs["bootstrap_mcs"] = bootstrap
        if reduce_frac is not None:
            kwargs["reduce_fraction"] = reduce_frac
        return solve_hyper(p, HyperOptions(**kwargs))
    if bootstrap is not None or reduce_frac is not None:
        raise ValueError("--bootstrap and --reduce-frac apply only to hyper "
                         "and hyper-star, not %s" % algo)
    if algo == "bf":
        from .brute import bf_solve

        return timed(lambda stats: bf_solve(p))
    return solve_abhs(p, algo)


def _load(path):
    with open(path) as fh:
        return parse_apf(fh.read())


def _write(path, text):
    """Write ``text`` to ``path``, or to stdout when no path is given."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _indices(text):
    """Hypothesis indices from a comma- or space-separated list."""
    return [int(tok) for tok in text.replace(",", " ").split()]


def run_solve(args) -> int:
    p = _load(args.file)
    # opened before solving, so a path that cannot be written costs no solving
    fh, writer = open_records(args.stats) if args.stats else (None, None)
    with fh or contextlib.nullcontext():
        expl, stats = run_algo(args.algo, p, bootstrap=args.bootstrap,
                               reduce_frac=args.reduce_frac)
        if writer is not None:
            writer.writerow(csv_row(args.file, args.algo, expl, stats))
    if expl is not None:
        print("s EXPLANATION FOUND")
        print("o %d" % expl.cost)
        print("v %s" % " ".join(str(i) for i in expl.indices))
        return EXIT_FOUND
    print("s NO EXPLANATION")
    return EXIT_NONE


def run_verify(args) -> int:
    from .brute import CheckOutcome, bf_check_explanation

    outcome = bf_check_explanation(_load(args.file), _indices(args.indices))
    if outcome is CheckOutcome.IS_EXPL:
        print("s VERIFIED")
        return 0
    print("s NOT AN EXPLANATION (%s)" % outcome.value)
    return 2


def run_gen(args) -> int:
    from .generators import RandomGenParams, gen_family1, gen_family2, gen_random

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
    _write(args.output, write_apf(p))
    return 0


def run_emit(args) -> int:
    from .qbf import (emit_decision_qbf, emit_explanation_qbf,
                      emit_qmaxsat_qbf, write_qcir, write_qdimacs)

    p = _load(args.file)
    if args.encoding == "explanation":
        q = emit_explanation_qbf(p, _indices(args.indices))
    elif args.encoding == "qmaxsat":
        q, soft = emit_qmaxsat_qbf(p)
    else:
        q = emit_decision_qbf(p, args.k)
    text = write_qcir(q) if args.format == "qcir" else write_qdimacs(q)
    if args.encoding == "qmaxsat":
        if args.format == "qcir":
            text += "".join("#soft %d %d\n" % s for s in soft)
        else:  # QDIMACS allows comment lines only before the problem line
            text = "".join("c soft %d %d\n" % s for s in soft) + text
    _write(args.output, text)
    return 0


def _bench_worker(path, algo, conn):
    t0 = time.perf_counter()
    try:
        p = _load(path)
        expl, stats = run_algo(algo, p)
        conn.send(csv_row(path, algo, expl, stats))
    except Exception as exc:  # noqa: BLE001 - reported as an error row
        conn.send(csv_row(path, algo, result="error",
                          time_s=time.perf_counter() - t0,
                          error="%s: %s" % (type(exc).__name__, exc)))


def run_bench(args) -> int:
    import multiprocessing

    _count(args.timeout, "timeout", 1)
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    for a in algos:
        if a not in ALGOS:
            raise ValueError("unknown algorithm %r" % a)
    # opened before the first run, so a bad path costs no solving and
    # an interrupted bench keeps the rows of the runs that ended
    fh, writer = open_records(args.out)
    with fh:
        for path in args.files:
            for algo in algos:
                reader, sender = multiprocessing.Pipe(duplex=False)
                proc = multiprocessing.Process(
                    target=_bench_worker, args=(path, algo, sender))
                t0 = time.perf_counter()
                proc.start()
                sender.close()  # the worker holds the only write end now
                row = None
                # poll also returns once the worker exits, and recv drains
                # the pipe while the worker writes, so a row larger than
                # the pipe buffer cannot keep the worker from exiting
                if reader.poll(t0 + args.timeout - time.perf_counter()):
                    try:
                        row = reader.recv()
                    except EOFError:  # the worker exited without a row
                        pass
                else:
                    proc.terminate()
                    row = csv_row(path, algo, result="timeout",
                                  time_s=time.perf_counter() - t0)
                proc.join()
                reader.close()
                if row is None:
                    row = csv_row(path, algo, result="error",
                                  time_s=time.perf_counter() - t0,
                                  error="worker exited with code %s and "
                                  "no result" % proc.exitcode)
                writer.writerow(row)
                fh.flush()
                print("%s %s: %s" % (path, algo, row["result"]))
    return 0


def build_parser():
    import argparse  # here, so that solving never loads it

    parser = argparse.ArgumentParser(
        prog="abduce",
        description="minimum-cost propositional abduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve an APF instance")
    ps.add_argument("--algo", choices=ALGOS, default="hyper")
    ps.add_argument("--bootstrap", type=int, default=None, metavar="N")
    ps.add_argument("--reduce-frac", type=float, default=None, metavar="F",
                    help="share of each counterexample, cheapest hypotheses "
                    "first, that reduction by model rotation tries to "
                    "satisfy (default 1.0; 0 turns reduction off)")
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
    pe.add_argument("-o", "--output", default=None)
    pe.add_argument("file")
    pe.set_defaults(func=run_emit)

    pb = sub.add_parser("bench", help="run algorithms over instance files")
    pb.add_argument("--algos", default="hyper,hyper-star,abhs,abhs-plus")
    pb.add_argument("--timeout", type=int, default=60, help="seconds per run")
    pb.add_argument("--out", required=True, metavar="FILE.csv")
    pb.add_argument("files", nargs="+")
    pb.set_defaults(func=run_bench)
    return parser


def main(argv=None) -> int:
    """Run one command; usage errors, bad input, bad option values and
    I/O failures (FormatError is a ValueError) exit 1, with argparse's
    message or "error: ..." on stderr."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed its help or error
        return EXIT_ERROR if exc.code else 0
    try:
        return args.func(args)
    except (OSError, ValueError, IndexError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
