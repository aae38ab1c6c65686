"""The process that solves: it loads `abduce` from ``src/`` and the harness.

Reads a JSON job from stdin: the APF texts, the solves of one pass
(text index, configuration) and, for a traced pass, the span file to
write.  Solves every job once and writes one JSON object to stdout.
Each pass runs in a fresh process, so no pass inherits the heap of an
earlier one, and answer checking happens in the parent, so the peak RSS
reported here is that of the solves alone.

An untraced pass samples the machine's speed all through its solves
(speed.py) and reports the probe times, which the parent scales the
solve times by; the probes' own time is taken out of the solve times.

``--setup-only`` times ``import abduce`` plus ``parse_apf`` of every
text, then runs ``SETUP_PROBES`` probes, and exits; the parent runs it
in fresh processes for ``setup_s``.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time
from contextlib import nullcontext

import speed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 3


def load_abduce():
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import abduce
    import abduce.cli  # what `abduce solve` loads
    t1 = time.perf_counter()
    if not os.path.abspath(abduce.__file__).startswith(SRC + os.sep):
        raise SystemExit("abduce was not loaded from %s" % SRC)
    return t1 - t0


def solve_pass(jobs, problems, meter):
    from abduce import cli
    times, answers, counts, spans = [], [], [], []
    for text_idx, config in jobs:
        p = problems[text_idx]
        gc.collect()  # no solve pays for the garbage of the one before
        error, first = None, len(meter.times)
        spent0, t0 = meter.spent, time.perf_counter()
        try:
            expl, stats = cli.run_algo(config["algo"], p,
                                       reduce_frac=config.get("reduce_frac"))
        except Exception as exc:  # noqa: BLE001 - counted as a failed solve
            error = "%s: %s" % (type(exc).__name__, exc)
        times.append(time.perf_counter() - t0 - (meter.spent - spent0))
        spans.append((first, len(meter.times)))
        if error is not None:
            answers.append({"error": error})
            counts.append(None)
        else:
            answers.append(None if expl is None else [list(expl.indices), expl.cost])
            counts.append([stats.iterations, stats.sat_calls + stats.hs_calls])
    return times, answers, counts, spans


def main():
    job = json.load(sys.stdin)
    meter = speed.Meter()  # before timing: it loads the probe
    import_s = load_abduce()
    from abduce.formula import parse_apf
    t0 = time.perf_counter()
    problems = [parse_apf(t) for t in job["texts"]]
    parse_s = time.perf_counter() - t0
    if "--setup-only" in sys.argv:
        print(json.dumps({"setup_s": import_s + parse_s, "probe_s": [
            speed.probe() for _ in range(SETUP_PROBES)]}))
        return
    tr = None
    if job.get("trace_path"):
        import abduce
        import tracer
        tr = tracer.install({name: getattr(abduce, name) for name in
                             ("cli", "hyper", "baseline", "hitting", "maxsat", "sat")})
    # the traced pass is not probed: probes would land in its spans
    with meter if tr is None else nullcontext():
        times, answers, counts, spans = solve_pass(job["jobs"], problems, meter)
    out = {"times": times, "answers": answers, "counts": counts,
           "probe_s": meter.times, "probe_spans": spans,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tr is not None:
        out["layers"] = tracer.layer_metrics(tr, parse_s)
        tr.dump(job["trace_path"])
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
