"""Layer shares per configuration, from the files of one traced run.

    python3 perfbench/shares.py perfbench/out/run-<workload>-<seed>-1.json

Reads the run file and its span file (``trace-...jsonl`` beside it) and
prints, per configuration, the traced solve time and the share of it
in each boundary (inclusive: SAT calls below it included) and in each
layer's self time.  The self-time shares add up to 1.
"""

from __future__ import annotations

import json
import os
import sys

from tracer import Tracer

INCLUSIVE = ["loop.check", "hitting.reduce", "hitting.candidate",
             "hitting.bootstrap", "sat.solve"]
LAYERS = ["cli", "loop", "hitting", "maxsat", "sat"]


def shares(run_path):
    """{configuration: (solve seconds, inclusive {name: s}, self {layer: s})}."""
    with open(run_path) as fh:
        run = json.load(fh)
    tracer = Tracer.load(os.path.join(
        os.path.dirname(run_path),
        os.path.basename(run_path).replace("run-", "trace-", 1) + "l"))
    # each root span is one solve of the traced round, in the run's order
    configs = iter(c for _, c in run["solves"])
    config_of = []
    for parent in tracer.parents:
        config_of.append(next(configs) if parent < 0 else config_of[parent])
    out = {}
    for config in sorted(set(config_of)):
        calls, incl, self_s = tracer.totals(keep=lambda i: config_of[i] == config)
        layers = {layer: sum(v for k, v in self_s.items()
                             if k.startswith(layer + "."))
                  for layer in LAYERS}
        out[config] = (incl["cli.run_algo"], incl, layers)
    return out


def main(argv):
    for path in argv:
        print(path)
        for config, (total, incl, layers) in shares(path).items():
            print("  %-12s solve %.2f s | %s | self %s" % (
                config, total,
                " ".join("%s %.0f%%" % (n, 100 * incl[n] / total) for n in INCLUSIVE),
                " ".join("%s %.0f%%" % (n, 100 * layers[n] / total) for n in LAYERS)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
