"""The machine-speed reference that the end-to-end times are scaled by.

On a shared host the CPU's speed drifts by a fifth and more within
seconds and between minutes, so wall times of identical work spread more
between runs than any bound worth setting.  A process that is timed
therefore samples the machine's speed all through its timed work: a
timer signal every ``PERIOD_S`` of wall time runs one probe, a
refutation of a fixed small random 3-CNF by this benchmark's own CDCL
solver (``check.Cdcl``).  The probe is pure-Python search like the
solver under test, but shares no code with `abduce`, so no change to
`abduce` can change it.  The probes' time is taken out of the times
they interrupt.

The parent scales each time by :func:`factor` of the probes that fell
within it, ``PROBE_S`` over their mean, or, when fewer than
``MIN_PROBES`` did, of those and the ``NEIGHBOURS`` probes on either
side of it (:func:`scaled`).  A scaled time is
the time the work would take at the speed at which the probe takes
``PROBE_S``, its median on the 2-core guest this benchmark was written
on.
"""

from __future__ import annotations

import random
import signal
import time

import check

NUM_VARS, RATIO, SEED = 110, 4.4, 7
PROBE_S = 0.065
PERIOD_S = 0.6
MIN_PROBES = 4
NEIGHBOURS = 5


def _clauses():
    rng = random.Random("speed:%d:%s:%d" % (NUM_VARS, RATIO, SEED))
    return [[v if rng.random() < 0.5 else -v
             for v in rng.sample(range(1, NUM_VARS + 1), 3)]
            for _ in range(round(RATIO * NUM_VARS))]


CLAUSES = _clauses()


def probe():
    """Wall time of one refutation of the probe formula."""
    t0 = time.perf_counter()
    model = check.Cdcl(NUM_VARS, CLAUSES).solve()
    elapsed = time.perf_counter() - t0
    if model is not None:
        raise SystemExit("the probe formula must be unsatisfiable")
    return elapsed


class Meter:
    """Probes every ``PERIOD_S`` while running (a context manager).

    ``times`` holds the probe times and ``spent`` their sum, which a
    caller subtracts from a wall time taken around probed work.
    """

    def __init__(self):
        probe()  # untimed: warms the interpreter's caches
        self.times = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t = probe()
        self.times.append(t)
        self.spent += t

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        if not self.times:  # work shorter than PERIOD_S still gets a factor
            self._tick(None, None)


def factor(probe_times):
    """What to multiply a time by to give it at the reference speed."""
    return PROBE_S * len(probe_times) / sum(probe_times)


def scaled(times, probe_times, spans):
    """``times`` at the reference speed; ``spans[i]`` is the slice
    (first, end) of ``probe_times`` that fell within ``times[i]``."""
    out = []
    for t, (first, end) in zip(times, spans):
        if end - first < MIN_PROBES:
            first, end = max(0, first - NEIGHBOURS), end + NEIGHBOURS
        out.append(t * factor(probe_times[first:end]))
    return out
