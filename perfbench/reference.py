"""Times normalised by a fixed job that measures the machine's speed.

The host this benchmark was built on is a shared 2-vCPU VM whose speed
drifts by 10-40% over seconds to minutes (see README.md, Noise), and
projmet's own time drifts with it.  So, while a case runs, a timer signal
runs a small fixed job five times a second and times it; a few more runs
come just before and just after the case.  The case's time, minus the time
of the jobs that interrupted it, is divided by the jobs' mean time.  A case
that runs while the machine is slow is measured against jobs that ran slow
too.

The job is exact arithmetic of the kind projmet does: Gaussian elimination
over `Fraction`.  It calls nothing in projmet, so a change to projmet
cannot change it.  It takes about 4 ms; at five a second the jobs add about
2% to a case's wall time, which the case's time does not include.

Set-up time is the start of a fresh process that imports projmet, and an
import does not speed up and slow down with that job.  So it is normalised
by a fixed import instead: a fresh process that imports a set of standard
library modules, started just after each projmet one.
"""

import signal
import time
from fractions import Fraction

# Seconds of one job on the machine the benchmark was built on, in its
# usual state.  A normalised time is "seconds on a machine where the job
# takes this long": raw seconds * REFERENCE_SECONDS / mean job seconds.
REFERENCE_SECONDS = 0.004

# A fresh process's import of standard-library modules, and its wall
# seconds on the machine the benchmark was built on, in its usual state.
IMPORT_REFERENCE = ("import asyncio, email.message, http.server, unittest, "
                    "xml.etree.ElementTree, decimal, json, argparse, logging, "
                    "sqlite3, fractions, inspect, typing, dataclasses")
IMPORT_REFERENCE_SECONDS = 0.14

INTERVAL = 0.2  # seconds between jobs while a case runs
AROUND = 5      # jobs run just before and just after each case
WARMUP = 20     # jobs run once per process, not kept


def job():
    """The reference work; returns its result."""
    n = 11
    rows = [[Fraction(1, i + j + 1) + (i == j) for j in range(n)]
            for i in range(n)]
    det = Fraction(1)
    for c in range(n):
        det *= rows[c][c]
        for r in range(c + 1, n):
            f = rows[r][c] / rows[c][c]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return det


def timed_job():
    start = time.perf_counter()
    job()
    return time.perf_counter() - start


class Meter:
    """Measures calls with jobs before, during and after each, and
    normalises their time by the jobs' mean.  Use it only from the main
    thread."""

    def __init__(self):
        self.samples = []
        self._during = None
        for _ in range(WARMUP):
            job()

    def _tick(self, signum, frame):
        if self._during is not None:
            self._during.append(timed_job())

    def measure(self, call):
        """Run `call()`; return its result, its wall seconds less the jobs
        that interrupted it, and those seconds normalised."""
        jobs = [timed_job() for _ in range(AROUND)]
        self._during = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        start = time.perf_counter()
        try:
            result = call()
        finally:
            # A tick still pending after this point records nothing, so
            # every job subtracted below ran inside `elapsed`.
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            during, self._during = self._during, None
            elapsed = time.perf_counter() - start
            signal.signal(signal.SIGALRM, previous)
        seconds = elapsed - sum(during)
        jobs += during + [timed_job() for _ in range(AROUND)]
        self.samples += jobs
        return result, seconds, (seconds * REFERENCE_SECONDS * len(jobs)
                                 / sum(jobs))

    def mean(self):
        return sum(self.samples) / len(self.samples)
