"""Machine-speed gauges for the end-to-end timings.

The machines this benchmark runs on are shared: the same work can take
1.5 times longer for seconds at a stretch, which swamps the changes the
benchmark has to detect.  So the benchmark times a fixed reference next to
each short piece of measured work and scales that work's time by the
reference's nominal time over its measured time.  Every end-to-end time is
thus the time the work takes when the reference takes its nominal time,
about its time on an idle 2-vCPU x86-64 VM with CPython 3.11.  Raw wall
times are printed next to the scaled ones.

Work in this process is gauged by a pure-Python task (tuples, sets, dicts
and sorting, the same kinds of work as the engine's).  A child process
spends most of its time starting an interpreter and importing modules,
which that task does not track, so children are gauged by a reference
child that starts an interpreter and imports the standard-library modules
tvcsp uses, and nothing of tvcsp.
"""

from __future__ import annotations

import subprocess
import sys
import time

REFERENCE_S = 0.001
REFERENCE_CHILD_S = 0.07
REFERENCE_IMPORTS = "import argparse, dataclasses, fractions, json, pathlib, re"


def reference_task() -> float:
    """Seconds taken by the fixed task, about a millisecond."""
    start = time.perf_counter()
    table: dict = {}
    for i in range(400):
        key = (i % 7, (i * 3) % 5, (i * 5) % 11, i % 3)
        rank = {v: j for j, v in enumerate(sorted(set(key)))}
        ranks = tuple(rank[v] for v in key)
        table[ranks] = table.get(ranks, 0) + 1
    return time.perf_counter() - start


class Gauge:
    """Scale factors for consecutive pieces of work in this process.

    :meth:`scale` closes the piece of work since the previous reading and
    returns the nominal time over the mean of the readings at both ends of
    it; its reading also opens the next piece.  :meth:`start` takes a
    fresh opening reading after a gap.
    """

    nominal = REFERENCE_S

    def __init__(self):
        self.start()

    def start(self) -> None:
        self.last = self.reading()

    def scale(self) -> float:
        now = self.reading()
        factor = 2 * self.nominal / (self.last + now)
        self.last = now
        return factor

    def reading(self) -> float:
        """Median of three task times; one reading costs about 3 ms."""
        return sorted(reference_task() for _ in range(3))[1]


class ChildGauge(Gauge):
    """The same for consecutive child processes."""

    nominal = REFERENCE_CHILD_S

    def reading(self) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", REFERENCE_IMPORTS], check=True,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        return time.perf_counter() - start
