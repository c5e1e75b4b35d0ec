"""Host-speed probes: scale measured times to a fixed host speed.

The benchmark runs on shared virtual machines whose speed drifts.  On a
2-core VM a fixed pure-Python loop took 6.6 ms in one 20-second window and
12.4 ms two minutes later, with the process never descheduled (its CPU time
equalled its wall time), so the quartile spread of any wall-clock figure
over ten 20-second runs was as large as the drift, 25% and more.

The closed loop therefore probes the host between calls and scales each
call's wall time by a probe's reference time over the median of the probes
taken nearest to the call.  Reported times read as they would on a host
where the probe takes its reference time.  The probes use no library code,
so a change that makes the library faster or slower moves the scaled times
by the same factor as the raw ones; the raw figures are printed alongside.

Three probes, because different kinds of work slow down differently, and
each workload is scaled by the probe that tracked it best (``run.py``):

- ``ALLOCATION`` fills a dict of 4000 tuple keys with small frozensets and
  collects them into a set, best of two, the way the library's
  constructions allocate and hash.  It scales ``boolean`` and ``closure``
  calls, and instance generation in every set-up.  Over two to three minutes
  of each mix, it took the spread of the mean call time between 15-second
  windows on ``closure`` from 15% raw to 5%, where ``INTERPRETER`` left 7%;
  on ``boolean`` to 2%, where ``INTERPRETER`` left 13%.  The quartile spread
  over five seeds was at most 7.5% on both.
- ``INTERPRETER`` runs small-dict updates, tuple building and integer
  arithmetic, best of three.  It scales ``query``, whose calls are short
  table walks, parses and prints: over five seeds its quartile spreads were
  1-5%, where ``ALLOCATION`` left 5-11%.
- ``START`` times a child ``python -c pass``.  It scales calls that start an
  interpreter (``cli``, and the import child of every set-up), whose cost is
  mostly process start and imports: over four minutes it took the
  20-second-window spread of the ``cli`` mix from 15% to 2.5%, where
  ``INTERPRETER`` left 10%.
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
import time

SPAN = 2  # a call is scaled by the median of the 2 * SPAN + 1 nearest probes


def _allocation() -> int:
    table = {}
    for i in range(4000):
        table[(i % 97, i // 97)] = frozenset((i, i * 3 % 101, i % 13))
    return len(set(table.values()))


def _interpreter() -> int:
    counts: dict[int, int] = {}
    total = 0
    for i in range(3000):
        key = (i * 7919) % 1031
        counts[key] = counts.get(key, 0) + 1
        total += len((key, i, total & 7))
    return total


def _best_of(kernel, runs: int):
    def measure() -> float:
        best = float("inf")
        for _ in range(runs):
            t0 = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - t0)
        return best

    return measure


def start_seconds() -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - t0


class Probe:
    """One kind of probe: how to take it, its reference time, and how often
    the loop takes it."""

    def __init__(self, name, measure, reference_s, every_s):
        self.name = name
        self.measure = measure
        self.reference_s = reference_s
        self.every_s = every_s

    def steady(self, n: int = 3) -> float:
        """The median of ``n`` probes, for one-off timings such as set-up."""
        return statistics.median(self.measure() for _ in range(n))

    def scale(self, seconds: float, before: float, after: float) -> float:
        """``seconds`` measured between two steady probes, scaled."""
        return seconds * self.reference_s / statistics.median([before, after])


# The reference times are the probes' typical readings on a calm 2-core VM.
ALLOCATION = Probe("allocation", _best_of(_allocation, 2), 0.003, 0.1)
INTERPRETER = Probe("interpreter", _best_of(_interpreter, 3), 0.0005, 0.02)
START = Probe("interpreter start", start_seconds, 0.05, 1.0)


class Probes:
    """The probes of one kind taken during a loop, with the time of each."""

    def __init__(self, probe: Probe):
        self.probe = probe
        self.at: list[float] = []
        self.seconds: list[float] = []

    def maybe(self, now: float) -> None:
        """Probe if none was taken in the last ``every_s``."""
        if not self.at or now - self.at[-1] >= self.probe.every_s:
            self.take(now)

    def take(self, now: float) -> None:
        self.seconds.append(self.probe.measure())
        self.at.append(now)

    def factor(self, when: float) -> float:
        """The reference time over the median of the probes nearest ``when``."""
        k = bisect.bisect_left(self.at, when)
        near = self.seconds[max(0, k - SPAN): k + SPAN + 1]
        return self.probe.reference_s / statistics.median(near)
