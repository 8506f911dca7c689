"""Timing that corrects for the speed of a shared host.

On a host shared with other tenants the same work can take 50% longer for
seconds at a time, so raw timings of one code base spread more than the
changes a benchmark has to show.  ``HostClock`` runs a fixed probe (a small
mix of int, Fraction and dict work, like gcurv's own) every ``INTERVAL``
seconds from a ``SIGALRM`` handler, in the same thread as the measured work,
so probe and work share the host's speed at every moment.  A region's time
is then reported in reference seconds:

    seconds = (elapsed - probe time inside it) * REFERENCE / mean probe time

where the mean is over the probes taken during the region (widened around
it until it holds at least ``MIN_PROBES``).  ``REFERENCE`` is a fixed
constant, so the figures of two code bases are comparable and stay close to
real seconds on the host the benchmark was written on.
"""

import signal
import statistics
from fractions import Fraction
from time import perf_counter

INTERVAL = 0.025
MIN_PROBES = 40
# Seconds one probe takes on the reference host (2 cores, CPython 3.11).
REFERENCE = 0.002


def probe():
    """Fixed work of about REFERENCE seconds."""
    acc = 0
    for i in range(4000):
        acc = (acc + i * i) % 1_000_003
    total = Fraction(0)
    for i in range(320):
        total += Fraction(i % 7 + 1, i % 5 + 2)
    counts = {}
    for i in range(2000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return acc, total, counts


class HostClock:
    """Probes the host while started; measures regions between ``mark`` calls."""

    def __init__(self):
        self.probes = []          # (start, seconds) of every probe
        self.probe_seconds = 0.0  # their total, kept current for mark()
        self._previous = None

    def _tick(self, signum, frame):
        start = perf_counter()
        probe()
        seconds = perf_counter() - start
        self.probes.append((start, seconds))
        self.probe_seconds += seconds

    def start(self):
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def work_time(self):
        """A clock that stands still while a probe runs."""
        now, probed = self.mark()
        return now - probed

    def mark(self):
        """(perf_counter, probe seconds so far), read with no probe in between."""
        while True:
            probed = self.probe_seconds
            now = perf_counter()
            if self.probe_seconds == probed:
                return now, probed

    def region(self, begin, end):
        """(raw seconds without probes, wall start, wall end) between two marks."""
        return (end[0] - begin[0]) - (end[1] - begin[1]), begin[0], end[0]

    def speed(self, t0, t1):
        """Mean probe seconds around the wall interval [t0, t1]."""
        times = [start for start, _ in self.probes]
        if not times:
            raise RuntimeError("the host clock was never started")
        wanted = min(MIN_PROBES, len(times))
        lo = hi = None
        for i, t in enumerate(times):
            if lo is None and t >= t0:
                lo = i
            if t <= t1:
                hi = i + 1
        lo = len(times) if lo is None else lo
        hi = lo if hi is None or hi < lo else hi
        while hi - lo < wanted:
            # widen towards whichever side is nearer in time
            before = t0 - times[lo - 1] if lo > 0 else float("inf")
            after = times[hi] - t1 if hi < len(times) else float("inf")
            if before <= after:
                lo -= 1
            else:
                hi += 1
        return statistics.fmean(seconds for _, seconds in self.probes[lo:hi])

    def seconds(self, region):
        """A region's time in reference seconds."""
        raw, t0, t1 = region
        return raw * REFERENCE / self.speed(t0, t1)

    def scale(self, region):
        """REFERENCE / host speed over a region, to rescale times inside it."""
        _, t0, t1 = region
        return REFERENCE / self.speed(t0, t1)
