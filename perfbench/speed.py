"""The host's speed, read off a fixed pure-Python reference loop.

The VM this benchmark was written on runs the same code at two speeds about
1.8x apart, switching every 0.05 s to 10 s, with CPU time equal to wall
time; raw wall times of one tree therefore spread far between runs.  A
``SpeedLog`` times the reference loop between timed intervals and, while
``sampling``, every ``SAMPLE_INTERVAL_S`` of wall time from a timer signal,
so also in the middle of a long op.  ``scaled`` turns an interval's wall
time into the time it would take on a host where one reference loop takes
``REFERENCE_S``: the program's own speed moves it one for one, while the
host's drift mostly cancels.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import signal
import statistics
import time

REFERENCE_S = 0.0005
SAMPLE_INTERVAL_S = 0.02
# Loops ending this close to an interval count towards its speed.
WINDOW_S = 0.01


def reference_loop():
    """Tuples, dict updates, int-to-string conversions, a frozenset, a sort
    with a key function and a join: the kinds of work the package does."""
    counts = {}
    words = []
    for i in range(1500):
        key = (i % 37, i % 11)
        counts[key] = counts.get(key, 0) + 1
        if i % 7 == 0:
            words.append(str(i))
    keys = frozenset(counts)
    ranked = sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
    return len(keys) + len(ranked) + len(",".join(words))


class SpeedLog:
    """Reference loop end times and durations, in time order."""

    def __init__(self):
        self.ends = []
        self.durations = []
        self._busy = False

    def take(self):
        """Time one reference loop, unless one is already running (the timer
        fired inside it)."""
        if self._busy:
            return
        self._busy = True
        # A collection of the program's objects must not land in the loop.
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        if collecting:
            gc.enable()
        self.ends.append(t1)
        self.durations.append(t1 - t0)
        self._busy = False

    @contextlib.contextmanager
    def sampling(self):
        """Take a reference loop every SAMPLE_INTERVAL_S of wall time."""
        previous = signal.signal(signal.SIGALRM, lambda *_: self.take())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def timed(self, fn):
        """Run ``fn`` and take a loop after it; return (fn's result, start,
        end, wall time less the loops the timer ran inside it)."""
        n0 = len(self.ends)
        t0 = time.perf_counter()
        result = fn()
        t1 = time.perf_counter()
        n1 = bisect.bisect_right(self.ends, t1, lo=n0)
        inside = sum(self.durations[n0:n1])
        self.take()
        return result, t0, t1, t1 - t0 - inside

    def scaled(self, t0, t1, elapsed):
        """``elapsed`` at the reference speed: times REFERENCE_S over the
        mean loop time within WINDOW_S of [t0, t1], which takes in every
        loop run inside the interval and the one just after it."""
        lo = bisect.bisect_left(self.ends, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.ends, t1 + WINDOW_S)
        return elapsed * REFERENCE_S / statistics.fmean(self.durations[lo:hi])
