"""Host speed index, so that timings from a noisy shared host compare.

On a host shared with other machines, the speed of a CPU drifts by a
quarter or more, over seconds and over minutes.  The drift differs
between the CPUs of the same host.  It shows up in wall time and in
process time alike.  So the benchmark times a fixed pure-Python unit of
work in the same process and at the same time as the work it measures,
and rescales each measured time to a reference host, on which the unit
takes REF_UNIT_S:

    reported = measured * REF_UNIT_S / mean unit time during the measurement

The unit builds small tuples of integers and counts them in a dict, as
ppchars's orbit and class code does, and runs no code of ppchars.  So a
change to ppchars cannot change the index.  Of the units tried, this one
left the least spread in scaled pass times; a plain multiply-mod loop
left about twice as much, and a random walk over a large list more.
"""

from __future__ import annotations

import statistics
import threading
import time

REF_UNIT_S = 5.5e-4
SAMPLE_INTERVAL_S = 0.05


def unit_seconds() -> float:
    """Time one unit of fixed work."""
    start = time.perf_counter()
    seen = {}
    for i in range(1500):
        key = (i % 97, i * i % 7)
        seen[key] = seen.get(key, 0) + 1
    return time.perf_counter() - start


def scale(unit_times) -> float:
    """Factor that takes a time measured alongside unit_times to the
    reference host."""
    return REF_UNIT_S / statistics.fmean(unit_times)


class Sampler:
    """Times the unit every SAMPLE_INTERVAL_S on a background thread while
    the `with` block runs, plus once on entry and once on exit.  The
    thread takes the interpreter lock for one unit at a time, about 1% of
    the block's time."""

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            self.samples.append(unit_seconds())

    def __enter__(self):
        self.samples.append(unit_seconds())
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.samples.append(unit_seconds())
        return False
