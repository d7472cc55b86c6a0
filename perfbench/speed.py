"""CPU time at a fixed reference speed, sampled while the work runs.

The 2-core Xeon host this benchmark was tuned on runs each core at two
speeds: a fixed loop takes either about 0.9 ms or about 1.6 ms,
switching every 10 to 100 ms, and the share of slow time drifts from
minute to minute.  Raw CPU time then swings by a quarter between runs of
the same input, and no statistic over whole iterations removes that.

:class:`SpeedProbe` samples the speed where the work runs: every
:data:`INTERVAL_S` of process CPU time a ``SIGPROF`` handler on the main
thread times :func:`_reference` — a fixed loop that never touches
``repro`` — and charges the main thread's CPU time since the previous
sample at the speed just measured.  The sum, ``ref_s``, is the CPU time
the work would have taken had every stretch of it run at the speed at
which :func:`_reference` takes :data:`REFERENCE_NS`.  A program change
that saves CPU time lowers it in proportion; a change in the host's mix
of speeds does not move it.  The probes' own time is left out of it.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager
from typing import Iterator

#: Process CPU seconds between two samples.
INTERVAL_S = 0.004

#: The reference speed: :func:`_reference` takes this many nanoseconds.
#: About its time at the fast speed of the host above, so ``ref_s``
#: reads as CPU seconds there.
REFERENCE_NS = 80_000

_thread_ns = time.thread_time_ns
_perf_ns = time.perf_counter_ns


def _reference() -> None:
    """A fixed stretch of interpreter work, independent of the program."""
    table = {}
    get = table.get
    for i in range(600):
        key = i % 97
        table[key] = get(key, 0) + i


class SpeedProbe:
    """Samples the host's speed during a block of work.

    ``ref_s`` is the main thread's CPU time so far at the reference speed
    and ``cpu_s`` the same CPU time as measured; ``samples`` counts the
    probes.  Read them through :meth:`checkpoint`, which charges the
    stretch since the last sample first.
    """

    def __init__(self) -> None:
        self.ref_s = 0.0
        self.cpu_s = 0.0
        self.samples = 0
        self._mark = 0
        self._busy = False

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:  # a timer signal landing inside checkpoint()
            return
        self._busy = True
        now = _thread_ns()
        start = _perf_ns()
        _reference()
        took = _perf_ns() - start
        stretch = (now - self._mark) * 1e-9
        self.cpu_s += stretch
        self.ref_s += stretch * REFERENCE_NS / took
        self.samples += 1
        self._mark = _thread_ns()
        self._busy = False

    def checkpoint(self) -> float:
        """Sample now and return ``ref_s``."""
        self._sample()
        return self.ref_s

    @contextmanager
    def running(self) -> Iterator["SpeedProbe"]:
        """Sample from entry to exit; the last stretch is charged at exit."""
        previous = signal.signal(signal.SIGPROF, self._sample)
        self._mark = _thread_ns()
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
            signal.signal(signal.SIGPROF, previous)
            self._sample()
