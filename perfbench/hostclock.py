"""A wall clock that runs at the reference host's speed.

The benchmark's host is a few cores of a shared machine, and what the
neighbours run moves pure-Python speed by up to half within seconds
(a fixed loop takes 14 ms in one two-second window and 22 ms in the
next).  The end-to-end wall metrics would measure the neighbours, so
``--trace 0`` runs read their times from this clock instead.

While started, a timer signal interrupts the program every
``PERIOD`` seconds and times a fixed pure-Python kernel (dict, tuple,
hash and integer work, like the program's).  The clock:

* leaves the kernel's own time out, so the program is not charged
  for it;
* advances at ``REFERENCE / kernel_time`` times the wall clock, the
  kernel time being the median of the last ``WINDOW`` samples: an
  interval in which the host ran the kernel 20% slower than the
  reference reads 20% shorter;
* skips a sample while the program is inside a function passed to
  :meth:`HostClock.avoid`.  Those are the calls the program times
  itself (a solve's ``generation_time``): a kernel inside one would
  lengthen that reading, and the clock cannot take it out again.

So a reading is "seconds on the reference host", the host on which
``REFERENCE`` was measured (a 2-core x86 container, Python 3.11, at
its quiet speed).  A program that gets faster reads faster; a host
that gets slower for all code reads the same.  Stopped, the clock is
``time.perf_counter``.

The traced runs (``--trace 1``) never start it: their per-layer self
times are plain wall time, and no kernel lands inside a span.
"""

from __future__ import annotations

import signal
import statistics
import time
from collections import deque

perf = time.perf_counter

#: Seconds between kernel samples.
PERIOD = 0.05
#: Samples in the moving median that sets the current speed.
WINDOW = 20
#: Seconds one kernel call takes on the reference host.
REFERENCE = 0.00030


def kernel() -> int:
    """Fixed pure-Python work, about a third of a millisecond."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(1000):
        key = (i * 7919) & 255
        table[key] = table.get(key, 0) + i
        acc ^= hash((key, i)) & 0xFFFF
    return acc + len(sorted(table.items()))


class HostClock:
    def __init__(self) -> None:
        self.samples: list[float] = []
        self._window: deque[float] = deque(maxlen=WINDOW)
        #: (reading at ``last``, wall time of the last sample's end,
        #: reference seconds per wall second), replaced as a whole so
        #: that ``now`` never sees half an update.
        self._state: tuple[float, float, float] | None = None
        self._previous = None
        self._avoid: frozenset = frozenset()

    def avoid(self, *functions) -> None:
        """Take no sample while any of ``functions`` is running."""
        self._avoid = frozenset(f.__code__ for f in functions)

    def _sample(self) -> float:
        started = perf()
        kernel()
        took = perf() - started
        self.samples.append(took)
        self._window.append(took)
        return REFERENCE / statistics.median(self._window)

    def start(self) -> None:
        for _ in range(WINDOW):
            speed = self._sample()
        self._state = (perf(), perf(), speed)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
        self._state = None

    def _tick(self, _signum, frame) -> None:
        state = self._state
        if state is None:
            return
        while frame is not None:
            if frame.f_code in self._avoid:
                return
            frame = frame.f_back
        reading, last, speed = state
        reading += (perf() - last) * speed
        speed = self._sample()
        self._state = (reading, perf(), speed)

    def now(self) -> float:
        """Reference-host seconds since an arbitrary origin."""
        while True:
            state = self._state
            if state is None:
                return perf()
            wall = perf()
            if state is self._state:
                reading, last, speed = state
                return reading + (wall - last) * speed

    def summary(self) -> dict[str, float]:
        """The kernel samples, for the run manifest."""
        if not self.samples:
            return {"samples": 0}
        quartiles = statistics.quantiles(self.samples, n=4)
        return {
            "samples": len(self.samples),
            "reference_ms": 1e3 * REFERENCE,
            "kernel_ms_q1": 1e3 * quartiles[0],
            "kernel_ms_median": 1e3 * quartiles[1],
            "kernel_ms_q3": 1e3 * quartiles[2],
        }


CLOCK = HostClock()
now = CLOCK.now
