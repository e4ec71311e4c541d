"""The host's speed, sampled inside the process whose time is measured.

Imports nothing but the standard library, so a fresh interpreter timing
its own set-up can load it without loading the rest of the benchmark.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from typing import Any, List, Sequence

#: Seconds the gauge kernel typically takes inside a running simulation on
#: the host the benchmark was tuned on (an Intel Xeon virtual machine with
#: 2 vCPUs), so that scaled times read close to that host's wall times.
KERNEL_REFERENCE_S = 0.45e-3


_SLOTS = [0] * 64


def _kernel() -> int:
    """A fixed pure-Python loop of integer arithmetic and list stores.

    It creates no container, so it never triggers a garbage collection,
    whose cost would depend on the program's heap, not on the host.
    """
    total = 0
    for i in range(4000):
        total += i * i % 7
        _SLOTS[i & 63] = total
    return total


def host_speed(samples: Sequence[float]) -> float:
    """Reference kernel time ÷ mean sampled kernel time: above 1 when the
    host ran faster than usual.

    A sample over twice the median is a kernel that lost the CPU for a
    scheduler tick (about 4 ms against 0.5 ms): a descheduled thread, not
    a slower CPU.  Kept, one such sample would move the mean of twenty by
    a third, so those are left out.
    """
    cut = 2.0 * statistics.median(samples)
    kept = [s for s in samples if s <= cut]
    return KERNEL_REFERENCE_S * len(kept) / sum(kept)


class SpeedGauge:
    """The host's speed while an operation runs, sampled in the process
    that runs it.

    The benchmark's host is shared: the same simulation runs 20% slower
    or faster from one minute to the next, with no steal and no other
    process of ours running, far more than a median over one run can
    average away.  Every ``period`` seconds a SIGALRM handler times
    :func:`_kernel` on the running thread.  :attr:`scaled_s` is the
    operation's wall time, less the handler's own time, times
    ``KERNEL_REFERENCE_S`` ÷ the mean kernel time: the operation's time on
    the reference host at its usual speed.  The mean weights each stretch of
    the operation by its length, as the operation's own time does.

    The kernel runs only on the thread it interrupts, so the gauge fits an
    operation that keeps that thread busy; it measures the speed a CPU
    gives one thread, not contention between the program's own processes.
    """

    def __init__(self, period: float = 0.1) -> None:
        self.period = period
        self.samples: List[float] = []
        self.spent = 0.0
        self.wall_s = math.nan
        self._previous: Any = None
        self._start = 0.0

    def _tick(self, signum: int, frame: Any) -> None:
        t0 = time.perf_counter()
        _kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self) -> "SpeedGauge":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.wall_s = end - self._start - self.spent
        if not self.samples:  # shorter than one period
            self._tick(signal.SIGALRM, None)

    @property
    def speed(self) -> float:
        return host_speed(self.samples)

    @property
    def scaled_s(self) -> float:
        return self.wall_s * self.speed
