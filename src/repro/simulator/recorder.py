"""Time-weighted resource-usage recording.

The paper's system-level metrics (§4.2) are *usages*: used node-hours over
elapsed node-hours, and used burst-buffer(GB)-hours over elapsed ones, over
a measurement interval that excludes warm-up and cool-down periods.

:class:`UsageRecorder` integrates step functions exactly: each time the
cluster's occupancy changes, the engine calls :meth:`observe` with the
current timestamp and the *new* occupancy; the recorder accumulates
``level × dt`` for the interval since the previous observation.  The full
step series is retained so metrics can be re-evaluated over any trimmed
sub-interval after the run.

:class:`StepSeries` keeps the series on amortized-growth numpy buffers;
``integral`` is a vectorized ``searchsorted`` + segment dot product
(numpy's pairwise/blocked summation, drift-resistant compared to naive
left-to-right accumulation).  ``tests/test_recorder.py`` pins it on
random step functions, including the equal-timestamp overwrite
semantics, to a list-backed executable spec whose ``integral`` walks
segments one by one and sums with ``math.fsum`` (exactly-rounded); that
spec lives in ``tests/oracles.py``.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Tuple

import numpy as np

from ..errors import ConfigurationError

#: Initial capacity of a step-series buffer (doubles as it fills).
_INITIAL_CAPACITY = 64


class StepSeries:
    """A right-continuous step function sampled at change points.

    ``observe(t, v)`` records that the level becomes ``v`` at time ``t``.
    Observations must be time-ordered (equal timestamps allowed; the last
    value at a timestamp wins, which matches processing several events at
    one instant).

    Storage is a pair of numpy buffers grown by doubling, so a month-long
    trace appends in amortized O(1) and the integral runs vectorized over
    the filled prefix with no list→array conversion.
    """

    __slots__ = ("_times", "_values", "_n")

    def __init__(self, initial: float = 0.0, start_time: float = 0.0) -> None:
        self._times = np.empty(_INITIAL_CAPACITY, dtype=np.float64)
        self._values = np.empty(_INITIAL_CAPACITY, dtype=np.float64)
        self._times[0] = start_time
        self._values[0] = initial
        self._n = 1

    def __len__(self) -> int:
        return self._n

    def observe(self, time: float, value: float) -> None:
        """Record the level changing to ``value`` at ``time``."""
        n = self._n
        times = self._times
        last = times[n - 1]
        if time < last:
            raise ConfigurationError(
                f"observations must be time-ordered: {time} < {last}"
            )
        if time == last:
            self._values[n - 1] = value
            return
        if n == times.shape[0]:
            self._times = times = np.concatenate([times, np.empty_like(times)])
            self._values = np.concatenate([self._values, np.empty_like(self._values)])
        times[n] = time
        self._values[n] = value
        self._n = n + 1

    @property
    def last_time(self) -> float:
        return float(self._times[self._n - 1])

    @property
    def last_value(self) -> float:
        return float(self._values[self._n - 1])

    def integral(self, t0: float, t1: float) -> float:
        """∫ level dt over ``[t0, t1]``; the level extends flat beyond data."""
        if t1 < t0:
            raise ConfigurationError(f"empty interval [{t0}, {t1}]")
        n = self._n
        times = self._times[:n]
        values = self._values[:n]
        # First change point at or before t0 (level extends flat both ways).
        i = bisect_right(times, t0) - 1
        if i < 0:
            i = 0
        # Segment boundaries: the change points inside (t0, t1], clamped,
        # with t0 prepended and t1 appended; values[i:] are the levels
        # held on each segment, the last extending flat past the data.
        bounds = np.empty(n - i + 1, dtype=np.float64)
        bounds[0] = t0
        np.clip(times[i + 1:], t0, t1, out=bounds[1:-1])
        bounds[-1] = t1
        return float(np.dot(values[i:], np.diff(bounds)))

    def mean(self, t0: float, t1: float) -> float:
        """Time-average level over ``[t0, t1]`` (0 for a zero-length span)."""
        if t1 <= t0:
            return 0.0
        return self.integral(t0, t1) / (t1 - t0)

    def as_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """(times, values) numpy copies of the recorded steps."""
        return self._times[: self._n].copy(), self._values[: self._n].copy()

    # --- pickling: persist the filled prefix, not the spare capacity ---------
    def __getstate__(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.as_arrays()

    def __setstate__(self, state: Tuple[np.ndarray, np.ndarray]) -> None:
        times, values = state
        self._times = np.array(times, dtype=np.float64)
        self._values = np.array(values, dtype=np.float64)
        self._n = len(self._times)


class UsageRecorder:
    """Bundles the step series the simulator tracks.

    Series
    ------
    ``nodes``        — compute nodes in use.
    ``bb``           — burst buffer GB in use.
    ``ssd``          — requested local SSD GB in use (``s_i × n_i`` summed).
    ``ssd_waste``    — over-provisioned local SSD GB currently allocated.
    ``queue``        — number of queued jobs (for diagnostics).
    ``nodes_online`` — healthy compute-node capacity (fault injection).
    ``bb_online``    — healthy burst-buffer capacity in GB (fault injection).

    The two capacity series are only fed when an engine runs with a
    :class:`~repro.resilience.FaultInjector`; fault-free runs leave them at
    their initial zero and :attr:`has_capacity_series` False.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self.nodes = StepSeries(0.0, start_time)
        self.bb = StepSeries(0.0, start_time)
        self.ssd = StepSeries(0.0, start_time)
        self.ssd_waste = StepSeries(0.0, start_time)
        self.queue = StepSeries(0.0, start_time)
        self.nodes_online = StepSeries(0.0, start_time)
        self.bb_online = StepSeries(0.0, start_time)
        self._capacity_observed = False

    @property
    def has_capacity_series(self) -> bool:
        """True when online-capacity observations were recorded."""
        return self._capacity_observed

    def observe_cluster(
        self,
        time: float,
        nodes_used: int,
        bb_used: float,
        ssd_used: float = 0.0,
        ssd_waste: float = 0.0,
    ) -> None:
        """Record the cluster occupancy after an allocation change."""
        self.nodes.observe(time, nodes_used)
        self.bb.observe(time, bb_used)
        self.ssd.observe(time, ssd_used)
        self.ssd_waste.observe(time, ssd_waste)

    def observe_queue(self, time: float, queued: int) -> None:
        """Record the queue depth after a queue change."""
        self.queue.observe(time, queued)

    def observe_capacity(self, time: float, nodes_online: int, bb_online: float) -> None:
        """Record the healthy capacity after a fault or repair."""
        self.nodes_online.observe(time, nodes_online)
        self.bb_online.observe(time, bb_online)
        self._capacity_observed = True
