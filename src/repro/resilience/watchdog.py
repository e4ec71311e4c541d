"""Wall-clock watchdog around a (possibly expensive) selection method.

The GA-backed selectors normally finish in milliseconds (§3.2.3), but a
pathological window — or a mis-tuned ``G``/``P`` — can stall a scheduling
pass, and a real scheduler cannot block its event loop on an optimizer.
:class:`SolverWatchdog` wraps any :class:`~repro.methods.base.Selector`
with a budget: the inner selector runs on a worker thread, and if it misses
its deadline the watchdog *degrades gracefully* to a cheap fallback (greedy
in-order by default, a tiny scalarized GA via :func:`scalar_fallback` if a
site prefers optimization over speed) instead of raising.  Every fallback
is recorded, and after ``trip_after`` consecutive timeouts the breaker
trips: the inner selector is bypassed entirely so stuck worker threads
cannot pile up.

With ``fallback=None`` the watchdog raises
:class:`~repro.errors.SolverTimeoutError` instead — the strict mode batch
tests use to prove the budget is actually enforced.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..errors import ConfigurationError, SolverTimeoutError
from ..methods.base import Selector, SystemCapacity
from ..simulator.cluster import Available
from ..simulator.job import Job
from ..telemetry import get_tracer

#: Sentinel distinguishing "use the default fallback" from "no fallback".
_DEFAULT = object()


class GreedyFallbackSelector(Selector):
    """Priority-order greedy packing: the cheapest sane selection.

    Walks the window in base-policy order and takes every job that still
    fits (unlike the blocking Baseline it skips non-fitting jobs, so one
    large blocked job cannot zero out a whole degraded-mode pass).
    """

    name = "Greedy_Fallback"

    def select(self, window: Sequence[Job], avail: Available) -> List[int]:
        return self.greedy_in_order(window, avail, range(len(window)))


def scalar_fallback(**kw) -> Selector:
    """An equally weighted scalarized GA with a tiny budget.

    A middle ground between the full multi-objective solve and plain
    greedy: still optimization-driven, but cheap enough (G=10, P=8 by
    default) to fit comfortably inside a watchdog budget.
    """
    from ..methods.weighted import weighted_equal  # lazy: avoids import cycle

    kw.setdefault("generations", 10)
    kw.setdefault("population", 8)
    return weighted_equal(**kw)


@dataclass
class WatchdogStats:
    """Everything the watchdog observed across a run."""

    calls: int = 0                 #: total selection requests
    fallback_calls: int = 0        #: requests answered by the fallback
    timeouts: int = 0              #: inner-selector deadline misses
    tripped: bool = False          #: breaker open (inner selector bypassed)
    #: call indices (1-based) at which a fallback was used — the audit
    #: trail "recording every fallback" asks for.
    fallback_at: List[int] = field(default_factory=list)

    @property
    def fallback_rate(self) -> float:
        """Fraction of selection requests served by the fallback."""
        return self.fallback_calls / self.calls if self.calls else 0.0


class SolverWatchdog(Selector):
    """Budget-enforcing wrapper around another selector.

    Parameters
    ----------
    inner:
        The selector under guard (typically ``BBSchedSelector``).
    budget:
        Wall-clock seconds the inner selector may spend per call.
    fallback:
        Selector used on timeout.  Defaults to
        :class:`GreedyFallbackSelector`; pass ``None`` to raise
        :class:`~repro.errors.SolverTimeoutError` instead of degrading.
    trip_after:
        Consecutive timeouts after which the breaker opens and the inner
        selector is no longer invoked (bounds stuck-thread pile-up).
        ``None`` never trips.
    """

    def __init__(
        self,
        inner: Selector,
        budget: float,
        fallback: object = _DEFAULT,
        trip_after: Optional[int] = 3,
    ) -> None:
        super().__init__()
        if budget <= 0:
            raise ConfigurationError(f"watchdog budget must be positive, got {budget}")
        if trip_after is not None and trip_after <= 0:
            raise ConfigurationError(
                f"trip_after must be positive or None, got {trip_after}"
            )
        self.inner = inner
        self.budget = float(budget)
        self.fallback: Optional[Selector] = (
            GreedyFallbackSelector() if fallback is _DEFAULT else fallback  # type: ignore[assignment]
        )
        if self.fallback is not None and not isinstance(self.fallback, Selector):
            raise ConfigurationError(
                f"fallback must be a Selector or None, got {type(self.fallback)}"
            )
        self.trip_after = trip_after
        self.stats = WatchdogStats()
        self._consecutive_timeouts = 0
        self.name = f"{inner.name}+watchdog"

    # --- Selector interface -----------------------------------------------------
    def bind(self, system: SystemCapacity) -> None:
        super().bind(system)
        self.inner.bind(system)
        if self.fallback is not None:
            self.fallback.bind(system)

    @property
    def fallback_calls(self) -> int:
        """Number of selections answered by the fallback (engine-facing)."""
        return self.stats.fallback_calls

    def report(self, metrics) -> None:
        """The inner selector's report; the fallbacks' counters (cheap
        greedy or tiny-GA paths) are not tracked."""
        self.inner.report(metrics)

    def select(self, window: Sequence[Job], avail: Available) -> List[int]:
        self.stats.calls += 1
        if self.stats.tripped:
            return self._degrade(window, avail, reason="breaker_open")
        outcome = self._guarded_inner(window, avail)
        if outcome is None:  # deadline missed
            self.stats.timeouts += 1
            self._consecutive_timeouts += 1
            if (
                self.trip_after is not None
                and self._consecutive_timeouts >= self.trip_after
            ):
                self.stats.tripped = True
            return self._degrade(window, avail, reason="timeout")
        self._consecutive_timeouts = 0
        return outcome

    # --- internals ---------------------------------------------------------------
    def _guarded_inner(
        self, window: Sequence[Job], avail: Available
    ) -> Optional[List[int]]:
        """Run the inner selector with a deadline; None means timeout.

        The worker thread cannot be killed — on timeout it is left to
        finish as a daemon and its (late) result is discarded.  The breaker
        bounds how many such threads can ever accumulate.
        """
        box: dict = {}

        def work() -> None:
            try:
                box["result"] = self.inner.select(window, avail)
            except BaseException as exc:  # propagated to the caller below
                box["error"] = exc

        worker = threading.Thread(
            target=work, name=f"{self.inner.name}-select", daemon=True
        )
        worker.start()
        worker.join(self.budget)
        if worker.is_alive():
            return None
        if "error" in box:
            raise box["error"]
        return box["result"]

    def _degrade(
        self, window: Sequence[Job], avail: Available, reason: str = "timeout"
    ) -> List[int]:
        if self.fallback is None:
            raise SolverTimeoutError(
                f"{self.inner.name} exceeded its {self.budget:g}s selection budget "
                f"and no fallback is configured"
            )
        self.stats.fallback_calls += 1
        self.stats.fallback_at.append(self.stats.calls)
        get_tracer().instant(
            "watchdog_fallback",
            reason=reason,
            call=self.stats.calls,
            window=len(window),
            budget=self.budget,
        )
        return self.fallback.select(window, avail)
