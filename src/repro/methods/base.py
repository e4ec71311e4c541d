"""Selector interface: multi-resource job-selection methods (§4.3).

A *selector* implements one multi-resource scheduling method.  At each
scheduling invocation the engine hands it the window jobs (starvation-forced
jobs are pre-allocated by the engine and never reach the selector) plus the
current free-capacity snapshot; the selector returns the indices of the
jobs to start.  The returned set must be *jointly feasible* — the engine
verifies and will raise on a selector bug rather than silently drop jobs.

Selectors normalising objectives to utilizations (weighted methods,
BBSched's decision rule) need the system's total capacities; the engine
calls :meth:`Selector.bind` once before the run, and
:meth:`Selector.report` once after it.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence


from ..errors import SchedulingError

if TYPE_CHECKING:  # imported lazily to avoid a cycle with the simulator
    from ..simulator.cluster import Available
    from ..simulator.job import Job
    from ..telemetry.metrics import MetricsRegistry


@dataclass(frozen=True)
class SystemCapacity:
    """Total schedulable capacities, for utilization normalisation.

    ``ssd_total`` is the aggregate local SSD over all nodes in GB (zero when
    the system has no local SSDs).
    """

    nodes: int
    bb: float
    ssd_total: float = 0.0

    def scales2(self) -> tuple[float, float]:
        """Normalisation scales for the 2-objective problem (nodes, BB)."""
        return (float(self.nodes), max(self.bb, 1.0))

    def scales4(self) -> tuple[float, float, float, float]:
        """Scales for the 4-objective problem (nodes, BB, SSD, waste)."""
        ssd = max(self.ssd_total, 1.0)
        return (float(self.nodes), max(self.bb, 1.0), ssd, ssd)

    def scales(self, n_objectives: int) -> tuple[float, ...]:
        """:meth:`scales4` for the §5 four-objective problem, else :meth:`scales2`."""
        return self.scales4() if n_objectives == 4 else self.scales2()


def has_ssd_tiers(avail: Available) -> bool:
    """Does the cluster expose local SSD tiers (the §5 formulation)?"""
    return len(avail.ssd_free) > 1 or any(cap > 0 for cap in avail.ssd_free)


class Selector(abc.ABC):
    """One multi-resource scheduling method."""

    #: Identifier used in result tables (matches §4.3 naming).
    name: str = "selector"
    #: Selections answered by a fallback (a watchdog's; 0 otherwise).
    fallback_calls: int = 0

    def __init__(self) -> None:
        self.system: Optional[SystemCapacity] = None

    def bind(self, system: SystemCapacity) -> None:
        """Attach system totals; called by the engine before the run."""
        self.system = system

    def _require_system(self) -> SystemCapacity:
        if self.system is None:
            raise SchedulingError(f"{self.name}: bind() must be called before select()")
        return self.system

    @abc.abstractmethod
    def select(self, window: Sequence[Job], avail: Available) -> List[int]:
        """Indices (into ``window``) of the jobs to start now."""

    def report(self, metrics: MetricsRegistry) -> None:
        """Fold end-of-run counters into the run's ``metrics``; the
        engine calls it once, after the last pass.  Greedy methods have
        nothing to report."""

    # --- shared helpers ----------------------------------------------------------
    @staticmethod
    def verify_feasible(
        window: Sequence[Job], avail: Available, selected: Sequence[int]
    ) -> None:
        """Raise unless ``selected`` jointly fits into ``avail``.

        Joint SSD feasibility follows the greedy smallest-tier-first
        assignment in window order (the same rule the cluster applies).
        """
        seen = set()
        for i in selected:
            if not 0 <= i < len(window):
                raise SchedulingError(f"selected index {i} outside window")
            if i in seen:
                raise SchedulingError(f"index {i} selected twice")
            seen.add(i)
        nodes = sum(window[i].nodes for i in selected)
        bb = sum(window[i].bb for i in selected)
        if nodes > avail.nodes:
            raise SchedulingError(
                f"selection uses {nodes} nodes, only {avail.nodes} free"
            )
        if bb > avail.bb + 1e-9:
            raise SchedulingError(f"selection uses {bb}GB BB, only {avail.bb}GB free")
        tiers = dict(avail.ssd_free)
        caps = sorted(tiers)  # keys never change below, only counts do
        for i in sorted(selected):
            job = window[i]
            remaining = job.nodes
            for cap in caps:
                if cap < job.ssd or remaining == 0:
                    continue
                grab = min(tiers[cap], remaining)
                tiers[cap] -= grab
                remaining -= grab
            if remaining:
                raise SchedulingError(
                    f"job {job.jid} cannot find {job.nodes} nodes with "
                    f">= {job.ssd}GB SSD in the joint selection"
                )

    @staticmethod
    def greedy_in_order(
        window: Sequence[Job],
        avail: Available,
        order: Sequence[int],
        *,
        stop_at_first_miss: bool = False,
    ) -> List[int]:
        """Allocate indices in ``order`` while they fit.

        ``stop_at_first_miss`` reproduces blocking FCFS semantics (the
        naive method); otherwise non-fitting jobs are skipped.
        """
        tiers = dict(avail.ssd_free)
        caps = sorted(tiers)  # keys never change below, only counts do
        # Exact fast path for the qualifying count: a request at or below
        # the smallest tier capacity qualifies every free node (the common
        # case on single-tier systems), so track the integer total.
        min_cap = caps[0] if caps else 0.0
        total = sum(tiers.values())
        bb = avail.bb
        chosen: List[int] = []
        for i in order:
            job = window[i]
            if job.ssd <= min_cap:
                qualifying = total
            else:
                qualifying = sum(n for cap, n in tiers.items() if cap >= job.ssd)
            if job.bb <= bb + 1e-9 and qualifying >= job.nodes:
                remaining = job.nodes
                for cap in caps:
                    if cap < job.ssd or remaining == 0:
                        continue
                    grab = min(tiers[cap], remaining)
                    tiers[cap] -= grab
                    remaining -= grab
                total -= job.nodes
                bb -= job.bb
                chosen.append(i)
            elif stop_at_first_miss:
                break
        return chosen
