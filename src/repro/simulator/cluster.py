"""Cluster resource model: compute nodes, shared burst buffer, local SSDs.

The scheduler in the paper allocates three system-level resources:

* **compute nodes** — an undifferentiated pool of ``N`` nodes (the paper
  uses "CPU" and "compute node" interchangeably);
* **shared burst buffer** — a global pool of ``B`` GB (Cori's DataWarp);
* **local SSDs** — per-node storage of heterogeneous capacity (§5),
  modelled by :class:`~repro.simulator.ssd_pool.SSDPool`.

:class:`Cluster` enforces capacity invariants on allocate/release and
exposes an :class:`Available` snapshot that selection methods consume.
A fraction of the burst buffer can be carved out for persistent
reservations (one third on Cori, §4.1), which simply reduces usable
capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

import numpy as np

from ..errors import AllocationError, ConfigurationError, ResilienceError
from .job import Job
from .ssd_pool import SSDAssignment, SSDPool


@dataclass(frozen=True)
class Available:
    """Snapshot of free capacity at a scheduling instant.

    ``ssd_free`` maps SSD tier capacity (GB) → free node count; for systems
    without local SSDs it has the single tier ``0.0`` covering every node.
    """

    nodes: int
    bb: float
    ssd_free: Mapping[float, int]

    def fits(self, job: Job) -> bool:
        """Would ``job`` fit into this snapshot on its own?"""
        if job.nodes > self.nodes or job.bb > self.bb:
            return False
        qualifying = sum(n for cap, n in self.ssd_free.items() if cap >= job.ssd)
        return qualifying >= job.nodes

    def fits_cols(
        self, nodes: np.ndarray, bb: np.ndarray, ssd: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`fits` over pre-gathered demand columns.

        Element-wise identical to ``[self.fits(j) for j in jobs]`` for the
        jobs whose columns are passed.  The engine slices these out of its
        :class:`~repro.simulator.jobtable.JobTable` instead of looping over
        Job objects.  Builds the sorted tier-capacity vector and its
        qualifying-node suffix sums once for the whole batch instead of
        re-summing the tier mapping per job.
        """
        if len(nodes) == 0:
            return np.zeros(0, dtype=bool)
        if len(self.ssd_free) == 1:
            # Single-tier system (e.g. Cori: burst buffer, no local SSDs):
            # a request qualifies every free node or none, so the suffix-sum
            # machinery below collapses to one comparison per column.
            ((cap, free),) = self.ssd_free.items()
            return (
                (nodes <= self.nodes)
                & (bb <= self.bb)
                & (ssd <= cap)
                & (nodes <= free)
            )
        caps = np.array(sorted(self.ssd_free), dtype=float)
        free = np.array([self.ssd_free[c] for c in caps], dtype=np.int64)
        # suffix[i] = free nodes on tiers caps[i:]; suffix[len(caps)] = 0
        # (a request above every tier capacity qualifies zero nodes).
        suffix = np.concatenate([np.cumsum(free[::-1])[::-1], [0]])
        qualifying = suffix[np.searchsorted(caps, ssd, side="left")]
        return (nodes <= self.nodes) & (bb <= self.bb) & (qualifying >= nodes)


class Cluster:
    """Mutable multi-resource cluster state.

    Parameters
    ----------
    nodes:
        Total compute nodes ``N``.
    bb_capacity:
        Total shared burst buffer in GB (``B``).  Zero disables the burst
        buffer entirely (every BB request then fails to fit).
    ssd_tiers:
        Optional mapping of local-SSD capacity (GB) → node count.  When
        given, counts must sum to ``nodes``.  ``None`` means no local SSDs
        (a single 0-GB tier).
    bb_reserved_fraction:
        Fraction of ``bb_capacity`` carved out for persistent reservations
        (Cori reserves one third, §4.1).  Reduces schedulable BB capacity.
    """

    def __init__(
        self,
        nodes: int,
        bb_capacity: float,
        *,
        ssd_tiers: Optional[Mapping[float, int]] = None,
        bb_reserved_fraction: float = 0.0,
    ) -> None:
        if nodes <= 0:
            raise ConfigurationError(f"cluster needs a positive node count, got {nodes}")
        if bb_capacity < 0:
            raise ConfigurationError(f"negative burst buffer capacity {bb_capacity}")
        if not 0.0 <= bb_reserved_fraction < 1.0:
            raise ConfigurationError(
                f"bb_reserved_fraction must be in [0, 1), got {bb_reserved_fraction}"
            )
        self.total_nodes = int(nodes)
        self.bb_capacity = bb_capacity * (1.0 - bb_reserved_fraction)
        self._ssd = SSDPool(ssd_tiers if ssd_tiers is not None else {0.0: nodes})
        if self._ssd.total_nodes != self.total_nodes:
            raise ConfigurationError(
                f"SSD tiers cover {self._ssd.total_nodes} nodes, cluster has {nodes}"
            )
        self.nodes_used = 0
        self.bb_used = 0.0
        #: job id → SSD assignment, for symmetric release
        self._assignments: Dict[int, SSDAssignment] = {}
        #: SSD tier → nodes currently offline due to injected failures
        self._offline: Dict[float, int] = {}
        #: burst-buffer GB currently offline due to injected degradation
        self.bb_offline = 0.0

    # --- queries ---------------------------------------------------------------
    @property
    def nodes_offline(self) -> int:
        """Compute nodes currently failed/offline."""
        return sum(self._offline.values())

    @property
    def nodes_online(self) -> int:
        """Nominal node count minus failed nodes (healthy capacity)."""
        return self.total_nodes - self.nodes_offline

    @property
    def bb_online(self) -> float:
        """Schedulable burst-buffer capacity minus degraded capacity (GB)."""
        return self.bb_capacity - self.bb_offline

    @property
    def nodes_free(self) -> int:
        """Currently free compute nodes (excludes failed nodes)."""
        return self.total_nodes - self.nodes_used - self.nodes_offline

    @property
    def bb_free(self) -> float:
        """Currently free burst buffer in GB.

        Never negative: a degradation while running jobs hold more BB than
        the surviving capacity simply pins the free amount at zero until
        enough jobs release or the capacity is restored.
        """
        return max(self.bb_capacity - self.bb_offline - self.bb_used, 0.0)

    @property
    def ssd_pool(self) -> SSDPool:
        """The underlying local-SSD pool (read for planning, don't mutate)."""
        return self._ssd

    @property
    def has_ssd_tiers(self) -> bool:
        """True when the cluster models heterogeneous local SSDs."""
        return self._ssd.capacities != (0.0,)

    def available(self) -> Available:
        """Immutable snapshot of free capacity for selection methods."""
        return Available(
            nodes=self.nodes_free, bb=self.bb_free, ssd_free=self._ssd.free_per_tier()
        )

    def can_fit(self, job: Job) -> bool:
        """Would ``job`` fit right now, considering all three resources?"""
        return self.available().fits(job)

    def node_utilization(self) -> float:
        """Instantaneous fraction of nodes in use."""
        return self.nodes_used / self.total_nodes

    def bb_utilization(self) -> float:
        """Instantaneous fraction of (schedulable) burst buffer in use."""
        if self.bb_capacity == 0:
            return 0.0
        return self.bb_used / self.bb_capacity

    # --- allocation --------------------------------------------------------------
    def allocate(self, job: Job) -> None:
        """Reserve the job's nodes, burst buffer, and local SSDs.

        Atomic: on failure nothing is reserved.  Raises
        :class:`AllocationError` when the job does not fit or is already
        allocated.
        """
        if job.jid in self._assignments:
            raise AllocationError(f"job {job.jid} is already allocated")
        if job.nodes > self.nodes_free:
            raise AllocationError(
                f"job {job.jid} wants {job.nodes} nodes, only {self.nodes_free} free"
            )
        if job.bb > self.bb_free:
            raise AllocationError(
                f"job {job.jid} wants {job.bb}GB burst buffer, only {self.bb_free}GB free"
            )
        assignment = self._ssd.allocate(job.nodes, job.ssd)  # raises if no fit
        self.nodes_used += job.nodes
        self.bb_used += job.bb
        self._assignments[job.jid] = assignment
        job.assigned_ssd = assignment.capacities() if job.ssd > 0 else ()

    def release(self, job: Job) -> None:
        """Return the job's resources; inverse of :meth:`allocate`."""
        assignment = self._assignments.pop(job.jid, None)
        if assignment is None:
            raise AllocationError(f"job {job.jid} is not allocated")
        self._ssd.release(assignment)
        self.nodes_used -= job.nodes
        self.bb_used -= job.bb
        # Repeated float add/subtract of large GB values accumulates error
        # proportional to capacity; tolerate that, reject real bugs.
        tolerance = 1e-6 * (1.0 + self.bb_capacity)
        if self.nodes_used < 0 or self.bb_used < -tolerance:
            raise AllocationError(
                f"release of job {job.jid} drove usage negative "
                f"(nodes={self.nodes_used}, bb={self.bb_used})"
            )
        self.bb_used = max(self.bb_used, 0.0)

    # --- fault injection -------------------------------------------------------
    def fail_nodes(self, count: int, tier: float) -> int:
        """Take up to ``count`` currently *free* nodes of ``tier`` offline.

        Returns the number of nodes actually failed.  Busy nodes are never
        seized here — the engine kills victim jobs first (releasing their
        nodes) and calls again, so :class:`AllocationError` invariants and
        per-job accounting stay intact.
        """
        drained = self._ssd.drain(count, tier)
        if drained:
            key = float(tier)
            self._offline[key] = self._offline.get(key, 0) + drained
        return drained

    def restore_nodes(self, count: int, tier: float) -> None:
        """Bring previously failed nodes of ``tier`` back online."""
        key = float(tier)
        offline = self._offline.get(key, 0)
        if count > offline:
            raise ResilienceError(
                f"restoring {count} nodes of tier {tier:g}GB, only {offline} offline"
            )
        self._ssd.restore(count, tier)
        self._offline[key] = offline - count

    def degrade_bb(self, amount: float) -> float:
        """Take up to ``amount`` GB of burst buffer offline; returns the
        amount actually degraded (clamped at the schedulable capacity)."""
        if amount < 0:
            raise ResilienceError(f"cannot degrade a negative BB amount ({amount})")
        actual = min(amount, self.bb_capacity - self.bb_offline)
        self.bb_offline += actual
        return actual

    def restore_bb(self, amount: float) -> None:
        """Bring previously degraded burst-buffer capacity back online."""
        if amount < 0:
            raise ResilienceError(f"cannot restore a negative BB amount ({amount})")
        if amount > self.bb_offline + 1e-9:
            raise ResilienceError(
                f"restoring {amount}GB BB, only {self.bb_offline}GB offline"
            )
        self.bb_offline = max(self.bb_offline - amount, 0.0)

    def allocated_waste(self, job: Job) -> float:
        """SSD over-provisioning (GB) of a currently allocated job."""
        assignment = self._assignments.get(job.jid)
        if assignment is None:
            raise AllocationError(f"job {job.jid} is not allocated")
        return assignment.waste

    def nodes_by_tier(self, job: Job) -> Dict[float, int]:
        """Per-SSD-tier node counts held by a currently allocated job."""
        assignment = self._assignments.get(job.jid)
        if assignment is None:
            raise AllocationError(f"job {job.jid} is not allocated")
        return dict(assignment.per_tier)

    def running_jobs(self) -> list[int]:
        """Ids of jobs currently holding resources."""
        return list(self._assignments)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cluster(nodes {self.nodes_used}/{self.total_nodes}, "
            f"bb {self.bb_used:.0f}/{self.bb_capacity:.0f}GB)"
        )
