"""Job model: the unit of work a batch scheduler allocates.

A :class:`Job` mirrors the fields the paper's traces carry (§4.1): requested
node count, requested shared burst-buffer capacity, requested per-node local
SSD capacity (§5 case study), submit time, actual runtime, and the
user-supplied walltime estimate that EASY backfilling relies on.

Jobs move through a small lifecycle state machine::

    PENDING --submit--> QUEUED --start--> RUNNING --finish--> COMPLETED
                          ^                  |
                          +---requeue--------+--kill (node fault)
                          |
                          +--give-up--> ABANDONED

State transitions are methods so invariants (e.g. a job cannot start twice,
cannot finish before starting) are enforced in one place.  The fault path
(kill → requeue → abandon) is exercised only when a
:class:`~repro.resilience.FaultInjector` is attached to the engine; fault-free
runs never leave the top row.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import FrozenSet, Optional

from ..errors import SchedulingError, TraceError


class JobState(enum.Enum):
    """Lifecycle states of a job inside the simulator."""

    PENDING = "pending"      #: created, not yet submitted to the queue
    QUEUED = "queued"        #: waiting in the scheduler queue
    RUNNING = "running"      #: allocated and executing
    COMPLETED = "completed"  #: finished and resources released
    ABANDONED = "abandoned"  #: killed by faults too often; retries exhausted


@dataclass
class Job:
    """A batch job with multi-resource demands.

    Parameters
    ----------
    jid:
        Unique job id within a trace.
    submit_time:
        Seconds since trace epoch at which the job enters the queue.
    runtime:
        Actual execution time in seconds (known to the simulator, *not*
        to the scheduler).
    walltime:
        User-requested walltime estimate in seconds; the scheduler's only
        view of job length (used by WFP priority and EASY backfilling).
        Must be ``>= runtime`` is *not* enforced — real traces contain
        underestimates; the simulator kills nothing and simply uses the
        actual runtime for completion.
    nodes:
        Requested number of compute nodes (``n_i`` in §3.2.1).
    bb:
        Requested shared burst buffer in GB (``b_i``).  Zero means the job
        does not use the burst buffer.
    ssd:
        Requested local SSD per node in GB (``s_i``, §5).  Zero means no
        local SSD requirement.
    deps:
        Ids of jobs that must complete before this one may enter the
        scheduling window (§3.1).
    user:
        Opaque user identifier (used only for reporting).
    """

    jid: int
    submit_time: float
    runtime: float
    walltime: float
    nodes: int
    bb: float = 0.0
    ssd: float = 0.0
    deps: FrozenSet[int] = field(default_factory=frozenset)
    user: str = ""

    # --- simulation bookkeeping (filled in by the engine) -------------------
    state: JobState = field(default=JobState.PENDING, compare=False)
    start_time: Optional[float] = field(default=None, compare=False)
    end_time: Optional[float] = field(default=None, compare=False)
    #: Per-node SSD capacities actually assigned (§5); empty when no SSD.
    assigned_ssd: tuple = field(default=(), compare=False)
    #: Number of scheduling invocations spent inside the window unselected
    #: (starvation counter, §3.1).
    window_age: int = field(default=0, compare=False)
    #: Times the job was killed by a fault and taken off the cluster.
    attempts: int = field(default=0, compare=False)
    #: Node-seconds of execution lost to fault kills (work thrown away).
    lost_node_seconds: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        # Written as ``not lo <= x < inf`` so that NaN (every comparison
        # with it is False) and the infinities fail too.
        if self.nodes <= 0:
            raise TraceError(f"job {self.jid}: nodes must be positive, got {self.nodes}")
        if not 0 <= self.runtime < math.inf:
            raise TraceError(f"job {self.jid}: runtime must be finite and >= 0, got {self.runtime}")
        if not 0 < self.walltime < math.inf:
            raise TraceError(f"job {self.jid}: walltime must be finite and > 0, "
                             f"got {self.walltime}")
        if not 0 <= self.bb < math.inf:
            raise TraceError(f"job {self.jid}: bb (burst buffer request) must be finite and >= 0, "
                             f"got {self.bb}")
        if not 0 <= self.ssd < math.inf:
            raise TraceError(f"job {self.jid}: ssd request must be finite and >= 0, got {self.ssd}")
        if not 0 <= self.submit_time < math.inf:
            raise TraceError(f"job {self.jid}: submit_time must be finite and >= 0, "
                             f"got {self.submit_time}")
        if not isinstance(self.deps, frozenset):
            self.deps = frozenset(self.deps)
        if self.jid in self.deps:
            raise TraceError(f"job {self.jid} depends on itself")

    # --- state machine ------------------------------------------------------
    def mark_queued(self) -> None:
        """Transition PENDING → QUEUED at submission."""
        if self.state is not JobState.PENDING:
            raise SchedulingError(f"job {self.jid}: cannot queue from {self.state}")
        self.state = JobState.QUEUED

    def mark_started(self, now: float) -> None:
        """Transition QUEUED → RUNNING and record the start timestamp."""
        if self.state is not JobState.QUEUED:
            raise SchedulingError(f"job {self.jid}: cannot start from {self.state}")
        if now < self.submit_time:
            raise SchedulingError(
                f"job {self.jid}: start {now} precedes submit {self.submit_time}"
            )
        self.state = JobState.RUNNING
        self.start_time = now

    def mark_completed(self, now: float) -> None:
        """Transition RUNNING → COMPLETED and record the end timestamp."""
        if self.state is not JobState.RUNNING:
            raise SchedulingError(f"job {self.jid}: cannot complete from {self.state}")
        self.state = JobState.COMPLETED
        self.end_time = now

    def mark_killed(self, now: float) -> None:
        """Transition RUNNING → PENDING after a fault kill.

        The partial execution is discarded: ``lost_node_seconds``
        accumulates the thrown-away work, ``attempts`` counts the kill, and
        the start timestamp is cleared so a later successful attempt (or
        none) determines the wait/slowdown metrics.
        """
        if self.state is not JobState.RUNNING:
            raise SchedulingError(f"job {self.jid}: cannot kill from {self.state}")
        assert self.start_time is not None
        self.lost_node_seconds += self.nodes * (now - self.start_time)
        self.attempts += 1
        self.state = JobState.PENDING
        self.start_time = None
        self.end_time = None
        self.assigned_ssd = ()

    def mark_requeued(self) -> None:
        """Transition PENDING → QUEUED when a killed job re-enters the queue."""
        if self.state is not JobState.PENDING:
            raise SchedulingError(f"job {self.jid}: cannot requeue from {self.state}")
        self.state = JobState.QUEUED
        self.window_age = 0

    def mark_abandoned(self, now: float) -> None:
        """Terminal transition to ABANDONED (retries exhausted or dep lost).

        Allowed from PENDING (just killed, or never submitted) and QUEUED
        (a dependency was abandoned, so the job can never become eligible).
        """
        if self.state not in (JobState.PENDING, JobState.QUEUED):
            raise SchedulingError(f"job {self.jid}: cannot abandon from {self.state}")
        self.state = JobState.ABANDONED
        self.end_time = now

    # --- derived metrics ----------------------------------------------------
    @property
    def wait_time(self) -> float:
        """Queue wait in seconds (start − submit); requires a started job."""
        if self.start_time is None:
            raise SchedulingError(f"job {self.jid} has not started")
        return self.start_time - self.submit_time

    @property
    def response_time(self) -> float:
        """Wait plus runtime, i.e. submit → completion."""
        return self.wait_time + self.runtime

    def slowdown(self, *, bound: float = 0.0) -> float:
        """Response time over runtime (§4.2).

        ``bound`` implements *bounded slowdown*: runtimes below ``bound``
        seconds are clamped so trivially short jobs do not blow up the
        average.  ``bound=0`` is the paper's plain slowdown.
        """
        runtime = max(self.runtime, bound)
        if runtime <= 0:
            raise SchedulingError(f"job {self.jid}: slowdown undefined for zero runtime")
        return self.response_time / runtime

    @property
    def node_seconds(self) -> float:
        """Node-seconds consumed by the job's actual execution."""
        return self.nodes * self.runtime

    @property
    def bb_seconds(self) -> float:
        """Burst-buffer GB-seconds consumed by the job."""
        return self.bb * self.runtime

    @property
    def uses_bb(self) -> bool:
        """True if the job requests any shared burst buffer."""
        return self.bb > 0

    @property
    def uses_ssd(self) -> bool:
        """True if the job requests any per-node local SSD."""
        return self.ssd > 0

    def demand_vector(self) -> tuple[float, float, float]:
        """(nodes, bb GB, total SSD GB) — the job's resource footprint."""
        return (float(self.nodes), self.bb, self.ssd * self.nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Job(jid={self.jid}, nodes={self.nodes}, bb={self.bb:.0f}GB, "
            f"ssd={self.ssd:.0f}GB/node, rt={self.runtime:.0f}s, "
            f"state={self.state.value})"
        )
