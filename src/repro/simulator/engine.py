"""Trace-driven scheduling simulation engine.

The engine replays a job trace against a :class:`~repro.simulator.cluster.Cluster`
under one (base policy, window, selection method) configuration:

1. job **submissions** and **completions** are the exogenous events;
2. after each batch of simultaneous events a **scheduling pass** runs:
   the base policy orders the queue, the window policy extracts the first
   ``w`` eligible jobs, starvation-forced jobs are allocated first, the
   selection method picks jobs from the remaining window, and EASY
   backfilling then fills fragments without delaying the highest-priority
   unstarted job;
3. every occupancy change is recorded for the time-integrated usage
   metrics (§4.2).

When a starvation-forced job does not fit, the §3.1 "must be selected to
run" guarantee is realised by making it the backfill reservation head:
nothing may start that would delay it, so it runs at the earliest instant
its resources free up.
"""

from __future__ import annotations

import time as _time
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set

from ..backfill import EasyBackfill, PlannedRelease
from ..backfill.easy import by_est_end
from ..errors import SchedulingError, TraceError
from ..policies.base import PriorityPolicy
from ..telemetry import NULL_TRACER, MetricsRegistry, get_tracer
from ..telemetry.tracer import NULL_SPAN

if TYPE_CHECKING:  # pulled lazily at runtime — repro.methods imports the
    # core solvers, which import this simulator package: a module-level
    # import here would close an import cycle.
    from ..methods.base import Selector
    from ..resilience.faults import BBDegrade, FaultInjector, NodeFailure
    from ..resilience.retry import RetryPolicy
from ..windows import WindowPolicy
from .cluster import Cluster
from .events import Event, EventQueue, EventType
from .job import Job, JobState
from .jobtable import JobTable
from .recorder import UsageRecorder

#: EventType → counter name, precomputed so the hot loop does no formatting.
_EVENT_COUNTERS = {et: f"engine.events.{et.name.lower()}" for et in EventType}

#: Queue depth below which a time-dependent (uncacheable) ordering uses the
#: policy's tuple sort instead of the job table — the table path's fixed
#: array setup (~15 µs) only amortizes past this measured crossover
#: (docs/performance.md has the table).
_VECTOR_MIN_QUEUE = 48


@dataclass
class EngineStats:
    """Run-level scheduling statistics.

    ``selected_jobs``, ``forced_jobs``, and ``backfilled_jobs`` partition
    the started jobs by *how* they started; a job started through the
    starvation bound counts only as forced, never also as selected.

    ``selector_time`` and ``selector_calls`` are *derived views*: the
    single timing source is the engine's telemetry registry (the
    ``engine.selector_seconds`` histogram), from which these fields are
    populated when the run finishes.
    """

    invocations: int = 0            #: scheduling passes that reached selection
    selector_time: float = 0.0      #: wall seconds spent inside the selector
    selector_calls: int = 0         #: number of selector invocations
    selected_jobs: int = 0          #: jobs started via window selection
    forced_jobs: int = 0            #: jobs started via the starvation bound
    backfilled_jobs: int = 0        #: jobs started via EASY backfilling
    skipped_passes: int = 0         #: passes skipped by the no-capacity early-out
    # --- resilience (all zero unless a FaultInjector / watchdog is attached) ---
    fallback_calls: int = 0         #: selections answered by a watchdog fallback
    node_failures: int = 0          #: node-failure incidents processed
    nodes_failed: int = 0           #: node-downs summed over incidents
    bb_degrades: int = 0            #: burst-buffer degradation incidents
    job_faults: int = 0             #: spontaneous job-abort events that hit a job
    killed_jobs: int = 0            #: job executions killed by faults
    requeued_jobs: int = 0          #: kills that led to a requeue
    abandoned_jobs: int = 0         #: jobs that reached JobState.ABANDONED
    lost_node_seconds: float = 0.0  #: node-seconds of execution thrown away

    @property
    def mean_selector_time(self) -> float:
        """Average wall time of one selection decision (seconds).

        Averages over *all* ``selector_calls``, including the
        ``fallback_calls`` a :class:`~repro.resilience.SolverWatchdog`
        answered cheaply — under heavy degradation this mean therefore
        drops below the inner solver's own cost.
        """
        if self.selector_calls == 0:
            return 0.0
        return self.selector_time / self.selector_calls

    @property
    def fallback_rate(self) -> float:
        """Fraction of selector calls that degraded to the fallback."""
        if self.selector_calls == 0:
            return 0.0
        return self.fallback_calls / self.selector_calls


@dataclass
class SimulationResult:
    """Everything a run produced, ready for metric evaluation."""

    jobs: List[Job]
    recorder: UsageRecorder
    stats: EngineStats
    makespan: float
    total_nodes: int
    bb_capacity: float
    ssd_capacity: float


class SchedulingEngine:
    """Discrete-event batch-scheduling simulator.

    Parameters
    ----------
    cluster:
        The resource model (fresh per run; the engine mutates it).
    policy:
        Base scheduler priority policy (FCFS, WFP).
    selector:
        Multi-resource selection method; the engine binds system capacities
        into it before running.
    window:
        Window policy (size + starvation bound).
    backfill:
        EASY backfill planner, or ``None`` to disable backfilling.
    backfill_scope:
        ``"window"`` (default) restricts backfill candidates to the jobs
        the scheduler examined this invocation — a window-based scheduler
        looks at ``w`` jobs per pass, so only those may skip ahead, which
        is the §4.3 setting ("all the methods use EASY backfilling" with
        "the same window size for all methods").  ``"queue"`` is classic
        whole-queue EASY, kept for ablation: it largely erases the
        head-of-line-blocking penalty the naive method suffers.
    faults:
        Optional :class:`~repro.resilience.FaultInjector` driving seeded
        node/burst-buffer/job failures through the run.  ``None`` (the
        default) keeps the simulator byte-identical to the fault-free
        engine.
    retry:
        Requeue policy for fault-killed jobs; defaults to
        ``RetryPolicy()`` when ``faults`` is given, ignored otherwise.
    metrics:
        Telemetry registry the run records into (events processed, jobs
        by start route, queue depth over sim-time, selector latency).  A
        fresh one is created when omitted; exposed as ``self.metrics``.
        Spans are additionally emitted to the process's active tracer
        (:func:`repro.telemetry.get_tracer`) — the zero-overhead NULL
        tracer unless a run is explicitly traced.

    The engine builds a :class:`~repro.simulator.jobtable.JobTable` over
    the trace, orders the queue with one ``np.lexsort`` instead of a
    Python tuple sort (only the front a pass reads when every queued job
    is eligible and backfill is window-scoped; cached for
    time-independent policies such as FCFS until queue membership
    changes), keeps the backfiller's planned releases as a ledger sorted
    by estimated end instead of rebuilding and sorting them every pass,
    and gates window feasibility from the table's columns.  Every
    shortcut is *byte-identical* to the plain reference engine kept as a
    test oracle (``tests/oracles.py``) — same job outcomes, same
    fingerprints — which the differential tests assert across all §4
    methods.
    """

    def __init__(
        self,
        cluster: Cluster,
        policy: PriorityPolicy,
        selector: Selector,
        window: Optional[WindowPolicy] = None,
        backfill: Optional[EasyBackfill] = EasyBackfill(),
        backfill_scope: str = "window",
        faults: Optional[FaultInjector] = None,
        retry: Optional[RetryPolicy] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if backfill_scope not in ("window", "queue"):
            raise SchedulingError(
                f"backfill_scope must be 'window' or 'queue', got {backfill_scope!r}"
            )
        self.backfill_scope = backfill_scope
        from ..methods.base import SystemCapacity  # lazy: avoids import cycle

        self.cluster = cluster
        self.policy = policy
        self.selector = selector
        self.window = window or WindowPolicy()
        self.backfill = backfill
        ssd_total = sum(
            cap * count for cap, count in cluster.ssd_pool.total_per_tier().items()
        )
        self._ssd_capacity = ssd_total
        selector.bind(
            SystemCapacity(
                nodes=cluster.total_nodes, bb=cluster.bb_capacity, ssd_total=ssd_total
            )
        )
        self.faults = faults if faults is not None and faults.scenario.enabled else None
        if self.faults is not None:
            from ..resilience.retry import RetryPolicy as _RetryPolicy

            self.retry = retry if retry is not None else _RetryPolicy()
            self.faults.bind(
                ssd_tiers=cluster.ssd_pool.total_per_tier(),
                bb_capacity=cluster.bb_capacity,
            )
        else:
            self.retry = retry
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._tracer = NULL_TRACER  # rebound from the active tracer in run()
        # Cached instrument objects: the hot loop bumps Counter.value
        # directly instead of going through the registry's name lookup on
        # every event.  Refs are shared with self.metrics, so snapshots and
        # pickling (one memo) see the same objects.
        m = self.metrics
        self._c_event_by_type = {
            et: m.counter(name) for et, name in _EVENT_COUNTERS.items()
        }
        self._c_events = m.counter("engine.events")
        self._c_started = m.counter("engine.jobs_started")
        self._c_passes = m.counter("engine.passes")
        self._c_passes_skipped = m.counter("engine.passes_skipped")
        self._c_forced = m.counter("engine.jobs_forced")
        self._c_selected = m.counter("engine.jobs_selected")
        self._c_backfilled = m.counter("engine.jobs_backfilled")
        self._c_order_vectorized = m.counter("engine.order.vectorized")
        self._c_order_cache_hits = m.counter("engine.order.cache_hits")
        self._c_order_fallback = m.counter("engine.order.fallback")
        self._g_queue_depth = m.gauge("engine.queue_depth")
        self._h_selector = m.histogram("engine.selector_seconds")
        # --- run state -------------------------------------------------------
        self._events = EventQueue()
        self._jobs: Optional[List[Job]] = None
        #: queued jobs by jid, in arrival order (requeues re-enter at the end)
        self._queue: Dict[int, Job] = {}
        self._running: Dict[int, Job] = {}
        self._completed: Set[int] = set()
        self._abandoned: Set[int] = set()
        self._recorder = UsageRecorder()
        self._stats = EngineStats()
        self._ssd_used = 0.0
        self._ssd_waste = 0.0
        self._now = 0.0
        self._terminal = 0
        #: job id → EventQueue token of its pending JOB_END (for fault kills)
        self._end_tokens: Dict[int, int] = {}
        # --- array-backed state ----------------------------------------------
        #: column view of the trace, built by run()
        self._table: Optional[JobTable] = None
        #: bumped whenever queue *membership* changes; keys the order cache
        self._queue_rev = 0
        #: cached priority ordering (or its front) for time-independent policies
        self._order_cache: Optional[List[Job]] = None
        self._order_rev = -1
        #: jid → PlannedRelease, maintained in lock-step with ``_running``
        self._release_map: Dict[int, PlannedRelease] = {}
        #: the same releases sorted by est_end, ties in start order: the
        #: order the backfill planner walks them in (derived, not pickled)
        self._ledger: List[PlannedRelease] = []
        #: True when window.eligible() is provably the identity for this run
        self._eligible_passthrough = False
        #: True when the policy overrides priority_array (pure vectorized scores)
        self._order_vectorized = (
            type(self.policy).priority_array is not PriorityPolicy.priority_array
        )

    # --- pickling (checkpoint/resume) ---------------------------------------------
    # A mid-run engine is the unit :mod:`repro.checkpoint` persists: every
    # piece of run state above is plain picklable data (jobs, events,
    # recorder, metrics, RNG-bearing selector/injector).  The one exception
    # is the active tracer — it holds thread-local nesting state and a lock
    # — so it is dropped on save and rebound from the process's active
    # tracer when the restored engine continues.
    # The priority-order cache is likewise dropped: it is a pure function
    # of (_queue, _queue_rev) and the first pass after a resume rebuilds
    # it bit-identically, so pickling it only bloats every periodic save.
    # So is the release ledger: it is the stable est_end sort of
    # _release_map, whose insertion order is start order.
    # Snapshots of the retired table-less reference engine carry no
    # job table; it is built from the jobs' current states on load.
    def __getstate__(self) -> Dict:
        state = self.__dict__.copy()
        state["_tracer"] = None
        state["_order_cache"] = None
        state["_order_rev"] = -1
        del state["_ledger"]
        return state

    def __setstate__(self, state: Dict) -> None:
        state.pop("fast", None)
        self.__dict__.update(state)
        self._tracer = NULL_TRACER
        if isinstance(self._queue, list):  # snapshots that kept the queue as a list
            self._queue = {job.jid: job for job in self._queue}
        if self._table is None and self._jobs is not None:
            self._index_jobs(self._jobs)
        self._ledger = sorted(self._release_map.values(), key=by_est_end)

    # --- run-state introspection (checkpoint manifests, progress displays) --------
    @property
    def now(self) -> float:
        """Current simulated time (seconds since trace epoch)."""
        return self._now

    @property
    def jobs_total(self) -> int:
        """Number of jobs in the trace being simulated (0 before run())."""
        return len(self._jobs) if self._jobs is not None else 0

    @property
    def jobs_terminal(self) -> int:
        """Jobs that reached a terminal state (completed or abandoned)."""
        return self._terminal

    @property
    def events_pending(self) -> int:
        """Live events still queued."""
        return len(self._events)

    # --- public API ---------------------------------------------------------------
    def run(self, jobs: Sequence[Job], *, checkpointer=None) -> SimulationResult:
        """Simulate the full trace; returns when every job has completed.

        ``checkpointer`` (a :class:`repro.checkpoint.Checkpointer`) is
        polled once per event-batch boundary — the only instants at which
        engine state is internally consistent — and may persist a snapshot
        or stop the run by raising
        :class:`~repro.errors.SimulationInterrupted`.
        """
        jobs = list(jobs)
        ids = {j.jid for j in jobs}
        if len(ids) != len(jobs):
            raise TraceError("duplicate job ids in trace")
        for job in jobs:
            missing = job.deps - ids
            if missing:
                raise TraceError(f"job {job.jid} depends on unknown jobs {missing}")
            if not self.cluster.available().fits(job) and not self._could_ever_fit(job):
                raise TraceError(
                    f"job {job.jid} can never fit on this cluster "
                    f"({job.nodes} nodes, {job.bb}GB BB, {job.ssd}GB/node SSD)"
                )
            self._events.push(Event(job.submit_time, EventType.JOB_SUBMIT, job))
        self._jobs = jobs
        self._index_jobs(jobs)
        if self.faults is not None:
            self._recorder.observe_capacity(
                0.0, self.cluster.nodes_online, self.cluster.bb_online
            )
            self._push_fault(EventType.NODE_DOWN, self.faults.next_node_failure(0.0))
            self._push_fault(EventType.BB_DEGRADE, self.faults.next_bb_degrade(0.0))
            fail_at = self.faults.next_job_fail(0.0)
            if fail_at is not None:
                self._events.push(Event(fail_at, EventType.JOB_FAIL))
        return self._run_loop(checkpointer)

    def continue_run(self, *, checkpointer=None) -> SimulationResult:
        """Resume a restored mid-run engine until the trace completes.

        Only valid on an engine that was priming/running when it was
        snapshotted (i.e. one loaded by
        :func:`repro.checkpoint.load_checkpoint`); the event loop picks up
        exactly where the snapshot froze it.
        """
        if self._jobs is None:
            raise SchedulingError("continue_run() needs a primed engine; call run()")
        return self._run_loop(checkpointer)

    def _index_jobs(self, jobs: List[Job]) -> None:
        """Build the job table over ``jobs`` and the eligibility shortcut."""
        self._table = JobTable(jobs)
        # Dep-free trace + stock eligibility filter → the filter is the
        # identity, so each pass can skip rebuilding the eligible list.
        self._eligible_passthrough = not any(
            job.deps for job in jobs
        ) and type(self.window).eligible is WindowPolicy.eligible

    def _run_loop(self, checkpointer=None) -> SimulationResult:
        # With faults the event stream regenerates itself indefinitely, so
        # the loop also stops once every job is terminal (completed or
        # abandoned); without faults both conditions empty simultaneously.
        jobs = self._jobs
        assert jobs is not None
        self._tracer = get_tracer()
        metrics = self.metrics
        events = self._events
        n_jobs = len(jobs)
        c_events = self._c_events
        by_type = self._c_event_by_type
        with self._tracer.span(
            "event_loop", jobs=n_jobs, method=self.selector.name
        ) as loop_span:
            while events and self._terminal < n_jobs:
                t = events.peek_time()
                assert t is not None
                self._now = t
                changed = False
                # Batch-pop: pop_at re-checks the heap top each iteration,
                # so events pushed *for t* while processing the batch are
                # delivered in exactly the order of a peek/pop loop.
                while True:
                    event = events.pop_at(t)
                    if event is None:
                        break
                    c_events.value += 1
                    by_type[event.etype].value += 1
                    changed |= self._process(event)
                if changed:
                    self._schedule_pass(t)
                if checkpointer is not None:
                    # Batch boundary: every event at t is applied and the
                    # scheduling pass has run — a consistent snapshot point.
                    checkpointer.after_batch(self)
            loop_span.set(makespan=self._now, events=c_events.value)
        self._stats.fallback_calls = getattr(self.selector, "fallback_calls", 0)
        metrics.counter("engine.solver_fallbacks").inc(self._stats.fallback_calls)
        # GA evaluation-cache counters (None for greedy methods).
        cache_stats = getattr(self.selector, "eval_cache_stats", None)
        if cache_stats:
            for key, value in cache_stats.items():
                metrics.inc(f"ga.eval_cache.{key}", value)
        # Optimality-gap telemetry (empty unless a yardstick-equipped
        # selector measured its passes against the exact optimum).
        gaps = getattr(self.selector, "optimality_gaps", None)
        if gaps:
            gap_hist = metrics.histogram("ga.optimality_gap")
            for gap in gaps:
                gap_hist.observe(gap)
        skipped = getattr(self.selector, "yardstick_skipped", 0)
        if skipped:
            metrics.inc("ga.yardstick.skipped", skipped)
        # Derived views: EngineStats timing fields come from the telemetry
        # histogram, the run's single timing source.
        selector_hist = metrics.histograms.get("engine.selector_seconds")
        if selector_hist is not None:
            self._stats.selector_time = selector_hist.total
            self._stats.selector_calls = selector_hist.count
        return SimulationResult(
            jobs=jobs,
            recorder=self._recorder,
            stats=self._stats,
            makespan=self._now,
            total_nodes=self.cluster.total_nodes,
            bb_capacity=self.cluster.bb_capacity,
            ssd_capacity=self._ssd_capacity,
        )

    # --- internals ------------------------------------------------------------------
    def _could_ever_fit(self, job: Job) -> bool:
        """Would the job fit on an *empty* cluster?"""
        if job.nodes > self.cluster.total_nodes or job.bb > self.cluster.bb_capacity:
            return False
        qualifying = sum(
            n
            for cap, n in self.cluster.ssd_pool.total_per_tier().items()
            if cap >= job.ssd
        )
        return qualifying >= job.nodes

    def _process(self, event: Event) -> bool:
        """Apply one event; returns True when scheduling state changed."""
        if event.etype is EventType.JOB_END:
            job: Job = event.payload
            self._ssd_waste -= self.cluster.allocated_waste(job)
            self.cluster.release(job)
            job.mark_completed(event.time)
            del self._running[job.jid]
            self._drop_release(job.jid)
            self._end_tokens.pop(job.jid, None)
            self._completed.add(job.jid)
            self._terminal += 1
            self._ssd_used -= job.ssd * job.nodes
            self._sync_state(job)
            self._observe(event.time)
            return True
        if event.etype is EventType.JOB_SUBMIT:
            job = event.payload
            if job.deps & self._abandoned:
                # An upstream dependency was abandoned before this job even
                # arrived: it can never become eligible, so it is abandoned
                # on the spot rather than queued forever.
                self._abandon(job, event.time)
                return False
            job.mark_queued()
            self._queue[job.jid] = job
            self._queue_rev += 1
            self._sync_state(job)
            self._observe_queue(event.time)
            return True
        if event.etype is EventType.JOB_REQUEUE:
            job = event.payload
            job.mark_requeued()
            self._queue[job.jid] = job
            self._queue_rev += 1
            self._sync_state(job)
            self._observe_queue(event.time)
            return True
        if event.etype is EventType.NODE_DOWN:
            assert self.faults is not None
            self._apply_node_failure(event.payload, event.time)
            self._push_fault(
                EventType.NODE_DOWN, self.faults.next_node_failure(event.time)
            )
            self._observe_capacity(event.time)
            return True
        if event.etype is EventType.NODE_UP:
            count, tier = event.payload
            self.cluster.restore_nodes(count, tier)
            self._observe_capacity(event.time)
            return True
        if event.etype is EventType.BB_DEGRADE:
            assert self.faults is not None
            fault: BBDegrade = event.payload
            actual = self.cluster.degrade_bb(fault.amount)
            self._stats.bb_degrades += 1
            if actual > 0:
                self._events.push(
                    Event(event.time + fault.repair, EventType.BB_RESTORE, actual)
                )
            self._push_fault(
                EventType.BB_DEGRADE, self.faults.next_bb_degrade(event.time)
            )
            self._observe_capacity(event.time)
            # Losing capacity opens no scheduling opportunity — no pass.
            return False
        if event.etype is EventType.BB_RESTORE:
            self.cluster.restore_bb(event.payload)
            self._observe_capacity(event.time)
            return True
        if event.etype is EventType.JOB_FAIL:
            assert self.faults is not None
            changed = False
            if self._running:
                victim = self.faults.pick_victim(sorted(self._running))
                self._kill(self._running[victim], event.time)
                self._stats.job_faults += 1
                self._observe(event.time)
                changed = True
            fail_at = self.faults.next_job_fail(event.time)
            if fail_at is not None:
                self._events.push(Event(fail_at, EventType.JOB_FAIL))
            return changed
        return False

    def _start(self, job: Job, now: float) -> None:
        """Allocate and launch one job."""
        self.cluster.allocate(job)
        job.mark_started(now)
        self._running[job.jid] = job
        del self._queue[job.jid]
        self._queue_rev += 1
        self._c_started.value += 1
        self._ssd_used += job.ssd * job.nodes
        self._ssd_waste += self.cluster.allocated_waste(job)
        self._end_tokens[job.jid] = self._events.push(
            Event(now + job.runtime, EventType.JOB_END, job)
        )
        # The job's planned release is fixed at start (walltime estimate and
        # tier assignment never change while it runs), so it is recorded once
        # here instead of being rebuilt from _running every backfill pass.
        # Starts happen in time order, so inserting after every equal est_end
        # keeps ties in start order: the ledger stays the stable sort of a
        # rebuild from _running.
        release = PlannedRelease(
            est_end=now + job.walltime,
            bb=job.bb,
            nodes_by_tier=self.cluster.nodes_by_tier(job),
        )
        self._release_map[job.jid] = release
        insort(self._ledger, release, key=by_est_end)
        self._sync_state(job)

    def _drop_release(self, jid: int) -> None:
        """Forget a job's planned release when it ends or is killed."""
        release = self._release_map.pop(jid, None)
        if release is None:
            return
        ledger = self._ledger
        i = bisect_left(ledger, release.est_end, key=by_est_end)
        while ledger[i] is not release:
            i += 1
        del ledger[i]

    def _sync_state(self, job: Job) -> None:
        """Mirror a lifecycle transition into the job table's state column."""
        table = self._table
        table.set_state(table.row_of[job.jid], job.state)

    # --- fault handling ---------------------------------------------------------
    def _push_fault(self, etype: EventType, incident) -> None:
        """Queue the next incident of one fault kind (regenerative stream)."""
        if incident is not None:
            self._events.push(Event(incident.time, etype, incident))

    def _observe_capacity(self, now: float) -> None:
        self._recorder.observe_capacity(
            now, self.cluster.nodes_online, self.cluster.bb_online
        )

    def _apply_node_failure(self, fault: NodeFailure, now: float) -> None:
        """Take nodes offline, killing victim jobs when free ones run out.

        Free nodes of the struck tier are drained first; if the incident
        needs more, running jobs holding that tier die youngest-first
        (minimising lost work) until the count is reached or the tier is
        exhausted.  The paired NODE_UP restores exactly what went down, so
        capacity accounting is symmetric.
        """
        self._stats.node_failures += 1
        remaining = fault.count - self.cluster.fail_nodes(fault.count, fault.tier)
        while remaining > 0:
            victim = self._pick_tier_victim(fault.tier)
            if victim is None:
                break
            self._kill(victim, now)
            remaining -= self.cluster.fail_nodes(remaining, fault.tier)
        down = fault.count - remaining
        self._stats.nodes_failed += down
        if down > 0:
            self._events.push(
                Event(now + fault.repair, EventType.NODE_UP, (down, fault.tier))
            )
        self._observe(now)

    def _pick_tier_victim(self, tier: float) -> Optional[Job]:
        """Youngest running job holding at least one node of ``tier``."""
        holders = [
            j
            for j in self._running.values()
            if self.cluster.nodes_by_tier(j).get(tier, 0) > 0
        ]
        if not holders:
            return None
        return max(holders, key=lambda j: (j.start_time, j.jid))

    def _kill(self, job: Job, now: float) -> None:
        """Kill one running job and route it through the retry policy."""
        self._stats.killed_jobs += 1
        self.metrics.inc("engine.jobs_killed")
        self._ssd_waste -= self.cluster.allocated_waste(job)
        self.cluster.release(job)
        del self._running[job.jid]
        self._drop_release(job.jid)
        self._ssd_used -= job.ssd * job.nodes
        token = self._end_tokens.pop(job.jid, None)
        if token is not None:
            self._events.cancel(token)
        before = job.lost_node_seconds
        job.mark_killed(now)
        self._sync_state(job)
        self._stats.lost_node_seconds += job.lost_node_seconds - before
        assert self.retry is not None
        if self.retry.should_retry(job.attempts):
            delay = self.retry.requeue_delay(job.attempts)
            self._events.push(Event(now + delay, EventType.JOB_REQUEUE, job))
            self._stats.requeued_jobs += 1
            self.metrics.inc("engine.jobs_requeued")
        else:
            self._abandon(job, now)

    def _abandon(self, job: Job, now: float) -> None:
        """Mark ``job`` abandoned and cascade to jobs depending on it.

        Dependents already in the queue are abandoned transitively; ones
        not yet submitted are caught at their JOB_SUBMIT event via
        ``self._abandoned``.
        """
        stack = [job]
        while stack:
            j = stack.pop()
            if j.state is JobState.ABANDONED:
                continue
            if j.jid in self._queue:
                del self._queue[j.jid]
                self._queue_rev += 1
                self._observe_queue(now)
            j.mark_abandoned(now)
            self._sync_state(j)
            self._abandoned.add(j.jid)
            self._terminal += 1
            self._stats.abandoned_jobs += 1
            self.metrics.inc("engine.jobs_abandoned")
            stack.extend(q for q in self._queue.values() if j.jid in q.deps)

    def _observe(self, now: float) -> None:
        self._recorder.observe_cluster(
            now,
            self.cluster.nodes_used,
            self.cluster.bb_used,
            self._ssd_used,
            self._ssd_waste,
        )
        self._observe_queue(now)

    def _observe_queue(self, now: float) -> None:
        """Record queue depth to both the usage recorder and telemetry."""
        depth = len(self._queue)
        self._recorder.observe_queue(now, depth)
        self._g_queue_depth.set(depth, now)

    def _planned_releases(self) -> List[PlannedRelease]:
        # Maintained at _start/_kill/JOB_END; the planner reads it without
        # copying or sorting it.
        return self._ledger

    def _ordered_queue(self, now: float, k: Optional[int] = None) -> List[Job]:
        """Priority-ordered queue — at least its first ``k`` jobs when
        ``k`` is given.

        The table path scores the rows the job table marks QUEUED (exactly
        the members of ``_queue``: every mutation site calls
        ``_sync_state``) and sorts only the first ``k``
        (:meth:`PriorityPolicy.order_prefix`).

        For time-independent policies (FCFS) the ordering is cached and
        invalidated only when queue *membership* changes (``_queue_rev``
        bumps at the four mutation sites: submit, requeue, start, abandon)
        — the scores of the jobs already in the queue can never change.
        Time-dependent policies (WFP) are rescored every pass, through the
        policy's tuple sort below ``_VECTOR_MIN_QUEUE`` queued jobs.
        """
        queue = self._queue
        table = self._table
        cacheable = self.policy.time_independent
        if len(queue) < (2 if cacheable else _VECTOR_MIN_QUEUE):
            return self.policy.order(queue.values(), now, k=k)
        k = len(queue) if k is None else min(k, len(queue))
        if cacheable and self._order_rev == self._queue_rev:
            cached = self._order_cache
            if cached is not None and len(cached) >= k:
                self._c_order_cache_hits.value += 1
                return cached
        if self._order_vectorized:
            self._c_order_vectorized.value += 1
        else:
            self._c_order_fallback.value += 1
        ordered = self.policy.order(
            queue.values(), now, table=table, rows=table.queued_rows(), k=k
        )
        if cacheable:
            self._order_cache = ordered
            self._order_rev = self._queue_rev
        return ordered

    def _schedule_pass(self, now: float) -> None:
        """One full scheduling invocation (§3 pipeline)."""
        queue = self._queue
        if not queue:
            return
        if self.cluster.nodes_free == 0:
            # Nothing can start; skip the (possibly expensive) selection.
            self._stats.skipped_passes += 1
            self._c_passes_skipped.value += 1
            return
        self._c_passes.value += 1
        tracer = self._tracer
        traced = tracer.enabled  # skip span construction on untraced runs
        with (
            tracer.span("schedule_pass", t=now, queue=len(queue))
            if traced
            else NULL_SPAN
        ) as pass_span:
            with (
                tracer.span("window_extract") if traced else NULL_SPAN
            ) as win_span:
                # One ordering + dependency-gating pass serves both window
                # extraction and the backfill stage below.
                passthrough = self._eligible_passthrough
                if passthrough and self.backfill_scope == "window":
                    # Every queued job is eligible and the pass reads only
                    # the front: the window, then the backfill scope over
                    # what the window's starts leave — so order only that.
                    eligible = self._ordered_queue(
                        now, 2 * self.window.scope_size(len(queue))
                    )
                else:
                    ordered = self._ordered_queue(now)
                    eligible = (
                        ordered
                        if passthrough
                        else self.window.eligible(ordered, self._completed)
                    )
                window = self.window.extract_eligible(
                    eligible, len(queue) if passthrough else len(eligible)
                )
                win_span.set(window=len(window), forced=len(window.forced))
            started: Set[int] = set()
            selected_window_idx: Set[int] = set()
            blocked_forced: Optional[Job] = None

            # 1. Starvation-forced jobs run first, in window order; the first
            #    one that does not fit becomes the protected backfill head.
            for i in window.forced:
                job = window.jobs[i]
                if self.cluster.can_fit(job):
                    self._start(job, now)
                    started.add(job.jid)
                    selected_window_idx.add(i)
                    self._stats.forced_jobs += 1
                    self._c_forced.value += 1
                else:
                    blocked_forced = job
                    break

            # 2. Window selection via the configured method.
            if blocked_forced is None:
                reduced = [j for i, j in enumerate(window.jobs) if i not in selected_window_idx]
                # One capacity snapshot both gates the pass and feeds the
                # selector (nothing allocates in between, so it is exactly
                # the per-job can_fit() this replaces).
                avail = self.cluster.available()
                if reduced:
                    table = self._table
                    wrows = table.rows_for(reduced)
                    feasible = avail.fits_cols(
                        table.nodes[wrows], table.bb[wrows], table.ssd[wrows]
                    ).any()
                else:
                    feasible = False
                if feasible:
                    with (
                        tracer.span(
                            "select", method=self.selector.name, window=len(reduced)
                        )
                        if traced
                        else NULL_SPAN
                    ) as sel_span:
                        t0 = _time.perf_counter()
                        picks = self.selector.select(reduced, avail)
                        self._h_selector.observe(_time.perf_counter() - t0)
                        sel_span.set(picked=len(picks))
                    type(self.selector).verify_feasible(reduced, avail, picks)
                    index_map = [
                        i for i in range(len(window.jobs)) if i not in selected_window_idx
                    ]
                    for p in sorted(picks):
                        job = reduced[p]
                        self._start(job, now)
                        started.add(job.jid)
                        selected_window_idx.add(index_map[p])
                        self._stats.selected_jobs += 1
                        self._c_selected.value += 1
                self._stats.invocations += 1

            self.window.record_outcome(window, selected_window_idx)

            # 3. EASY backfilling over the remaining eligible jobs.  In the
            #    default "window" scope only the jobs the scheduler examined
            #    this pass may skip ahead; "queue" scope considers everything.
            backfilled = 0
            if self.backfill is not None and queue:
                # Jobs started above left the queue; because the policy
                # orders by a per-job sort key, filtering them out of the
                # pass's eligible list equals re-ordering the shrunk queue.
                still_eligible = [j for j in eligible if j.jid in queue]
                if self.backfill_scope == "window":
                    left = len(queue) if passthrough else len(still_eligible)
                    scope = self.window.scope_size(left)
                    if len(still_eligible) < min(scope, left):
                        # Only a front was ordered and the starts ate into
                        # it (a scope_size that grows as the queue
                        # shrinks): order the shrunk queue's front afresh.
                        still_eligible = self._ordered_queue(now, scope)
                    remaining = still_eligible[:scope]
                else:
                    remaining = still_eligible
                if blocked_forced is not None and blocked_forced in remaining:
                    remaining.remove(blocked_forced)
                    remaining.insert(0, blocked_forced)
                if remaining:
                    with (
                        tracer.span("backfill_pass", candidates=len(remaining))
                        if traced
                        else NULL_SPAN
                    ) as bf_span:
                        plan = self.backfill.plan(
                            remaining,
                            self.cluster.bb_free,
                            self.cluster.ssd_pool.free_per_tier(),
                            self._planned_releases(),
                            now,
                        )
                        for job in plan.to_start:
                            self._start(job, now)
                            self._stats.backfilled_jobs += 1
                            backfilled += 1
                        bf_span.set(backfilled=backfilled)
            self._c_backfilled.value += backfilled
            pass_span.set(started=len(started) + backfilled)
            self._observe(now)
