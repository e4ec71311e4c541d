"""Shared simulation runner: one (workload, method) → metrics.

Every figure/table experiment funnels through :func:`run_one`, which wires
the trace's machine spec into a fresh cluster, selects the site base policy
(FCFS for Cori, WFP for Theta — §4.3), runs the engine, and evaluates the
§4.2 metrics over the trimmed measurement interval.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, Optional

from ..backfill import EasyBackfill
from ..checkpoint import CheckpointConfig, Checkpointer, load_checkpoint
from ..errors import CheckpointError
from ..methods import make_selector
from ..policies import FCFS, WFP, PriorityPolicy
from ..resilience import FaultInjector, FaultScenario, RetryPolicy, SolverWatchdog
from ..rng import SeedLike, stable_hash
from ..simulator.engine import SchedulingEngine
from ..simulator.metrics import (
    MetricsSummary,
    ResilienceSummary,
    compute_resilience_summary,
    compute_summary,
    trimmed_interval,
    wait_by_bb_request,
    wait_by_job_size,
    wait_by_runtime,
)
from ..telemetry import TelemetrySnapshot, Tracer, get_tracer, snapshot_from, use_tracer
from ..windows import WindowPolicy
from ..workloads import Trace
from .config import BASE_SEED, Scale, get_scale
from .spec import RunSpec


@dataclass
class RunResult:
    """Metrics of one simulation run, ready for table/figure assembly."""

    workload: str
    method: str
    summary: MetricsSummary
    wait_by_size: Dict[str, float]
    wait_by_bb: Dict[str, float]
    wait_by_runtime: Dict[str, float]
    makespan: float
    selector_calls: int
    mean_selector_time: float
    #: summary of the per-pass method-vs-exact optimality gap (count /
    #: mean / max / p95 / skipped); None unless ``yardstick=True``.
    optimality_gap: Optional[Dict[str, float]] = None
    #: fault-run metrics; None when neither faults nor a watchdog were active
    resilience: Optional[ResilienceSummary] = None
    #: per-run telemetry (span summary + metrics registry); populated when
    #: ``collect_telemetry=True`` or a tracer is active, else None.  Small
    #: and picklable, so it survives the trip back from pool workers.
    telemetry: Optional[TelemetrySnapshot] = None

    def metric(self, name: str) -> float:
        """Look up a metric by its §4.2 name (or a resilience metric)."""
        table = self.summary.as_dict()
        if self.resilience is not None:
            table.update(self.resilience.as_dict())
        return table[name]


def policy_for(trace: Trace) -> PriorityPolicy:
    """The site base policy named by the trace's machine spec."""
    return WFP() if trace.machine.base_policy == "wfp" else FCFS()


def run_one(
    trace: Trace,
    method: str,
    scale: Optional[Scale] = None,
    *,
    seed: SeedLike = None,
    window: Optional[int] = None,
    generations: Optional[int] = None,
    faults: Optional[FaultScenario] = None,
    retry: Optional[RetryPolicy] = None,
    watchdog_budget: Optional[float] = None,
    solver: Optional[str] = None,
    yardstick: bool = False,
    collect_telemetry: bool = False,
    checkpoint: Optional[CheckpointConfig] = None,
    resume_from: Optional[str] = None,
) -> RunResult:
    """Simulate ``trace`` under ``method`` and evaluate all metrics.

    ``window`` and ``generations`` override the scale's values (used by
    the Table 3 window sweep and the overhead study).  ``faults`` and
    ``watchdog_budget`` override the scale's resilience knobs, so any
    figure experiment reruns under a fault scenario by replacing its
    scale (see ``Scale.faults``) or any single run by passing them here.

    ``solver`` names a window solver from :mod:`repro.solvers.registry`
    (``"ga"``, ``"scalar"``, ``"milp"``, ``"exhaustive"``) for the
    solver-backed methods; ``yardstick=True`` re-solves every selection
    pass exactly and attaches the GA-vs-exact optimality-gap summary to
    the result (see ``docs/solvers.md``).  Both are baked into
    checkpoints, like the other selector knobs.

    ``collect_telemetry=True`` installs a private tracer for the run and
    attaches a :class:`~repro.telemetry.TelemetrySnapshot` to the result
    (this also works inside :func:`repro.parallel.parallel_map` workers —
    the snapshot pickles home).  When a tracer is already active in the
    process (e.g. the CLI's ``--trace``), the run records into it and the
    snapshot covers just this run's spans.

    ``checkpoint`` snapshots the run per its
    :class:`~repro.checkpoint.CheckpointConfig`; ``resume_from`` restores
    a snapshotted engine and continues it instead of starting fresh (the
    selector/fault/seed knobs above are baked into the snapshot, so their
    arguments are ignored on resume — only the trace and method are
    cross-checked against the checkpoint's manifest).  The manifest's
    ``spec_sha256`` is the run's :class:`~repro.experiments.spec.RunSpec`
    digest, carried over on resume.  See ``docs/checkpointing.md``.
    """
    sc = scale or get_scale()
    spec_sha256 = None
    if resume_from is not None:
        engine, header = load_checkpoint(resume_from)
        meta = header["manifest"].get("meta", {})
        for key, expected in (("workload", trace.name), ("method", method)):
            recorded = meta.get(key)
            if recorded is not None and recorded != expected:
                raise CheckpointError(
                    f"{resume_from}: checkpoint is for {key}={recorded!r}, "
                    f"cannot resume it as {key}={expected!r}"
                )
        run_engine = lambda: engine.continue_run(checkpointer=checkpointer)  # noqa: E731
        spec_sha256 = meta.get("spec_sha256")
    else:
        scenario = faults if faults is not None else sc.faults
        budget = watchdog_budget if watchdog_budget is not None else sc.watchdog_budget
        ga_seed = seed if seed is not None else BASE_SEED ^ stable_hash(method) & 0xFFFF
        selector = make_selector(
            method,
            generations=generations if generations is not None else sc.generations,
            population=sc.population,
            mutation=sc.mutation,
            seed=ga_seed,
            solver=solver,
            yardstick=yardstick,
        )
        if checkpoint is not None and isinstance(ga_seed, int):
            spec_sha256 = RunSpec.create(
                trace.name, method, sc, seed=ga_seed, solver=solver, window=window,
                generations=generations, faults=scenario, watchdog_budget=budget,
                telemetry=collect_telemetry,
                max_attempts=retry.max_attempts if retry is not None else None,
            ).digest()
        if budget is not None:
            selector = SolverWatchdog(selector, budget)
        injector = (
            FaultInjector(scenario) if scenario is not None and scenario.enabled else None
        )
        engine = SchedulingEngine(
            trace.machine.make_cluster(),
            policy_for(trace),
            selector,
            WindowPolicy(
                size=window if window is not None else sc.window,
                starvation_bound=sc.starvation_bound,
            ),
            backfill=EasyBackfill(),
            faults=injector,
            retry=retry,
        )
        run_engine = lambda: engine.run(trace.fresh_jobs(), checkpointer=checkpointer)  # noqa: E731
    checkpointer = None
    if checkpoint is not None:
        checkpointer = Checkpointer(checkpoint, meta={
            "workload": trace.name, "method": method, "scale": sc.name,
            "seed": seed if isinstance(seed, int) else None,
            "spec_sha256": spec_sha256,
        })
    signal_scope = checkpointer.signals() if checkpointer is not None else nullcontext()
    active = get_tracer()
    with signal_scope:
        if collect_telemetry and not active.enabled:
            # Private tracer: isolates this run's spans (and works in workers,
            # where the process-wide slot is at its NULL default).
            with use_tracer(Tracer()) as tracer:
                mark = tracer.mark()
                result = run_engine()
        else:
            tracer = active
            mark = tracer.mark() if tracer.enabled else 0
            result = run_engine()
    telemetry = None
    if collect_telemetry or tracer.enabled:
        telemetry = snapshot_from(
            tracer if tracer.enabled else None, engine.metrics, since=mark
        )
    interval = trimmed_interval(
        0.0, result.makespan, warmup_fraction=sc.warmup, cooldown_fraction=sc.cooldown
    )
    summary = compute_summary(
        result.jobs,
        result.recorder,
        interval,
        total_nodes=result.total_nodes,
        bb_capacity=result.bb_capacity,
        ssd_capacity=result.ssd_capacity,
    )
    resilience = None
    # Derived from the engine (not the arguments) so resumed runs report
    # resilience iff the snapshotted run was fault-injected or watchdogged.
    if engine.faults is not None or isinstance(engine.selector, SolverWatchdog):
        resilience = compute_resilience_summary(
            result.jobs,
            result.recorder,
            result.stats,
            interval,
            total_nodes=result.total_nodes,
        )
    # The engine folded any yardstick measurements into its telemetry
    # registry at end of run; summarise them for the result.
    gap_hist = engine.metrics.histograms.get("ga.optimality_gap")
    optimality_gap = None
    if gap_hist is not None and gap_hist.count:
        skipped = engine.metrics.counters.get("ga.yardstick.skipped")
        optimality_gap = {
            "count": float(gap_hist.count),
            "mean": gap_hist.mean,
            "max": gap_hist.max,
            "p95": gap_hist.percentile(95),
            "skipped": float(skipped.value) if skipped is not None else 0.0,
        }
    return RunResult(
        workload=trace.name,
        method=method,
        summary=summary,
        wait_by_size=wait_by_job_size(result.jobs, interval),
        wait_by_bb=wait_by_bb_request(result.jobs, interval),
        wait_by_runtime=wait_by_runtime(result.jobs, interval),
        makespan=result.makespan,
        selector_calls=result.stats.selector_calls,
        mean_selector_time=result.stats.mean_selector_time,
        optimality_gap=optimality_gap,
        resilience=resilience,
        telemetry=telemetry,
    )
