"""Batch workloads: theta-bbsched and grid-greedy.

theta-bbsched times one in-process ``run_one`` of BBSched on the
default-scale Theta-S4 trace, where the GA dominates.  grid-greedy times
one ``run_grid`` of the greedy methods on four paper-scale traces over a
two-worker pool with a results ledger, where the engine, the ordering
policies, backfill and the pool dominate and no GA runs.

Layer times in traced operations come from the spans the engine already
emits (``event_loop``, ``schedule_pass``, ``window_extract``, ``select``,
``ga_solve``, ``decision_rule``, ``backfill_pass``) plus a :class:`Probe`
that times calls into public functions the spans do not cover.  Probes
are installed only around traced operations.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from collections import defaultdict
from contextlib import nullcontext
from typing import Dict, List

from common import (WORK, CleanupGuard, Outcome, Probe, TreeMemory, median, run_for,
                    time_fresh_setup)
from gauge import SpeedGauge, host_speed

PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")

#: Runs with ``run_one``'s own GA seed, so one pinned digest covers
#: every run.
THETA = ("Theta-S4", "BBSched", "default")

#: The paper's order, fixed.  Rotating it moved the grid's wall time by
#: 15% through the pool's packing alone, and longest-first was slower.
GRID_WORKLOADS = ("Cori-S1", "Cori-S4", "Theta-S1", "Theta-S4")
GRID_METHODS = ("Baseline", "Bin_Packing")
GRID_SCALE = "paper"
GRID_WORKERS = 2

SETUP_REPEATS = 5
SETUP_CODE = {
    "theta-bbsched": (
        "from repro.experiments.config import get_scale\n"
        "from repro.experiments.runner import run_one\n"
        "from repro.experiments.workloads import get_workload\n"
        f"get_workload({THETA[0]!r}, get_scale({THETA[2]!r}))\n"),
    "grid-greedy": "from repro.experiments.grid import run_grid\n",
}


def load_pins() -> Dict[str, Dict[str, str]]:
    with open(PINS) as fh:
        return json.load(fh)


def wrap_engine_layers(probe: Probe) -> None:
    """Probe the layers inside a simulation that engine spans do not split."""
    from repro.backfill import EasyBackfill
    from repro.experiments import runner
    from repro.policies import PriorityPolicy

    probe.wrap(PriorityPolicy, "order", "policies.order")
    probe.wrap(EasyBackfill, "plan", "backfill.plan")
    for name in ("trimmed_interval", "compute_summary", "wait_by_job_size",
                 "wait_by_bb_request", "wait_by_runtime"):
        probe.wrap(runner, name, "experiments.summary")


def layer_times(spans: Dict[str, Dict[str, float]], probed: Dict[str, float],
                counters: Dict[str, float], method_is_core: bool) -> Dict[str, float]:
    """Per-layer self times from span totals, probe totals and counters."""
    def tot(name: str) -> float:
        return spans.get(name, {}).get("total", 0.0)

    order = probed.get("policies.order", 0.0)
    plan = probed.get("backfill.plan", 0.0)
    ga, decision, select = tot("ga_solve"), tot("decision_rule"), tot("select")
    select_self = select - ga - decision
    passes = counters.get("engine.passes", 0)
    skipped = counters.get("engine.passes_skipped", 0)
    hits = counters.get("ga.eval_cache.hits", 0)
    misses = counters.get("ga.eval_cache.misses", 0)
    plans = spans.get("backfill_pass", {}).get("count", 0)
    return {
        "solvers.ga_solve_s": ga,
        "solvers.ga_solve.count": spans.get("ga_solve", {}).get("count", 0),
        "core.evalcache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "core.select_s": select_self if method_is_core else 0.0,
        "core.decision_s": decision,
        "methods.select_s": 0.0 if method_is_core else select_self,
        "simulator.event_loop.self_s": tot("event_loop") - tot("schedule_pass"),
        "simulator.schedule_pass.self_s": (tot("schedule_pass") - tot("window_extract")
                                           - select - plan),
        "simulator.schedule_pass.count": passes,
        "simulator.passes_skipped_ratio": skipped / (passes + skipped) if passes else 0.0,
        "windows.extract_s": tot("window_extract") - order,
        "policies.order_s": order,
        "backfill.plan_s": plan,
        "backfill.started_per_plan": (counters.get("engine.jobs_backfilled", 0) / plans
                                      if plans else 0.0),
        "experiments.summary_s": probed.get("experiments.summary", 0.0),
        "workloads.trace_build_s": probed.get("workloads.trace_build", 0.0),
    }


#: Layers that partition a simulation's time (used for the coverage check).
SIM_LAYERS = ("solvers.ga_solve_s", "core.select_s", "core.decision_s",
              "methods.select_s", "simulator.event_loop.self_s",
              "simulator.schedule_pass.self_s", "windows.extract_s",
              "policies.order_s", "backfill.plan_s", "experiments.summary_s")


def _counters(result) -> Dict[str, float]:
    return {name: c.value for name, c in result.telemetry.metrics.counters.items()}


def _mean_rows(rows: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-operation layer values averaged over the traced operations."""
    return {k: sum(r[k] for r in rows) / len(rows) for k in rows[0]}


# --- theta-bbsched ------------------------------------------------------------------
def theta_bbsched(seed: int, seconds: float, trace_mode: bool) -> Outcome:
    out = Outcome()
    setups = time_fresh_setup(SETUP_CODE["theta-bbsched"], SETUP_REPEATS)
    from repro.checkpoint.verify import fingerprint_digest
    from repro.experiments.config import get_scale
    from repro.experiments.runner import run_one
    from repro.experiments.workloads import get_workload
    from repro.telemetry import Tracer, use_tracer

    workload, method, scale_name = THETA
    scale = get_scale(scale_name)
    t0 = time.perf_counter()
    trace = get_workload(workload, scale)
    trace_build = time.perf_counter() - t0
    pinned = load_pins()["theta-bbsched"][f"{workload}/{method}"]
    guard = CleanupGuard()
    untraced: List[float] = []
    traced: List[float] = []
    rows: List[Dict[str, float]] = []
    raw: List[float] = []
    speeds: List[float] = []

    def op(i: int) -> float:
        with_trace = trace_mode and i % 2 == 1
        probe, tracer = Probe(), Tracer()
        if with_trace:
            wrap_engine_layers(probe)
        try:
            with use_tracer(tracer) if with_trace else nullcontext():
                with SpeedGauge() as gauge:
                    result = run_one(trace, method, scale)
        finally:
            probe.remove()
        speeds.append(gauge.speed)
        out.attempted += 1
        digest = fingerprint_digest(result)
        if digest != pinned:
            out.fail(f"{workload}/{method}: digest {digest[:12]} "
                     f"differs from the pinned {pinned[:12]}")
        if not with_trace:
            untraced.append(gauge.scaled_s)
            raw.append(gauge.wall_s)
            return gauge.wall_s
        traced.append(gauge.scaled_s)
        row = layer_times(tracer.summarize(), probe.take(), _counters(result), True)
        # Spans also hold the gauge's own time, so compare them with the
        # wall time that includes it.
        row["telemetry.coverage_frac"] = (sum(row[k] for k in SIM_LAYERS)
                                          / (gauge.wall_s + gauge.spent))
        rows.append(row)
        return gauge.wall_s

    with TreeMemory() as memory:
        run_for(seconds, op, min_ops=2 if trace_mode else 1)
    out.problems += guard.check((), ())
    out.metrics.update({
        "setup_s": median(setups),
        "run_wall_s": median(untraced),
        "latency_p50_s": median(untraced),
        "latency_tail_s": median(untraced),
        "throughput_rps": len(untraced) / sum(untraced),
        "peak_rss_mb": memory.peak_mb,
    })
    if trace_mode:
        out.metrics.update(_mean_rows(rows))
        out.metrics["workloads.trace_build_s"] = trace_build
        out.metrics["telemetry.overhead_frac"] = median(traced) / median(untraced) - 1.0
    out.notes = {"simulations": len(untraced),
                 "traced_simulations": len(traced), "setup_samples": len(setups),
                 "latency_tail_percentile": 50, "run_wall_unscaled_s": median(raw),
                 "host_speed": median(speeds)}
    return out


# --- grid-greedy --------------------------------------------------------------------
def _probe_cells(probe: Probe) -> None:
    """Time each grid cell inside its pool worker and ship the numbers home.

    Pool workers are forked from this process, so wrappers installed here
    run in them.  The trace build (``get_workload``) opens a cell; the
    cell's ``run_one`` closes it and attaches the worker's probe totals to
    the result, which pickles back to the parent.  ``perf_counter`` is
    the system-wide monotonic clock on Linux, so worker and parent times
    compare.
    """
    from repro.experiments import grid

    probe.wrap(grid, "get_workload", "workloads.trace_build", stamp=True)

    def make(run_one):
        def closing(*args, **kwargs):
            result = run_one(*args, **kwargs)
            start = probe.entered["workloads.trace_build"][0]
            result.perfbench = {"pid": os.getpid(), "start": start,
                                "end": time.perf_counter(), "probed": probe.take()}
            return result
        return closing

    probe.patch(grid, "run_one", make)


def _gauge_cells(probe: Probe) -> None:
    """Run every cell's simulation under a :class:`SpeedGauge` in its pool
    worker and ship the kernel samples home on the result."""
    from repro.experiments import grid

    def make(run_one):
        def gauged(*args, **kwargs):
            with SpeedGauge() as gauge:
                result = run_one(*args, **kwargs)
            result.perfbench_speed = gauge.samples
            return result
        return gauged

    probe.patch(grid, "run_one", make)


def grid_greedy(seed: int, seconds: float, trace_mode: bool) -> Outcome:
    out = Outcome()
    setups = time_fresh_setup(SETUP_CODE["grid-greedy"], SETUP_REPEATS)
    from repro.checkpoint import ResultsLedger
    from repro.checkpoint.verify import fingerprint_digest
    from repro.experiments.config import get_scale
    from repro.experiments.grid import run_grid
    from repro.telemetry import merge_snapshots

    # The grid's inputs are the repo's own paper-scale traces, fixed by
    # name; the seed has nothing to choose here.
    scale = get_scale(GRID_SCALE)
    pins = load_pins()["grid-greedy"]
    guard = CleanupGuard()
    workdir = os.path.join(WORK, f"grid-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    ledger = os.path.join(workdir, "ledger.jsonl")
    untraced: List[float] = []
    traced: List[float] = []
    latencies: List[float] = []
    rows: List[Dict[str, float]] = []
    raw: List[float] = []
    speeds: List[float] = []
    gauges = Probe()
    _gauge_cells(gauges)
    # Every cell is appended to the ledger in the parent the moment it
    # completes, so the append's entry time is the cell's completion time.
    appends = Probe()
    appends.wrap(ResultsLedger, "append_result", "checkpoint.ledger_append", stamp=True)

    def op(i: int) -> float:
        with_trace = trace_mode and i % 2 == 1
        cells = Probe()
        if with_trace:
            wrap_engine_layers(cells)
            _probe_cells(cells)
        try:
            start = time.perf_counter()
            results = run_grid(scale, workloads=GRID_WORKLOADS, methods=GRID_METHODS,
                               workers=GRID_WORKERS, ledger=ledger, telemetry=with_trace)
            end = time.perf_counter()
        finally:
            cells.remove()
        wall = end - start
        speed = host_speed([s for r in results.values() for s in r.perfbench_speed])
        speeds.append(speed)
        completed = appends.entered["checkpoint.ledger_append"]
        append_s = appends.take().get("checkpoint.ledger_append", 0.0)
        out.attempted += len(GRID_WORKLOADS) * len(GRID_METHODS)
        for key in [(w, m) for w in GRID_WORKLOADS for m in GRID_METHODS]:
            digest = fingerprint_digest(results[key]) if key in results else "missing"
            if digest != pins["/".join(key)]:
                out.fail(f"{'/'.join(key)}: digest {digest[:12]} differs from the pinned")
        if not with_trace:
            untraced.append(wall * speed)
            raw.append(wall)
            latencies.extend((t - start) * speed for t in completed)
            return wall
        traced.append(wall * speed)
        snap = merge_snapshots(r.telemetry for r in results.values())
        probed: Dict[str, float] = defaultdict(float)
        cell_s: List[float] = []
        last_end: Dict[int, float] = defaultdict(float)
        for r in results.values():
            info = r.perfbench
            for name, value in info["probed"].items():
                probed[name] += value
            cell_s.append(info["end"] - info["start"])
            last_end[info["pid"]] = max(last_end[info["pid"]], info["end"])
        counters = {n: c.value for n, c in snap.metrics.counters.items()}
        row = layer_times(snap.spans, probed, counters, False)
        busy = sum(cell_s)
        named = sum(row[k] for k in SIM_LAYERS) + row["workloads.trace_build_s"]
        row.update({
            "parallel.busy_frac": busy / (GRID_WORKERS * wall),
            "parallel.cell_p50_s": median(cell_s),
            "parallel.cell_max_s": max(cell_s),
            "parallel.idle_tail_s": end - min(last_end.values()),
            "parallel.retries": len(ResultsLedger(ledger).load().failures),
            "checkpoint.ledger_append_s": append_s,
            # Worker time outside cells is pool idle time; what stays
            # unattributed is cell time outside every named layer.
            "telemetry.coverage_frac": 1.0 - (busy - named) / (GRID_WORKERS * wall),
        })
        rows.append(row)
        return wall

    try:
        with TreeMemory() as memory:
            run_for(seconds, op, min_ops=2 if trace_mode else 1)
    finally:
        gauges.remove()
        appends.remove()
        shutil.rmtree(workdir, ignore_errors=True)
    out.problems += guard.check((), (workdir,))
    out.metrics.update({
        "setup_s": median(setups),
        "run_wall_s": median(untraced),
        "latency_p50_s": median(latencies),
        "latency_tail_s": median(latencies),
        "throughput_rps": len(latencies) / sum(untraced),
        "peak_rss_mb": memory.peak_mb,
    })
    if trace_mode:
        out.metrics.update(_mean_rows(rows))
        out.metrics["telemetry.overhead_frac"] = median(traced) / median(untraced) - 1.0
    out.notes = {"grids": len(untraced),
                 "traced_grids": len(traced), "cells": len(latencies),
                 "setup_samples": len(setups),
                 "latency_tail_percentile": 50, "run_wall_unscaled_s": median(raw),
                 "host_speed": median(speeds)}
    return out
