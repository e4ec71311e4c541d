"""Engine hot-path speedup: the array-backed engine vs the reference engine.

The engine (:class:`repro.simulator.engine.SchedulingEngine`) vectorizes
queue ordering through the :class:`~repro.simulator.jobtable.JobTable`,
caches the FCFS ordering across passes, maintains planned releases
incrementally, and batch-pops simultaneous events.
``tests/test_differential.py`` proves all of it is byte-identical to the
reference engine kept as a test oracle (``tests/oracles.py``), so the
only question left is wall-clock.

The design target is **>=1.5x** end-to-end on an *engine-dominated*
configuration: the Baseline (FCFS + EASY) scheduler on Cori-S1, where no
GA runs and queue ordering / backfill planning are the whole cost.  The
fast path's wins grow with backlog depth, so the measured configuration
is pinned to the paper-scale trace shape (4000 jobs on a half-size Cori)
whenever the session scale is not smoke; at smoke scale the backlog is
too shallow to amortize anything, so only fast-path *engagement* is
asserted and the (near-1x) timing is recorded for the trail.

Also recorded: the fast engine's incremental gain on BBSched *on top of*
the GA evaluation cache (both sides run the cached GA loop), at the
session scale.  That number is expected to be modest — the GA dominates
those runs — and is not asserted.

Writes ``results/BENCH_core.json``.
"""

from __future__ import annotations

import json
import pathlib
import time
from contextlib import nullcontext

from repro.experiments import get_scale, get_workload, run_one
from tests.oracles import reference_paths

from conftest import RESULTS_DIR, run_once

#: The end-to-end speedup the fast path was designed to deliver on the
#: engine-dominated configuration (measured ~2x at the paper trace shape).
DESIGN_TARGET = 1.5

#: What the test asserts at default scale and up: deliberately looser than
#: the design target so a noisy shared box doesn't flake (end-to-end
#: pairing swings ~10-20%).
ASSERT_FLOOR = 1.3


def _engine_scale(scale):
    """The engine-dominated measurement scale.

    Queue-ordering and backfill costs scale with backlog depth, which the
    trace shape controls (``n_jobs``, ``cori_factor``).  Smoke stays smoke
    — CI only checks engagement there — while any real scale measures the
    paper trace shape, the regime the fast path was built for.
    """
    return scale if scale.name == "smoke" else get_scale("paper")


def _simulate(workload, method, scale, fast):
    """One run on the engine, or on the reference engine."""
    trace = get_workload(workload, scale)
    with nullcontext() if fast else reference_paths(ga=False):
        return run_one(trace, method, scale, seed=0)


def _run(scale, fast):
    return _simulate("Cori-S1", "Baseline", scale, fast)


def _run_bbsched(scale, fast):
    return _simulate("Theta-S4", "BBSched", scale, fast)


def test_bench_simulate_fast_engine(benchmark, scale):
    result = run_once(benchmark, _run, _engine_scale(scale), True)
    assert result.makespan > 0


def test_bench_simulate_reference_engine(benchmark, scale):
    result = run_once(benchmark, _run, _engine_scale(scale), False)
    assert result.makespan > 0


def test_fast_engine_speedup(scale, save_result):
    """The fast path must beat the reference engine end-to-end.

    Median of alternated paired runs (both paths warmed first), so a load
    spike hits the two sides evenly instead of biasing one.  The 1.5x
    design target is recorded in the JSON; the assert uses the lenient
    floor above, and only at non-smoke scale.  Fast-path engagement
    (vectorized orderings, FCFS order-cache hits) comes from the run's
    own ``engine.order.*`` counters, collected outside the timing loop.
    """
    core = _engine_scale(scale)
    repeats = 5
    fast_times, ref_times = [], []
    _run(core, True)  # warm both paths (trace construction is cached too)
    _run(core, False)
    for _ in range(repeats):
        t0 = time.perf_counter()
        _run(core, True)
        fast_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        _run(core, False)
        ref_times.append(time.perf_counter() - t0)

    # Engagement counters from the engine's metrics registry.
    trace = get_workload("Cori-S1", core)
    metered = run_one(trace, "Baseline", core, seed=0, collect_telemetry=True)
    counters = metered.telemetry.metrics.counters
    order = {
        key: counters[f"engine.order.{key}"].value
        for key in ("vectorized", "cache_hits", "fallback")
        if f"engine.order.{key}" in counters
    }

    # Incremental gain on a GA-dominated run, on top of the eval cache.
    bb_repeats = 3
    bb_fast, bb_ref = [], []
    _run_bbsched(scale, True)
    _run_bbsched(scale, False)
    for _ in range(bb_repeats):
        t0 = time.perf_counter()
        _run_bbsched(scale, True)
        bb_fast.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        _run_bbsched(scale, False)
        bb_ref.append(time.perf_counter() - t0)

    fast = sorted(fast_times)[repeats // 2]
    ref = sorted(ref_times)[repeats // 2]
    speedup = ref / fast
    bbs_fast = sorted(bb_fast)[bb_repeats // 2]
    bbs_ref = sorted(bb_ref)[bb_repeats // 2]
    bbs_speedup = bbs_ref / bbs_fast
    doc = {
        "scale": scale.name,
        "engine_scale": core.name,
        "workload": "Cori-S1",
        "method": "Baseline",
        "repeats": repeats,
        "fast_s": round(fast, 6),
        "reference_s": round(ref, 6),
        "speedup": round(speedup, 4),
        "design_target_speedup": DESIGN_TARGET,
        "asserted_floor_speedup": ASSERT_FLOOR,
        "order_counters": order,
        "bbsched": {
            "scale": scale.name,
            "workload": "Theta-S4",
            "repeats": bb_repeats,
            "fast_s": round(bbs_fast, 6),
            "reference_s": round(bbs_ref, 6),
            "speedup": round(bbs_speedup, 4),
        },
    }
    pathlib.Path(RESULTS_DIR).mkdir(exist_ok=True)
    (pathlib.Path(RESULTS_DIR) / "BENCH_core.json").write_text(
        json.dumps(doc, indent=2) + "\n")
    save_result(
        "fast_engine_speedup",
        "Array-backed engine fast path (median of %d paired runs, %s shape)\n"
        "fast engine : %.4fs\n"
        "reference   : %.4fs\n"
        "speedup     : %.2fx (design target >= %.1fx, asserted >= %.1fx)\n"
        "ordering    : %d vectorized / %d cache hits / %d fallback\n"
        "BBSched incremental (on top of eval cache, %s scale): %.2fx"
        % (repeats, core.name, fast, ref, speedup, DESIGN_TARGET,
           ASSERT_FLOOR, order.get("vectorized", 0),
           order.get("cache_hits", 0), order.get("fallback", 0),
           scale.name, bbs_speedup),
    )
    # The fast path must really engage — a silent reference fallback would
    # "pass" at 1.0x.  Baseline/Cori is FCFS: vectorized ordering computes
    # fresh orders, the membership-revision cache serves repeat passes, and
    # the per-job fallback must never trigger.
    assert order.get("vectorized", 0) > 0
    assert order.get("cache_hits", 0) > 0
    assert order.get("fallback", 0) == 0
    if scale.name != "smoke":
        assert speedup >= ASSERT_FLOOR
