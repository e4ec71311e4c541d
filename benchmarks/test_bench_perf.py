"""Solver hot-path speedup: the cached GA loop vs the reference loop.

The GA's bit-packed loop with its evaluation cache
(:mod:`repro.core.evalcache`) is a pure perf feature —
``tests/test_differential.py`` proves its output is byte-identical to
the numpy reference loop kept as a test oracle (``tests/oracles.py``) —
so the only question left is how much wall-clock it buys.  The design target is **>=1.5x** on a
GA-dominated simulate at the default scale (Theta-S4 under BBSched,
where the MOGA solver dominates the run).  This bench times both sides
with alternated paired runs, harvests the cache's own hit/miss counters
from run telemetry, and writes ``results/BENCH_perf.json``.
"""

from __future__ import annotations

import json
import pathlib
import time
from contextlib import nullcontext

from repro.experiments import get_workload, run_one
from tests.oracles import reference_paths

from conftest import RESULTS_DIR, run_once

#: The speedup the cache was designed to deliver at the default scale.
DESIGN_TARGET = 1.5

#: What the test asserts at default scale and up: deliberately looser
#: than the design target so a noisy shared box doesn't flake
#: (end-to-end pairing swings ~10-20%).  At smoke scale the GA is too
#: small to amortize the cache bookkeeping, so only cache engagement is
#: asserted and the (near-1x) timing is recorded for the trail.
ASSERT_FLOOR = 1.2


def _run(scale, cached):
    """One run on the cached GA loop, or on the reference loop."""
    trace = get_workload("Theta-S4", scale)
    with nullcontext() if cached else reference_paths(engine=False):
        return run_one(trace, "BBSched", scale, seed=0)


def test_bench_simulate_cache_on(benchmark, scale):
    result = run_once(benchmark, _run, scale, True)
    assert result.makespan > 0


def test_bench_simulate_cache_off(benchmark, scale):
    result = run_once(benchmark, _run, scale, False)
    assert result.makespan > 0


def test_eval_cache_speedup(scale, save_result):
    """The cached loop must beat the reference loop end-to-end.

    Median of alternated paired runs (both paths warmed first), so a
    load spike hits the two sides evenly instead of biasing one.  The
    1.5x design target is recorded in the JSON; the assert uses the
    lenient floor above.  Cache effectiveness (hits vs misses) comes
    from the run's own ``ga.eval_cache.*`` counters, collected outside
    the timing loop.
    """
    repeats = 5
    with_cache, without_cache = [], []
    _run(scale, True)  # warm both paths
    _run(scale, False)
    for _ in range(repeats):
        t0 = time.perf_counter()
        _run(scale, True)
        with_cache.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        _run(scale, False)
        without_cache.append(time.perf_counter() - t0)

    # Hit/miss/eviction totals from the engine's metrics registry.
    trace = get_workload("Theta-S4", scale)
    metered = run_one(trace, "BBSched", scale, seed=0, collect_telemetry=True)
    counters = metered.telemetry.metrics.counters
    cache = {
        key: counters[f"ga.eval_cache.{key}"].value
        for key in ("hits", "misses", "deduped", "evictions")
        if f"ga.eval_cache.{key}" in counters
    }
    evaluated = cache.get("hits", 0) + cache.get("misses", 0)
    hit_rate = cache.get("hits", 0) / evaluated if evaluated else 0.0

    on = sorted(with_cache)[repeats // 2]
    off = sorted(without_cache)[repeats // 2]
    speedup = off / on
    doc = {
        "scale": scale.name,
        "workload": "Theta-S4",
        "method": "BBSched",
        "repeats": repeats,
        "cache_on_s": round(on, 6),
        "cache_off_s": round(off, 6),
        "speedup": round(speedup, 4),
        "design_target_speedup": DESIGN_TARGET,
        "asserted_floor_speedup": ASSERT_FLOOR,
        "cache_counters": cache,
        "cache_hit_rate": round(hit_rate, 6),
    }
    pathlib.Path(RESULTS_DIR).mkdir(exist_ok=True)
    (pathlib.Path(RESULTS_DIR) / "BENCH_perf.json").write_text(
        json.dumps(doc, indent=2) + "\n")
    save_result(
        "eval_cache_speedup",
        "GA evaluation cache speedup (median of %d paired runs)\n"
        "cache on   : %.4fs\n"
        "cache off  : %.4fs\n"
        "speedup    : %.2fx (design target >= %.1fx, asserted >= %.1fx)\n"
        "hit rate   : %.1f%% (%d hits / %d misses / %d deduped / %d evicted)"
        % (repeats, on, off, speedup, DESIGN_TARGET, ASSERT_FLOOR,
           hit_rate * 100.0, cache.get("hits", 0), cache.get("misses", 0),
           cache.get("deduped", 0), cache.get("evictions", 0)),
    )
    # The cache must really engage — a silent no-op would "pass" at 1.0x.
    assert cache.get("hits", 0) > 0
    if scale.name != "smoke":
        assert speedup >= ASSERT_FLOOR
