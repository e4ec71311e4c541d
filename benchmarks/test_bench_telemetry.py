"""Tracing overhead: instrumented run vs the NullTracer default.

The telemetry design target is <5% wall-clock overhead when a real
:class:`~repro.telemetry.Tracer` is installed, and *zero* overhead by
default (instrumented code calls the shared inert ``NULL_TRACER``).
This bench measures both sides on the same small simulation and asserts
a lenient ceiling; it writes nothing.  perfbench ``--trace 1`` reports
the overhead of a traced benchmark run as ``telemetry.overhead_frac``.
"""

from __future__ import annotations

import time

from repro.methods import make_selector
from repro.policies import FCFS
from repro.simulator.cluster import Cluster
from repro.simulator.engine import SchedulingEngine
from repro.simulator.job import Job
from repro.telemetry import Tracer, use_tracer
from repro.windows import WindowPolicy

from conftest import run_once


def _jobs(n=60):
    return [Job(jid=i, submit_time=float(i * 10), runtime=300.0,
                walltime=300.0, nodes=1 + i % 8, bb=float(i % 5) * 10.0)
            for i in range(n)]


def _simulate(traced: bool, fine: bool = False):
    engine = SchedulingEngine(
        Cluster(nodes=16, bb_capacity=200.0),
        FCFS(),
        make_selector("BBSched", seed=3, generations=20),
        WindowPolicy(size=8),
    )
    if traced:
        with use_tracer(Tracer(fine=fine)):
            return engine.run(_jobs())
    return engine.run(_jobs())


def test_bench_sim_untraced(benchmark):
    result = run_once(benchmark, _simulate, False)
    assert result.makespan > 0


def test_bench_sim_traced(benchmark):
    result = run_once(benchmark, _simulate, True)
    assert result.makespan > 0


def test_trace_overhead_ratio():
    """Paired timing of the same simulation with and without a tracer.

    Alternates the two variants to cancel thermal drift and takes the
    median of each (min-of-N is too noisy on shared boxes — one quiet
    untraced iteration skews the ratio).  The assert is deliberately
    lenient (25%) so a noisy CI box doesn't flake.
    """
    repeats = 5
    untraced, traced = [], []
    _simulate(True)  # warm both paths
    for _ in range(repeats):
        t0 = time.perf_counter()
        _simulate(False)
        untraced.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        _simulate(True)
        traced.append(time.perf_counter() - t0)
    overhead = sorted(traced)[repeats // 2] / sorted(untraced)[repeats // 2] - 1.0
    assert overhead < 0.25, "tracing overhead %+.2f%%" % (overhead * 100.0)
