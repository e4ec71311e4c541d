"""SolverWatchdog: budget enforcement, graceful degradation, breaker."""

import time

import pytest

from repro.errors import ConfigurationError, SolverTimeoutError
from repro.methods import NaiveSelector, make_selector
from repro.methods.base import Selector, SystemCapacity
from repro.policies import FCFS
from repro.resilience import (
    GreedyFallbackSelector,
    SolverWatchdog,
    scalar_fallback,
)
from repro.simulator.cluster import Cluster
from repro.simulator.engine import SchedulingEngine
from repro.simulator.job import Job, JobState
from repro.windows import WindowPolicy


class SlowSelector(Selector):
    """Takes every job that fits — after sleeping past any sane budget."""

    name = "Slow"

    def __init__(self, delay=0.2):
        super().__init__()
        self.delay = delay
        self.calls = 0

    def select(self, window, avail):
        self.calls += 1
        time.sleep(self.delay)
        return self.greedy_in_order(window, avail, range(len(window)))


def make_job(jid, submit=0.0, runtime=100.0, nodes=1, bb=0.0):
    return Job(jid=jid, submit_time=submit, runtime=runtime, walltime=runtime,
               nodes=nodes, bb=bb)


def window_and_avail(n=4):
    cluster = Cluster(nodes=10, bb_capacity=100.0)
    return [make_job(i, nodes=2) for i in range(n)], cluster.available()


def bound(wd):
    wd.bind(SystemCapacity(nodes=10, bb=100.0))
    return wd


class TestWatchdogDirect:
    def test_fast_inner_passes_through(self):
        wd = bound(SolverWatchdog(NaiveSelector(), budget=5.0))
        window, avail = window_and_avail()
        picks = wd.select(window, avail)
        assert picks
        assert wd.stats.calls == 1
        assert wd.stats.fallback_calls == 0
        assert wd.fallback_calls == 0

    def test_slow_inner_degrades_to_fallback(self):
        wd = bound(SolverWatchdog(SlowSelector(0.3), budget=0.02))
        window, avail = window_and_avail()
        picks = wd.select(window, avail)
        Selector.verify_feasible(window, avail, picks)
        assert picks == [0, 1, 2, 3]      # greedy fallback takes all fitting
        assert wd.stats.timeouts == 1
        assert wd.stats.fallback_calls == 1
        assert wd.stats.fallback_at == [1]

    def test_breaker_trips_and_bypasses_inner(self):
        inner = SlowSelector(0.3)
        wd = bound(SolverWatchdog(inner, budget=0.02, trip_after=2))
        window, avail = window_and_avail()
        for _ in range(5):
            wd.select(window, avail)
        assert wd.stats.tripped
        assert inner.calls == 2           # never invoked after the trip
        assert wd.stats.timeouts == 2
        assert wd.stats.fallback_calls == 5
        assert wd.stats.fallback_rate == 1.0

    def test_success_resets_consecutive_count(self):
        class Flaky(SlowSelector):
            def select(self, window, avail):
                self.calls += 1
                if self.calls % 2:        # odd calls are slow
                    time.sleep(self.delay)
                return []

        wd = bound(SolverWatchdog(Flaky(0.3), budget=0.05, trip_after=2))
        window, avail = window_and_avail()
        for _ in range(6):
            wd.select(window, avail)
        assert not wd.stats.tripped       # timeouts never consecutive
        assert wd.stats.timeouts == 3

    def test_no_fallback_raises(self):
        wd = bound(SolverWatchdog(SlowSelector(0.3), budget=0.02,
                                  fallback=None))
        window, avail = window_and_avail()
        with pytest.raises(SolverTimeoutError):
            wd.select(window, avail)

    def test_inner_errors_propagate(self):
        class Broken(Selector):
            name = "Broken"

            def select(self, window, avail):
                raise ValueError("boom")

        wd = bound(SolverWatchdog(Broken(), budget=5.0))
        window, avail = window_and_avail()
        with pytest.raises(ValueError):
            wd.select(window, avail)

    def test_scalar_fallback_is_usable(self):
        wd = bound(SolverWatchdog(SlowSelector(0.3), budget=0.02,
                                  fallback=scalar_fallback(seed=0)))
        window, avail = window_and_avail()
        picks = wd.select(window, avail)
        Selector.verify_feasible(window, avail, picks)
        assert wd.stats.fallback_calls == 1

    @pytest.mark.parametrize("kw", [
        {"budget": 0.0},
        {"budget": -1.0},
        {"budget": 1.0, "trip_after": 0},
        {"budget": 1.0, "fallback": "not a selector"},
    ])
    def test_invalid_configuration_rejected(self, kw):
        with pytest.raises(ConfigurationError):
            SolverWatchdog(NaiveSelector(), **kw)

    def test_name_advertises_guard(self):
        wd = SolverWatchdog(GreedyFallbackSelector(), budget=1.0)
        assert "watchdog" in wd.name


class TestWatchdogInEngine:
    def run_sim(self, selector, jobs):
        return SchedulingEngine(
            Cluster(nodes=10, bb_capacity=100.0),
            FCFS(),
            selector,
            WindowPolicy(size=5),
        ).run(jobs)

    def test_engine_records_fallbacks_and_completes(self):
        wd = SolverWatchdog(SlowSelector(0.3), budget=0.02, trip_after=2)
        jobs = [make_job(i, submit=float(i), nodes=3, bb=10.0)
                for i in range(10)]
        res = self.run_sim(wd, jobs)
        assert all(j.state is JobState.COMPLETED for j in res.jobs)
        assert res.stats.fallback_calls > 0
        assert res.stats.fallback_calls == wd.stats.fallback_calls
        assert 0.0 < res.stats.fallback_rate <= 1.0

    def test_no_fallbacks_recorded_without_watchdog(self):
        jobs = [make_job(i, submit=float(i), nodes=3) for i in range(5)]
        res = self.run_sim(NaiveSelector(), jobs)
        assert res.stats.fallback_calls == 0
        assert res.stats.fallback_rate == 0.0

    def test_stats_partition_not_double_counted(self):
        # Regression for the selected/forced partition: jobs started through
        # the starvation bound or a watchdog fallback count exactly once.
        wd = SolverWatchdog(
            make_selector("Constrained_CPU", generations=10, seed=0),
            budget=10.0)
        jobs = [make_job(1, nodes=2, runtime=50.0, bb=90.0)]
        jobs += [make_job(10 + i, submit=float(i), nodes=2, runtime=30.0,
                          bb=20.0) for i in range(30)]
        res = SchedulingEngine(
            Cluster(nodes=10, bb_capacity=100.0),
            FCFS(),
            wd,
            WindowPolicy(size=3, starvation_bound=5),
        ).run(jobs)
        assert res.stats.forced_jobs > 0
        total = (res.stats.selected_jobs + res.stats.forced_jobs +
                 res.stats.backfilled_jobs)
        assert total == len(jobs)

    def test_watchdog_mean_selector_time_includes_fallbacks(self):
        wd = SolverWatchdog(SlowSelector(0.3), budget=0.02, trip_after=1)
        jobs = [make_job(i, submit=float(i), nodes=3) for i in range(6)]
        res = self.run_sim(wd, jobs)
        assert res.stats.selector_calls == wd.stats.calls
        # After the trip every call is a cheap fallback, so the mean sits
        # well below the inner selector's 0.3 s.
        assert res.stats.mean_selector_time < 0.3

    def test_wrapped_run_reports_the_inner_selectors_counters(self):
        """The engine's end-of-run report reaches through the watchdog:
        GA cache counters and gap samples match the bare run's."""
        from repro.experiments import get_scale, get_workload, run_one

        smoke = get_scale("smoke")
        trace = get_workload("Theta-S4", smoke)

        def ga_report(**kw):
            result = run_one(trace, "BBSched", smoke, seed=2, yardstick=True,
                             collect_telemetry=True, **kw)
            metrics = result.telemetry.metrics
            counters = {k: c.value for k, c in metrics.counters.items()
                        if k.startswith("ga.")}
            return counters, metrics.histograms["ga.optimality_gap"].count

        bare = ga_report()
        assert bare[0]["ga.eval_cache.misses"] > 0 and bare[1] > 0
        assert ga_report(watchdog_budget=30) == bare
