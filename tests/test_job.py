"""Job model: validation, lifecycle, derived metrics."""

import pytest

from repro.errors import SchedulingError, TraceError
from repro.simulator.job import Job, JobState


def make_job(**kw):
    defaults = dict(jid=1, submit_time=0.0, runtime=100.0, walltime=200.0, nodes=4)
    defaults.update(kw)
    return Job(**defaults)


class TestValidation:
    def test_valid_job(self):
        job = make_job(bb=10.0, ssd=64.0)
        assert job.state is JobState.PENDING

    @pytest.mark.parametrize("nodes", [0, -1])
    def test_nonpositive_nodes_rejected(self, nodes):
        with pytest.raises(TraceError):
            make_job(nodes=nodes)

    def test_negative_runtime_rejected(self):
        with pytest.raises(TraceError):
            make_job(runtime=-1.0)

    def test_nonpositive_walltime_rejected(self):
        with pytest.raises(TraceError):
            make_job(walltime=0.0)

    def test_negative_bb_rejected(self):
        with pytest.raises(TraceError):
            make_job(bb=-5.0)

    def test_negative_ssd_rejected(self):
        with pytest.raises(TraceError):
            make_job(ssd=-1.0)

    def test_negative_submit_rejected(self):
        with pytest.raises(TraceError):
            make_job(submit_time=-1.0)

    @pytest.mark.parametrize("field", ["runtime", "walltime", "bb", "ssd", "submit_time"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_value_rejected(self, field, value):
        # Every ``x < 0`` check is False for NaN, so a NaN used to validate
        # and then surfaced far away (a NaN bb_usage, a misleading repair
        # error in the GA).
        with pytest.raises(TraceError, match=field):
            make_job(**{field: value})

    def test_self_dependency_rejected(self):
        with pytest.raises(TraceError):
            make_job(deps={1})

    def test_deps_coerced_to_frozenset(self):
        job = make_job(deps={2, 3})
        assert isinstance(job.deps, frozenset)


class TestLifecycle:
    def test_full_lifecycle(self):
        job = make_job()
        job.mark_queued()
        assert job.state is JobState.QUEUED
        job.mark_started(50.0)
        assert job.state is JobState.RUNNING
        assert job.start_time == 50.0
        job.mark_completed(150.0)
        assert job.state is JobState.COMPLETED
        assert job.end_time == 150.0

    def test_cannot_start_before_queue(self):
        with pytest.raises(SchedulingError):
            make_job().mark_started(1.0)

    def test_cannot_queue_twice(self):
        job = make_job()
        job.mark_queued()
        with pytest.raises(SchedulingError):
            job.mark_queued()

    def test_cannot_start_before_submit(self):
        job = make_job(submit_time=100.0)
        job.mark_queued()
        with pytest.raises(SchedulingError):
            job.mark_started(50.0)

    def test_cannot_complete_without_start(self):
        job = make_job()
        job.mark_queued()
        with pytest.raises(SchedulingError):
            job.mark_completed(10.0)


class TestDerivedMetrics:
    def _started(self, **kw):
        job = make_job(**kw)
        job.mark_queued()
        job.mark_started(job.submit_time + 50.0)
        return job

    def test_wait_time(self):
        assert self._started().wait_time == 50.0

    def test_wait_time_requires_start(self):
        with pytest.raises(SchedulingError):
            _ = make_job().wait_time

    def test_response_time(self):
        job = self._started(runtime=100.0)
        assert job.response_time == 150.0

    def test_slowdown(self):
        job = self._started(runtime=100.0)
        assert job.slowdown() == pytest.approx(1.5)

    def test_bounded_slowdown_clamps_short_jobs(self):
        job = self._started(runtime=1.0)
        assert job.slowdown(bound=10.0) == pytest.approx(51.0 / 10.0)

    def test_slowdown_zero_runtime_raises(self):
        job = self._started(runtime=0.0)
        with pytest.raises(SchedulingError):
            job.slowdown()

    def test_node_seconds(self):
        assert make_job(nodes=4, runtime=100.0).node_seconds == 400.0

    def test_bb_seconds(self):
        assert make_job(bb=10.0, runtime=100.0).bb_seconds == 1000.0

    def test_uses_bb(self):
        assert make_job(bb=1.0).uses_bb
        assert not make_job(bb=0.0).uses_bb

    def test_uses_ssd(self):
        assert make_job(ssd=64.0).uses_ssd
        assert not make_job().uses_ssd

    def test_demand_vector(self):
        job = make_job(nodes=4, bb=10.0, ssd=8.0)
        assert job.demand_vector() == (4.0, 10.0, 32.0)
