"""Step-series recorder: exact time-weighted integration."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.simulator.recorder import StepSeries, UsageRecorder
from tests.oracles import ReferenceStepSeries

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestStepSeries:
    def test_initial_level(self):
        s = StepSeries(5.0)
        assert s.integral(0.0, 10.0) == pytest.approx(50.0)

    def test_single_step(self):
        s = StepSeries(0.0)
        s.observe(5.0, 2.0)
        assert s.integral(0.0, 10.0) == pytest.approx(10.0)

    def test_multiple_steps(self):
        s = StepSeries(1.0)
        s.observe(2.0, 3.0)   # [0,2): 1, [2,5): 3, [5,..): 0
        s.observe(5.0, 0.0)
        assert s.integral(0.0, 8.0) == pytest.approx(2.0 + 9.0 + 0.0)

    def test_partial_interval(self):
        s = StepSeries(2.0)
        s.observe(4.0, 6.0)
        assert s.integral(3.0, 5.0) == pytest.approx(2.0 + 6.0)

    def test_interval_before_first_change(self):
        s = StepSeries(2.0)
        s.observe(10.0, 5.0)
        assert s.integral(0.0, 4.0) == pytest.approx(8.0)

    def test_interval_after_last_change_extends_flat(self):
        s = StepSeries(0.0)
        s.observe(1.0, 7.0)
        assert s.integral(5.0, 10.0) == pytest.approx(35.0)

    def test_same_time_overwrites(self):
        s = StepSeries(0.0)
        s.observe(1.0, 5.0)
        s.observe(1.0, 9.0)
        assert s.integral(1.0, 2.0) == pytest.approx(9.0)

    def test_out_of_order_rejected(self):
        s = StepSeries(0.0)
        s.observe(5.0, 1.0)
        with pytest.raises(ConfigurationError):
            s.observe(4.0, 1.0)

    def test_reversed_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            StepSeries(0.0).integral(5.0, 4.0)

    def test_mean(self):
        s = StepSeries(0.0)
        s.observe(5.0, 10.0)
        assert s.mean(0.0, 10.0) == pytest.approx(5.0)

    def test_mean_empty_interval(self):
        assert StepSeries(3.0).mean(1.0, 1.0) == 0.0

    def test_as_arrays(self):
        s = StepSeries(1.0)
        s.observe(2.0, 3.0)
        times, values = s.as_arrays()
        assert times.tolist() == [0.0, 2.0]
        assert values.tolist() == [1.0, 3.0]

    def test_last_accessors(self):
        s = StepSeries(1.0)
        s.observe(4.0, 9.0)
        assert s.last_time == 4.0
        assert s.last_value == 9.0


#: Random step functions as (dt, value) pairs; dt == 0 exercises the
#: equal-timestamp overwrite rule (last observation wins).
step_functions = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.25, 1.0, 3.5, 100.0]),
        st.floats(-50.0, 50.0, allow_nan=False, width=32),
    ),
    min_size=0,
    max_size=80,
)


def _build_pair(initial, steps):
    fast = StepSeries(initial)
    ref = ReferenceStepSeries(initial)
    t = 0.0
    for dt, value in steps:
        t += dt
        fast.observe(t, value)
        ref.observe(t, value)
    return fast, ref, t


class TestStepSeriesDifferential:
    """The numpy-buffered series against the fsum list-backed reference."""

    @given(
        st.floats(-10.0, 10.0, allow_nan=False, width=32),
        step_functions,
        st.floats(0.0, 1.0, allow_nan=False),
        st.floats(0.0, 1.0, allow_nan=False),
    )
    @settings(**COMMON)
    def test_integral_matches_reference(self, initial, steps, a, b):
        fast, ref, horizon = _build_pair(initial, steps)
        span = horizon + 10.0
        t0, t1 = sorted((a * span, b * span))
        assert fast.integral(t0, t1) == pytest.approx(
            ref.integral(t0, t1), rel=1e-12, abs=1e-9
        )
        assert fast.mean(t0, t1) == pytest.approx(
            ref.mean(t0, t1), rel=1e-12, abs=1e-9
        )

    @given(st.floats(-10.0, 10.0, allow_nan=False, width=32), step_functions)
    @settings(**COMMON)
    def test_arrays_and_accessors_match(self, initial, steps):
        fast, ref, _ = _build_pair(initial, steps)
        ft, fv = fast.as_arrays()
        rt, rv = ref.as_arrays()
        assert ft.tolist() == rt.tolist()
        assert fv.tolist() == rv.tolist()
        assert len(fast) == len(ref)
        assert fast.last_time == ref.last_time
        assert fast.last_value == ref.last_value

    def test_growth_past_initial_capacity(self):
        """A long series crosses the amortized-doubling boundary; every
        prefix integral still matches the fsum reference."""
        rng = np.random.default_rng(7)
        fast, ref = StepSeries(1.0), ReferenceStepSeries(1.0)
        t = 0.0
        for _ in range(500):
            t += float(rng.choice([0.0, 0.5, 2.0, 9.0]))
            v = float(rng.uniform(-100.0, 100.0))
            fast.observe(t, v)
            ref.observe(t, v)
        for _ in range(200):
            t0, t1 = sorted(rng.uniform(-5.0, t + 5.0, size=2))
            assert fast.integral(t0, t1) == pytest.approx(
                ref.integral(t0, t1), rel=1e-12, abs=1e-9
            )

    def test_overwrite_run_keeps_last(self):
        """A burst of same-timestamp observations collapses to the last."""
        fast, ref = StepSeries(0.0), ReferenceStepSeries(0.0)
        for s in (fast, ref):
            s.observe(2.0, 1.0)
            s.observe(2.0, 5.0)
            s.observe(2.0, -3.0)
        assert fast.integral(0.0, 4.0) == ref.integral(0.0, 4.0) == -6.0
        assert len(fast) == len(ref) == 2

    def test_reference_uses_fsum_compensation(self):
        """Many tiny segments: the reference's fsum keeps the exact sum;
        the numpy pairwise dot must stay within float64 round-off of it."""
        fast, ref = StepSeries(0.0), ReferenceStepSeries(0.0)
        t = 0.0
        for i in range(2000):
            t += 0.1
            for s in (fast, ref):
                s.observe(t, 0.1 * ((-1) ** i))
        expected = math.fsum(
            0.1 * 0.1 * ((-1) ** i) for i in range(2000 - 1)
        )
        assert ref.integral(0.0, t) == pytest.approx(expected, abs=1e-12)
        assert fast.integral(0.0, t) == pytest.approx(expected, abs=1e-9)


class TestUsageRecorder:
    def test_observe_cluster_feeds_all_series(self):
        r = UsageRecorder()
        r.observe_cluster(1.0, nodes_used=4, bb_used=10.0, ssd_used=6.0, ssd_waste=2.0)
        assert r.nodes.mean(0.0, 2.0) == pytest.approx(2.0)
        assert r.bb.mean(1.0, 2.0) == pytest.approx(10.0)
        assert r.ssd.mean(1.0, 2.0) == pytest.approx(6.0)
        assert r.ssd_waste.mean(1.0, 2.0) == pytest.approx(2.0)

    def test_observe_queue(self):
        r = UsageRecorder()
        r.observe_queue(2.0, 5)
        assert r.queue.mean(2.0, 4.0) == pytest.approx(5.0)
