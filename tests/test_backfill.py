"""EASY backfilling: shadow-time reservation across multiple resources."""

import pickle

import pytest

from repro.backfill import EasyBackfill, PlannedRelease
from repro.simulator.job import Job


def make_job(jid, nodes, bb=0.0, walltime=100.0, ssd=0.0):
    return Job(jid=jid, submit_time=0.0, runtime=walltime, walltime=walltime,
               nodes=nodes, bb=bb, ssd=ssd)


def release(end, nodes, bb=0.0, tier=0.0):
    return PlannedRelease(est_end=end, bb=bb, nodes_by_tier={tier: nodes})


class TestEmptyAndTrivial:
    def test_empty_queue(self):
        plan = EasyBackfill().plan([], 0.0, {0.0: 4}, [], now=0.0)
        assert plan.to_start == ()
        assert plan.shadow_time is None

    def test_fitting_heads_start_in_order(self):
        # Classic EASY: queue heads start while they fit — a fitting job
        # left at the head must not have its resources reserved but idle.
        a, b = make_job(1, nodes=2), make_job(2, nodes=2)
        plan = EasyBackfill().plan([a, b], 0.0, {0.0: 4}, [], now=5.0)
        assert [j.jid for j in plan.to_start] == [1, 2]
        assert plan.shadow_time is None

    def test_started_heads_count_as_future_releases(self):
        # Head A starts now; the blocked head B's shadow accounts for A's
        # walltime-estimated release.
        a = make_job(1, nodes=3, walltime=50.0)
        blocked = make_job(2, nodes=4)
        plan = EasyBackfill().plan([a, blocked], 0.0, {0.0: 4}, [], now=0.0)
        assert [j.jid for j in plan.to_start] == [1]
        assert plan.shadow_time == pytest.approx(50.0)


class TestBackfillDecisions:
    def test_short_job_backfills_before_shadow(self):
        # Head needs 4 nodes; 2 free now; release at t=100 frees 2 more.
        head = make_job(1, nodes=4)
        short = make_job(2, nodes=2, walltime=50.0)
        plan = EasyBackfill().plan(
            [head, short], 0.0, {0.0: 2}, [release(100.0, 2)], now=0.0
        )
        assert [j.jid for j in plan.to_start] == [2]
        assert plan.shadow_time == 100.0

    def test_long_job_delaying_head_rejected(self):
        head = make_job(1, nodes=4)
        long = make_job(2, nodes=2, walltime=500.0)  # ends after shadow
        plan = EasyBackfill().plan(
            [head, long], 0.0, {0.0: 2}, [release(100.0, 2)], now=0.0
        )
        assert plan.to_start == ()

    def test_long_job_in_extra_capacity_accepted(self):
        # After head's reservation there is slack; a long job fitting the
        # slack may run past the shadow time.
        head = make_job(1, nodes=4)
        long = make_job(2, nodes=2, walltime=500.0)
        plan = EasyBackfill().plan(
            [head, long], 0.0, {0.0: 2}, [release(100.0, 4)], now=0.0
        )
        # At shadow (t=100): 2 free + 4 released - 4 head = 2 extra ≥ 2.
        assert [j.jid for j in plan.to_start] == [2]

    def test_candidate_must_fit_now(self):
        head = make_job(1, nodes=4)
        big = make_job(2, nodes=3, walltime=10.0)
        plan = EasyBackfill().plan(
            [head, big], 0.0, {0.0: 2}, [release(100.0, 2)], now=0.0
        )
        assert plan.to_start == ()

    def test_burst_buffer_reservation_respected(self):
        # Head blocked on BB; candidate wanting the same BB past shadow is
        # rejected, a BB-free candidate is accepted.
        head = make_job(1, nodes=1, bb=80.0)
        bb_hog = make_job(2, nodes=1, bb=50.0, walltime=500.0)
        clean = make_job(3, nodes=1, walltime=500.0)
        plan = EasyBackfill().plan(
            [head, bb_hog, clean], 50.0, {0.0: 4},
            [release(100.0, 1, bb=40.0)], now=0.0,
        )
        assert [j.jid for j in plan.to_start] == [3]

    def test_multiple_backfills_deplete_pool(self):
        head = make_job(1, nodes=10)
        small = [make_job(i, nodes=2, walltime=10.0) for i in range(2, 6)]
        plan = EasyBackfill().plan(
            [head] + small, 0.0, {0.0: 5}, [release(100.0, 10)], now=0.0
        )
        # Only two 2-node jobs fit in the 5 free nodes.
        assert [j.jid for j in plan.to_start] == [2, 3]

    def test_ssd_tier_reservation(self):
        # Head needs 2 large-SSD nodes; only 1 free now; candidate wanting
        # a large-SSD node for longer than the shadow would delay the head.
        head = make_job(1, nodes=2, ssd=200.0)
        rival = make_job(2, nodes=1, ssd=200.0, walltime=500.0)
        plan = EasyBackfill().plan(
            [head, rival], 0.0, {128.0: 4, 256.0: 1},
            [release(100.0, 1, tier=256.0)], now=0.0,
        )
        assert plan.to_start == ()
        small = make_job(3, nodes=1, ssd=64.0, walltime=500.0)
        plan = EasyBackfill().plan(
            [head, small], 0.0, {128.0: 4, 256.0: 1},
            [release(100.0, 1, tier=256.0)], now=0.0,
        )
        assert [j.jid for j in plan.to_start] == [3]

    def test_unsatisfiable_head_degrades_to_fit_now(self):
        # Head larger than the machine: nothing to protect, candidates that
        # fit may start.
        head = make_job(1, nodes=100)
        small = make_job(2, nodes=1, walltime=10.0)
        plan = EasyBackfill().plan([head, small], 0.0, {0.0: 4}, [], now=0.0)
        assert [j.jid for j in plan.to_start] == [2]
        assert plan.shadow_time is None

    def test_overrun_release_treated_as_imminent(self):
        # A running job past its estimate: its release time clamps to now.
        head = make_job(1, nodes=4)
        cand = make_job(2, nodes=2, walltime=5.0)
        plan = EasyBackfill().plan(
            [head, cand], 0.0, {0.0: 2}, [release(50.0, 2)], now=80.0
        )
        assert plan.shadow_time == pytest.approx(80.0, abs=1e-3)

    def test_priority_order_respected(self):
        # Backfill considers candidates in queue order; an early candidate
        # exhausting the pool shuts out later ones.
        head = make_job(1, nodes=10)
        first = make_job(2, nodes=4, walltime=10.0)
        second = make_job(3, nodes=4, walltime=10.0)
        plan = EasyBackfill().plan(
            [head, first, second], 0.0, {0.0: 5}, [release(100.0, 10)], now=0.0
        )
        assert [j.jid for j in plan.to_start] == [2]


class TestPlannedRelease:
    def test_totals_are_derived_once(self):
        r = PlannedRelease(est_end=5.0, bb=1.5, nodes_by_tier={256.0: 2, 128.0: 3})
        assert (r.nodes, r.min_cap) == (5, 128.0)
        empty = PlannedRelease(est_end=5.0, bb=0.0, nodes_by_tier={})
        assert empty.nodes == 0 and empty.min_cap == float("inf")

    def test_pickled_state_is_the_three_fields(self):
        # Checkpoints pickle the engine's releases: their state stays what a
        # release without derived totals pickled, so older snapshots load.
        r = PlannedRelease(est_end=5.0, bb=1.5, nodes_by_tier={128.0: 3})
        state = {"est_end": 5.0, "bb": 1.5, "nodes_by_tier": {128.0: 3}}
        assert r.__reduce_ex__(2)[2] == state
        old = PlannedRelease.__new__(PlannedRelease)
        old.__setstate__(state)
        assert old == r and (old.nodes, old.min_cap) == (3, 128.0)
        restored = pickle.loads(pickle.dumps(r))
        assert restored == r and restored.nodes == 3
