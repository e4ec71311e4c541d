"""Cluster resource model: allocation invariants across three resources."""

import numpy as np
import pytest

from repro.errors import AllocationError, ConfigurationError
from repro.simulator.cluster import Available, Cluster
from repro.simulator.job import Job
from repro.simulator.jobtable import JobTable


def make_job(jid=1, nodes=4, bb=0.0, ssd=0.0):
    return Job(jid=jid, submit_time=0.0, runtime=100.0, walltime=100.0,
               nodes=nodes, bb=bb, ssd=ssd)


class TestConstruction:
    def test_basic(self):
        c = Cluster(nodes=10, bb_capacity=100.0)
        assert c.total_nodes == 10
        assert c.bb_capacity == 100.0
        assert c.nodes_free == 10
        assert c.bb_free == 100.0

    def test_nonpositive_nodes_rejected(self):
        with pytest.raises(ConfigurationError):
            Cluster(nodes=0, bb_capacity=1.0)

    def test_negative_bb_rejected(self):
        with pytest.raises(ConfigurationError):
            Cluster(nodes=1, bb_capacity=-1.0)

    def test_reserved_fraction_carves_capacity(self):
        # Cori reserves one third of its burst buffer persistently (§4.1).
        c = Cluster(nodes=10, bb_capacity=90.0, bb_reserved_fraction=1.0 / 3.0)
        assert c.bb_capacity == pytest.approx(60.0)

    def test_bad_reserved_fraction(self):
        with pytest.raises(ConfigurationError):
            Cluster(nodes=1, bb_capacity=1.0, bb_reserved_fraction=1.0)

    def test_ssd_tiers_must_cover_all_nodes(self):
        with pytest.raises(ConfigurationError):
            Cluster(nodes=10, bb_capacity=0.0, ssd_tiers={128.0: 4})

    def test_has_ssd_tiers(self):
        assert not Cluster(nodes=4, bb_capacity=0.0).has_ssd_tiers
        assert Cluster(nodes=4, bb_capacity=0.0,
                       ssd_tiers={128.0: 2, 256.0: 2}).has_ssd_tiers


class TestAllocate:
    def test_allocate_updates_usage(self):
        c = Cluster(nodes=10, bb_capacity=100.0)
        c.allocate(make_job(nodes=4, bb=30.0))
        assert c.nodes_used == 4
        assert c.bb_used == 30.0
        assert c.node_utilization() == pytest.approx(0.4)
        assert c.bb_utilization() == pytest.approx(0.3)

    def test_release_restores(self):
        c = Cluster(nodes=10, bb_capacity=100.0)
        job = make_job(nodes=4, bb=30.0)
        c.allocate(job)
        c.release(job)
        assert c.nodes_used == 0
        assert c.bb_used == 0.0

    def test_double_allocate_rejected(self):
        c = Cluster(nodes=10, bb_capacity=100.0)
        job = make_job()
        c.allocate(job)
        with pytest.raises(AllocationError):
            c.allocate(job)

    def test_release_unallocated_rejected(self):
        c = Cluster(nodes=10, bb_capacity=100.0)
        with pytest.raises(AllocationError):
            c.release(make_job())

    def test_node_overflow_rejected(self):
        c = Cluster(nodes=3, bb_capacity=100.0)
        with pytest.raises(AllocationError):
            c.allocate(make_job(nodes=4))

    def test_bb_overflow_rejected(self):
        c = Cluster(nodes=10, bb_capacity=10.0)
        with pytest.raises(AllocationError):
            c.allocate(make_job(bb=20.0))

    def test_failed_alloc_is_atomic(self):
        c = Cluster(nodes=10, bb_capacity=10.0)
        with pytest.raises(AllocationError):
            c.allocate(make_job(nodes=4, bb=20.0))
        assert c.nodes_used == 0
        assert c.bb_used == 0.0

    def test_ssd_allocation_records_assignment(self):
        c = Cluster(nodes=4, bb_capacity=0.0, ssd_tiers={128.0: 2, 256.0: 2})
        job = make_job(nodes=3, ssd=100.0)
        c.allocate(job)
        assert sorted(job.assigned_ssd) == [128.0, 128.0, 256.0]
        assert c.allocated_waste(job) == pytest.approx(28.0 * 2 + 156.0)
        assert c.nodes_by_tier(job) == {128.0: 2, 256.0: 1}

    def test_ssd_too_large_rejected(self):
        c = Cluster(nodes=4, bb_capacity=0.0, ssd_tiers={128.0: 2, 256.0: 2})
        with pytest.raises(AllocationError):
            c.allocate(make_job(nodes=3, ssd=200.0))

    def test_running_jobs(self):
        c = Cluster(nodes=10, bb_capacity=100.0)
        c.allocate(make_job(jid=7))
        assert c.running_jobs() == [7]


class TestAvailable:
    def test_snapshot(self):
        c = Cluster(nodes=10, bb_capacity=100.0)
        c.allocate(make_job(nodes=4, bb=30.0))
        avail = c.available()
        assert avail.nodes == 6
        assert avail.bb == 70.0
        assert avail.ssd_free == {0.0: 6}

    def test_fits(self):
        avail = Available(nodes=5, bb=10.0, ssd_free={0.0: 5})
        assert avail.fits(make_job(nodes=5, bb=10.0))
        assert not avail.fits(make_job(nodes=6))
        assert not avail.fits(make_job(bb=11.0))
        assert not avail.fits(make_job(nodes=2, ssd=1.0))

    def test_fits_with_tiers(self):
        avail = Available(nodes=4, bb=0.0, ssd_free={128.0: 2, 256.0: 2})
        assert avail.fits(make_job(nodes=2, ssd=200.0))
        assert not avail.fits(make_job(nodes=3, ssd=200.0))

    def test_can_fit_mirrors_available(self):
        c = Cluster(nodes=10, bb_capacity=100.0)
        assert c.can_fit(make_job(nodes=10, bb=100.0))
        assert not c.can_fit(make_job(nodes=11))

    def test_fits_mask_empty(self):
        avail = Available(nodes=5, bb=10.0, ssd_free={0.0: 5})
        empty = np.zeros(0)
        assert avail.fits_cols(empty.astype(int), empty, empty).shape == (0,)

    def test_fits_mask_matches_fits(self):
        """The batched mask over gathered demand columns must agree with
        per-job fits() on every job, including SSD requests landing exactly
        on, between, and above the tier capacities."""
        rng = np.random.default_rng(3)
        snapshots = [
            Available(nodes=5, bb=10.0, ssd_free={0.0: 5}),
            Available(nodes=4, bb=0.0, ssd_free={128.0: 2, 256.0: 2}),
            Available(nodes=9, bb=50.0, ssd_free={0.0: 3, 128.0: 2, 256.0: 4}),
        ]
        for avail in snapshots:
            jobs = [
                make_job(jid=j, nodes=int(rng.integers(1, 8)),
                         bb=float(rng.integers(0, 15)),
                         ssd=float(rng.choice([0.0, 64.0, 128.0, 200.0,
                                               256.0, 300.0])))
                for j in range(40)
            ]
            expected = [avail.fits(job) for job in jobs]
            table = JobTable(jobs)
            mask = avail.fits_cols(table.nodes, table.bb, table.ssd)
            assert mask.tolist() == expected

    def test_bb_utilization_zero_capacity(self):
        c = Cluster(nodes=10, bb_capacity=0.0)
        assert c.bb_utilization() == 0.0
