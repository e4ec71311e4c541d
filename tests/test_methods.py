"""Selection methods (§4.3): naive, weighted, constrained, bin packing."""

import pytest

from repro.errors import ConfigurationError, SchedulingError
from repro.methods import (
    BinPackingSelector,
    ConstrainedSelector,
    METHODS_SECTION4,
    METHODS_SECTION5,
    NaiveSelector,
    Selector,
    SystemCapacity,
    WeightedSelector,
    available_methods,
    constrained_ssd,
    make_selector,
    weighted_bb,
    weighted_cpu,
    weighted_equal,
)
from repro.simulator.cluster import Available
from repro.simulator.job import Job

TB = 1024.0


def make_job(jid, nodes, bb=0.0, ssd=0.0):
    return Job(jid=jid, submit_time=0.0, runtime=10.0, walltime=10.0,
               nodes=nodes, bb=bb, ssd=ssd)


TABLE1 = [make_job(1, 80, 20 * TB), make_job(2, 10, 85 * TB),
          make_job(3, 40, 5 * TB), make_job(4, 10, 0.0), make_job(5, 20, 0.0)]
AVAIL = Available(nodes=100, bb=100 * TB, ssd_free={0.0: 100})
SYSTEM = SystemCapacity(nodes=100, bb=100 * TB)


def run(selector, window=TABLE1, avail=AVAIL, system=SYSTEM):
    selector.bind(system)
    picks = selector.select(window, avail)
    Selector.verify_feasible(window, avail, picks)
    return [window[i].jid for i in picks]


class TestNaive:
    def test_blocks_at_first_non_fitting(self):
        """Table 1: naive selects J1 then blocks on J2's burst buffer."""
        assert run(NaiveSelector()) == [1]

    def test_takes_all_when_everything_fits(self):
        jobs = [make_job(i, 10) for i in range(5)]
        assert run(NaiveSelector(), jobs) == [0, 1, 2, 3, 4]

    def test_empty_window(self):
        assert run(NaiveSelector(), []) == []

    def test_first_job_too_big_selects_nothing(self):
        jobs = [make_job(1, 200), make_job(2, 10)]
        assert run(NaiveSelector(), jobs) == []


class TestWeighted:
    def test_table1_cpu_biased_picks_solution2(self):
        assert sorted(run(weighted_cpu(generations=200, seed=0))) == [1, 5]

    def test_table1_bb_biased_picks_solution3(self):
        assert sorted(run(weighted_bb(generations=200, seed=0))) == [2, 3, 4, 5]

    def test_table1_equal_picks_solution3(self):
        # 50/50 utilization weights: 0.5·0.8+0.5·0.9 beats 0.5·1.0+0.5·0.2.
        assert sorted(run(weighted_equal(generations=200, seed=0))) == [2, 3, 4, 5]

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigurationError):
            WeightedSelector(node_weight=-0.1)

    def test_both_zero_rejected(self):
        with pytest.raises(ConfigurationError):
            WeightedSelector(node_weight=0.0, bb_weight=0.0)

    def test_requires_bind(self):
        sel = weighted_equal(generations=5, seed=0)
        with pytest.raises(SchedulingError):
            sel.select(TABLE1, AVAIL)

    def test_names(self):
        assert weighted_equal().name == "Weighted"
        assert weighted_cpu().name == "Weighted_CPU"
        assert weighted_bb().name == "Weighted_BB"


class TestConstrained:
    def test_cpu_target_maximizes_nodes(self):
        picks = run(ConstrainedSelector("cpu", generations=200, seed=0))
        nodes = sum(j.nodes for j in TABLE1 if j.jid in picks)
        assert nodes == 100

    def test_bb_target_maximizes_bb(self):
        picks = run(ConstrainedSelector("bb", generations=200, seed=0))
        bb = sum(j.bb for j in TABLE1 if j.jid in picks)
        assert bb == pytest.approx(90 * TB)

    def test_unknown_target_rejected(self):
        with pytest.raises(ConfigurationError):
            ConstrainedSelector("gpu")

    def test_ssd_target_needs_tiers(self):
        sel = constrained_ssd(generations=5, seed=0)
        sel.bind(SYSTEM)
        with pytest.raises(ConfigurationError):
            sel.select(TABLE1, AVAIL)

    def test_names(self):
        assert ConstrainedSelector("cpu").name == "Constrained_CPU"
        assert ConstrainedSelector("ssd").name == "Constrained_SSD"


class TestBinPacking:
    def test_table1_picks_solution2(self):
        """Greedy alignment packing lands on J1+J5, missing Solution 3."""
        assert sorted(run(BinPackingSelector())) == [1, 5]

    def test_packs_until_full(self):
        jobs = [make_job(i, 30) for i in range(5)]
        picks = run(BinPackingSelector(), jobs)
        assert len(picks) == 3  # 3 × 30 ≤ 100 < 4 × 30

    def test_empty_window(self):
        assert run(BinPackingSelector(), []) == []

    def test_respects_bb_capacity(self):
        jobs = [make_job(1, 10, 80 * TB), make_job(2, 10, 80 * TB)]
        picks = run(BinPackingSelector(), jobs)
        assert len(picks) == 1

    def test_ssd_aware_packing(self):
        jobs = [make_job(1, 2, ssd=200.0), make_job(2, 2, ssd=200.0)]
        avail = Available(nodes=4, bb=0.0, ssd_free={128.0: 2, 256.0: 2})
        sel = BinPackingSelector()
        sel.bind(SystemCapacity(nodes=4, bb=0.0, ssd_total=4 * 192.0))
        picks = sel.select(jobs, avail)
        assert len(picks) == 1  # only two >=200GB nodes exist


class TestVerifyFeasible:
    def test_accepts_valid(self):
        Selector.verify_feasible(TABLE1, AVAIL, [0, 4])

    def test_rejects_node_overflow(self):
        with pytest.raises(SchedulingError):
            Selector.verify_feasible(TABLE1, AVAIL, [0, 2])  # 120 nodes

    def test_rejects_bb_overflow(self):
        jobs = [make_job(1, 1, 60 * TB), make_job(2, 1, 60 * TB)]
        with pytest.raises(SchedulingError):
            Selector.verify_feasible(jobs, AVAIL, [0, 1])

    def test_rejects_out_of_range(self):
        with pytest.raises(SchedulingError):
            Selector.verify_feasible(TABLE1, AVAIL, [9])

    def test_rejects_duplicates(self):
        with pytest.raises(SchedulingError):
            Selector.verify_feasible(TABLE1, AVAIL, [0, 0])

    def test_rejects_ssd_tier_violation(self):
        jobs = [make_job(1, 3, ssd=200.0)]
        avail = Available(nodes=4, bb=0.0, ssd_free={128.0: 2, 256.0: 2})
        with pytest.raises(SchedulingError):
            Selector.verify_feasible(jobs, avail, [0])


class TestRegistry:
    @pytest.mark.parametrize("name", sorted(set(METHODS_SECTION4) | set(METHODS_SECTION5)))
    def test_make_all_methods(self, name):
        sel = make_selector(name, generations=5, seed=0)
        assert sel.name == name

    def test_unknown_method(self):
        with pytest.raises(ConfigurationError):
            make_selector("Magic")

    def test_available_methods_sorted(self):
        methods = available_methods()
        assert methods == sorted(methods)
        assert "BBSched" in methods
        assert methods == sorted(set(METHODS_SECTION4) | set(METHODS_SECTION5))

    def test_section4_has_eight_methods(self):
        assert len(METHODS_SECTION4) == 8

    def test_section5_has_seven_methods(self):
        assert len(METHODS_SECTION5) == 7

    def test_selectors_are_independent(self):
        a = make_selector("BBSched", generations=5, seed=1)
        b = make_selector("BBSched", generations=5, seed=1)
        assert a is not b


class TestSystemCapacity:
    def test_scales2(self):
        assert SystemCapacity(nodes=10, bb=100.0).scales2() == (10.0, 100.0)

    def test_scales2_zero_bb_floor(self):
        assert SystemCapacity(nodes=10, bb=0.0).scales2() == (10.0, 1.0)

    def test_scales4(self):
        s = SystemCapacity(nodes=10, bb=100.0, ssd_total=50.0)
        assert s.scales4() == (10.0, 100.0, 50.0, 50.0)
