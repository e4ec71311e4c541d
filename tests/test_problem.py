"""MOO problem formulations: evaluation, feasibility, repair, forced genes."""

import numpy as np
import pytest

from repro.core.evalcache import pack_genes, unpack_genes
from repro.core.problem import (
    SelectionProblem,
    SSDSelectionProblem,
    window_demand_matrix,
)
from repro.errors import SolverError
from repro.simulator.job import Job


def make_job(jid, nodes, bb=0.0, ssd=0.0):
    return Job(jid=jid, submit_time=0.0, runtime=10.0, walltime=10.0,
               nodes=nodes, bb=bb, ssd=ssd)


JOBS = [make_job(1, 80, 20.0), make_job(2, 10, 85.0),
        make_job(3, 40, 5.0), make_job(4, 10, 0.0), make_job(5, 20, 0.0)]


class TestWindowDemandMatrix:
    def test_shape_and_values(self):
        D = window_demand_matrix(JOBS)
        assert D.shape == (5, 2)
        assert D[0].tolist() == [80.0, 20.0]

    def test_empty(self):
        assert window_demand_matrix([]).shape == (0, 2)


class TestSelectionProblem:
    def test_from_window(self):
        p = SelectionProblem.from_window(JOBS, 100, 100.0)
        assert p.w == 5
        assert p.n_objectives == 2

    def test_evaluate(self):
        p = SelectionProblem.from_window(JOBS, 100, 100.0)
        pop = np.array([[1, 0, 0, 0, 1], [0, 1, 1, 1, 1]], dtype=np.uint8)
        F = p.evaluate(pop)
        assert F[0].tolist() == [100.0, 20.0]
        assert F[1].tolist() == [80.0, 90.0]

    def test_feasible(self):
        p = SelectionProblem.from_window(JOBS, 100, 100.0)
        pop = np.array([[1, 1, 0, 0, 0],   # 90 nodes, 105 BB -> infeasible
                        [1, 0, 0, 0, 1]], dtype=np.uint8)
        assert p.feasible(pop).tolist() == [False, True]

    def test_empty_selection_always_feasible(self):
        p = SelectionProblem.from_window(JOBS, 0, 0.0)
        pop = np.zeros((1, 5), dtype=np.uint8)
        assert p.feasible(pop).tolist() == [True]

    def test_repair_produces_feasible(self):
        p = SelectionProblem.from_window(JOBS, 50, 50.0)
        pop = np.ones((8, 5), dtype=np.uint8)
        fixed = p.repair(pop, seed=0)
        assert p.feasible(fixed).all()

    def test_repair_does_not_mutate_input(self):
        p = SelectionProblem.from_window(JOBS, 50, 50.0)
        pop = np.ones((2, 5), dtype=np.uint8)
        p.repair(pop, seed=0)
        assert pop.all()

    def test_repair_keeps_forced(self):
        p = SelectionProblem.from_window(JOBS, 100, 100.0, forced=[1])
        pop = np.ones((10, 5), dtype=np.uint8)
        fixed = p.repair(pop, seed=0)
        assert (fixed[:, 1] == 1).all()
        assert p.feasible(fixed).all()

    def test_forced_exceeding_capacity_rejected(self):
        with pytest.raises(SolverError):
            SelectionProblem.from_window(JOBS, 50, 100.0, forced=[0, 2])  # 120 nodes

    def test_forced_out_of_range_rejected(self):
        with pytest.raises(SolverError):
            SelectionProblem.from_window(JOBS, 100, 100.0, forced=[9])

    def test_random_population_feasible(self):
        p = SelectionProblem.from_window(JOBS, 60, 60.0)
        pop = p.random_population(50, seed=1)
        assert pop.shape == (50, 5)
        assert p.feasible(pop).all()

    def test_negative_demand_rejected(self):
        with pytest.raises(SolverError):
            SelectionProblem(np.array([[-1.0, 0.0]]), [10.0, 10.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_demand_rejected(self, bad):
        # ``(demands < 0).any()`` is False for NaN.
        with pytest.raises(SolverError, match="finite"):
            SelectionProblem(np.array([[1.0, bad]]), [10.0, 10.0])

    def test_capacity_shape_mismatch(self):
        with pytest.raises(SolverError):
            SelectionProblem(np.ones((3, 2)), [10.0])

    def test_population_shape_checked(self):
        p = SelectionProblem.from_window(JOBS, 100, 100.0)
        with pytest.raises(SolverError):
            p.evaluate(np.zeros((2, 4), dtype=np.uint8))


class TestSSDSelectionProblem:
    def _problem(self, forced=()):
        jobs = [make_job(1, 2, bb=10.0, ssd=64.0),
                make_job(2, 2, bb=0.0, ssd=200.0),
                make_job(3, 1, bb=5.0, ssd=0.0)]
        return SSDSelectionProblem(
            jobs, free_nodes=4, free_bb=20.0,
            free_tiers={128.0: 2, 256.0: 2}, forced=forced,
        )

    def test_four_objectives(self):
        assert self._problem().n_objectives == 4

    def test_evaluate_linear_objectives(self):
        p = self._problem()
        pop = np.array([[1, 1, 0]], dtype=np.uint8)
        F = p.evaluate(pop)
        assert F[0, 0] == 4.0                       # nodes
        assert F[0, 1] == 10.0                      # bb
        assert F[0, 2] == 64.0 * 2 + 200.0 * 2      # ssd*nodes

    def test_waste_objective_greedy_assignment(self):
        p = self._problem()
        # Job 1 alone: 2 nodes on the 128 tier, waste (128-64)*2.
        F = p.evaluate(np.array([[1, 0, 0]], dtype=np.uint8))
        assert F[0, 3] == pytest.approx(-(128.0 - 64.0) * 2)
        # Jobs 1+2: job1 takes both 128s, job2 both 256s.
        F = p.evaluate(np.array([[1, 1, 0]], dtype=np.uint8))
        assert F[0, 3] == pytest.approx(-(64.0 * 2 + 56.0 * 2))

    def test_tier_feasibility(self):
        # Two large-SSD jobs would need 4 nodes with >=200GB; only 2 exist.
        jobs = [make_job(1, 2, ssd=200.0), make_job(2, 2, ssd=200.0)]
        p2 = SSDSelectionProblem(jobs, 4, 0.0, {128.0: 2, 256.0: 2})
        pop = np.array([[1, 1], [1, 0]], dtype=np.uint8)
        assert p2.feasible(pop).tolist() == [False, True]

    def test_bb_constraint(self):
        jobs = [make_job(1, 1, bb=15.0), make_job(2, 1, bb=15.0)]
        p2 = SSDSelectionProblem(jobs, 4, 20.0, {128.0: 2, 256.0: 2})
        pop = np.array([[1, 1]], dtype=np.uint8)
        assert not p2.feasible(pop)[0]

    def test_window_order_fixes_assignment(self):
        # Earlier window job gets the small tier first.
        jobs = [make_job(1, 2, ssd=64.0), make_job(2, 2, ssd=100.0)]
        p = SSDSelectionProblem(jobs, 4, 0.0, {128.0: 2, 256.0: 2})
        F = p.evaluate(np.array([[1, 1]], dtype=np.uint8))
        # job1 takes 128s (waste 64*2); job2 spills to 256s (waste 156*2).
        assert F[0, 3] == pytest.approx(-(64.0 * 2 + 156.0 * 2))

    def test_tier_count_mismatch_rejected(self):
        with pytest.raises(SolverError):
            SSDSelectionProblem([make_job(1, 1)], 5, 0.0, {128.0: 2, 256.0: 2})

    def test_forced_validation(self):
        with pytest.raises(SolverError):
            jobs = [make_job(1, 4, ssd=200.0)]
            SSDSelectionProblem(jobs, 4, 0.0, {128.0: 2, 256.0: 2}, forced=[0])

    def test_repair_feasible(self):
        p = self._problem()
        pop = np.ones((6, 3), dtype=np.uint8)
        fixed = p.repair(pop, seed=0)
        assert p.feasible(fixed).all()


class TestPackedFeasibility:
    """``feasible_packed`` answers exactly what the kernel answers."""

    @staticmethod
    def _packed(problem, rows):
        """``feasible_packed(rows)``, the kernel's answers, and the rows
        ``feasible_packed`` sent to the kernel."""
        seen = []
        kernel = problem.feasible

        def feasible(pop):
            seen.extend(pack_genes(pop))
            return kernel(pop)

        problem.feasible = feasible
        try:
            got = problem.feasible_packed(rows)
        finally:
            del problem.feasible
        return got, kernel(unpack_genes(rows, problem.w)).tolist(), seen

    def test_close_call_goes_to_kernel(self):
        # 0.1 + 0.2 is 0.30000000000000004: the limit sits a few ULPs from
        # the usage of rows {0, 1} and {2}, well inside the margin.
        demands = np.array([[1.0, 0.1], [1.0, 0.2], [1.0, 0.3]])
        p = SelectionProblem(demands, [3.0, (0.1 + 0.2) - 1e-9])
        assert abs(p._limits[1] - (0.1 + 0.2)) < 4 * np.spacing(0.3)
        got, want, seen = self._packed(p, list(range(8)))
        assert sorted(seen) == [0b011, 0b100]
        assert got == want
        assert got[0b001] and not got[0b111]

    def test_every_subset_matches_kernel_without_calling_it(self):
        p = SelectionProblem.from_window(JOBS, 60, 60.0)
        got, want, seen = self._packed(p, list(range(1 << p.w)))
        assert got == want and seen == []
        assert any(got) and not all(got)

    @pytest.mark.parametrize("cap", [np.nan, np.inf, -np.inf])
    def test_non_finite_capacity(self, cap):
        p = SelectionProblem(window_demand_matrix(JOBS), [1000.0, cap])
        rows = list(range(1 << p.w))
        got, want, seen = self._packed(p, rows)
        assert got == want
        # NaN is never certified, so every row reaches the kernel.
        assert seen == (rows if np.isnan(cap) else [])

    def test_ssd_problem_uses_the_kernel(self):
        jobs = [make_job(1, 2, bb=10.0, ssd=64.0), make_job(2, 2, ssd=200.0),
                make_job(3, 2, bb=15.0, ssd=200.0)]
        p = SSDSelectionProblem(jobs, 4, 20.0, {128.0: 2, 256.0: 2})
        got, want, _ = self._packed(p, list(range(8)))
        assert got == want and not all(got) and any(got)
