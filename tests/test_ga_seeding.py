"""GA warm-start seeding and paper-exact (random-init) mode."""

import numpy as np

from repro.core.exhaustive import ExhaustiveSolver
from repro.core.ga import MOGASolver
from repro.core.gd import generational_distance
from repro.core.problem import SelectionProblem, SSDSelectionProblem
from repro.simulator.job import Job


def make_job(jid, nodes, bb, ssd=0.0):
    return Job(jid=jid, submit_time=0.0, runtime=10.0, walltime=10.0,
               nodes=nodes, bb=bb, ssd=ssd)


def random_problem(w=12, seed=3):
    rng = np.random.default_rng(seed)
    jobs = [make_job(i, int(rng.integers(1, 40)), float(rng.integers(0, 60)))
            for i in range(w)]
    return SelectionProblem.from_window(jobs, 120, 150.0)


class TestGreedyChromosomes:
    def test_linear_problem_seeds_feasible(self):
        problem = random_problem()
        seeds = problem.greedy_chromosomes()
        assert seeds.shape[1] == problem.w
        assert problem.feasible(seeds).all()

    def test_seeds_are_maximal(self):
        """No unselected job fits into a greedy seed's leftover capacity."""
        problem = random_problem()
        for genes in problem.greedy_chromosomes():
            used = genes.astype(float) @ problem.demands
            left = problem.capacities - used
            for i in np.flatnonzero(genes == 0):
                assert (problem.demands[i] > left + 1e-9).any()

    def test_ssd_problem_seeds_feasible(self):
        jobs = [make_job(1, 2, 5.0, ssd=64.0), make_job(2, 2, 0.0, ssd=200.0),
                make_job(3, 1, 3.0), make_job(4, 3, 8.0, ssd=32.0)]
        problem = SSDSelectionProblem(jobs, 8, 10.0, {128.0: 4, 256.0: 4})
        seeds = problem.greedy_chromosomes()
        assert problem.feasible(seeds).all()

    def test_empty_window(self):
        problem = SelectionProblem(np.zeros((0, 2)), [1.0, 1.0])
        assert problem.greedy_chromosomes().shape[0] == 0


def numpy_greedy_chromosomes(problem):
    """Oracle: the numpy form of ``SelectionProblem.greedy_chromosomes``
    that the Python-float version replaced."""
    if problem.w == 0:
        return np.zeros((0, 0), dtype=np.uint8)
    orders = [np.arange(problem.w)]
    for k in range(problem.n_objectives):
        orders.append(np.argsort(-problem.demands[:, k], kind="stable"))
    seeds = []
    for order in orders:
        genes = np.zeros(problem.w, dtype=np.uint8)
        used = np.zeros_like(problem.capacities)
        for i in order:
            new = used + problem.demands[i]
            if (new <= problem.capacities + 1e-9).all():
                genes[i] = 1
                used = new
        seeds.append(genes)
    return np.unique(np.stack(seeds), axis=0)


class TestGreedyOracle:
    """The Python-float greedy seeds equal the numpy oracle's, row for row."""

    @staticmethod
    def random_problem(rng):
        w = int(rng.integers(1, 25))
        k = int(rng.integers(1, 4))
        if rng.random() < 0.5:
            demands = rng.integers(0, 30, size=(w, k)).astype(float)
        else:
            demands = rng.random((w, k)) * rng.choice([1.0, 0.1, 100.0])
        if rng.random() < 0.3:  # ties between demands
            demands[rng.integers(0, w, size=w // 2)] = demands[0]
        total = demands.sum(axis=0)
        kind = rng.choice(["tight", "loose", "zero"], p=[0.6, 0.2, 0.2])
        if kind == "tight":
            capacities = total * rng.uniform(0.1, 0.9, size=k)
            # Capacities on, or just under, a partial sum exercise the 1e-9
            # tolerance.
            if rng.random() < 0.5:
                edge = demands[: int(rng.integers(0, w + 1)), 0].sum()
                capacities[0] = max(0.0, edge - rng.choice([0.0, 5e-10, 2e-9]))
        elif kind == "loose":
            capacities = total + rng.uniform(0.0, 10.0, size=k)
        else:
            capacities = np.zeros(k)
            capacities[1:] = total[1:] * rng.uniform(0.0, 1.0, size=k - 1)
        return SelectionProblem(demands, capacities)

    def test_matches_numpy_oracle(self):
        rng = np.random.default_rng(20_261)
        for trial in range(1200):
            problem = self.random_problem(rng)
            got = problem.greedy_chromosomes()
            want = numpy_greedy_chromosomes(problem)
            assert got.dtype == want.dtype, trial
            assert got.shape == want.shape, trial
            assert got.tobytes() == want.tobytes(), trial


class TestSeedingModes:
    def test_seeded_at_low_g_beats_random_at_low_g(self):
        """Warm-starting substitutes for the paper's big G budget."""
        problem = random_problem(w=14, seed=9)
        truth = ExhaustiveSolver().solve(problem)
        norm = [120.0, 150.0]

        def mean_gd(seed_greedy):
            gds = []
            for s in range(6):
                solver = MOGASolver(generations=10, population=12,
                                    seed_greedy=seed_greedy, seed=s)
                approx = solver.solve(problem)
                gds.append(generational_distance(
                    approx.objectives, truth.objectives, normalize=norm))
            return np.mean(gds)

        assert mean_gd(True) <= mean_gd(False) + 1e-12

    def test_paper_mode_still_solves(self):
        """seed_greedy=False (paper-exact) converges given the paper's G."""
        jobs = [make_job(1, 80, 20.0), make_job(2, 10, 85.0),
                make_job(3, 40, 5.0), make_job(4, 10, 0.0), make_job(5, 20, 0.0)]
        problem = SelectionProblem.from_window(jobs, 100, 100.0)
        result = MOGASolver(generations=500, seed_greedy=False, seed=0).solve(problem)
        sols = {tuple(g) for g in result.genes}
        assert (0, 1, 1, 1, 1) in sols

    def test_seeded_result_respects_forced(self):
        problem = SelectionProblem.from_window(
            [make_job(1, 80, 20.0), make_job(2, 10, 85.0),
             make_job(3, 40, 5.0), make_job(4, 10, 0.0), make_job(5, 20, 0.0)],
            100, 100.0, forced=[3],
        )
        result = MOGASolver(generations=30, seed=0).solve(problem)
        assert (result.genes[:, 3] == 1).all()
