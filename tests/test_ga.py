"""Multi-objective genetic algorithm (§3.2.2)."""

import numpy as np
import pytest

from repro.core.evalcache import pack_genes, unpack_genes
from repro.core.exhaustive import ExhaustiveSolver
from repro.core.ga import MOGASolver, ParetoSet, crowding_distance
from repro.core.gd import generational_distance
from repro.core.problem import SelectionProblem
from repro.errors import SolverError
from repro.simulator.job import Job


def make_job(jid, nodes, bb):
    return Job(jid=jid, submit_time=0.0, runtime=10.0, walltime=10.0,
               nodes=nodes, bb=bb)


def table1_problem(forced=()):
    jobs = [make_job(1, 80, 20.0), make_job(2, 10, 85.0),
            make_job(3, 40, 5.0), make_job(4, 10, 0.0), make_job(5, 20, 0.0)]
    return SelectionProblem.from_window(jobs, 100, 100.0, forced=forced)


class TestConstruction:
    def test_defaults_match_paper(self):
        s = MOGASolver()
        assert s.generations == 500
        assert s.population == 20
        assert s.mutation == pytest.approx(0.0005)

    @pytest.mark.parametrize("kw", [
        dict(generations=-1), dict(population=1),
        dict(mutation=1.5), dict(selection="bogus"),
    ])
    def test_invalid_params(self, kw):
        with pytest.raises(SolverError):
            MOGASolver(**kw)


class TestSolve:
    def test_finds_table1_pareto_set(self):
        """The §1 example: the GA must find both Pareto solutions."""
        result = MOGASolver(generations=300, seed=0).solve(table1_problem())
        sols = {tuple(g) for g in result.genes}
        assert (1, 0, 0, 0, 1) in sols      # Solution 2
        assert (0, 1, 1, 1, 1) in sols      # Solution 3

    def test_all_solutions_feasible(self):
        problem = table1_problem()
        result = MOGASolver(generations=100, seed=1).solve(problem)
        assert problem.feasible(result.genes).all()

    def test_result_is_internally_non_dominated(self):
        result = MOGASolver(generations=100, seed=2).solve(table1_problem())
        F = result.objectives
        for i in range(len(result)):
            for j in range(len(result)):
                if i != j:
                    assert not ((F[j] >= F[i]).all() and (F[j] > F[i]).any())

    def test_deterministic_given_seed(self):
        a = MOGASolver(generations=50, seed=3).solve(table1_problem())
        b = MOGASolver(generations=50, seed=3).solve(table1_problem())
        assert (a.genes == b.genes).all()

    def test_different_seeds_explore_differently(self):
        problem = table1_problem()
        a = problem.random_population(20, seed=1)
        b = problem.random_population(20, seed=2)
        assert (a != b).any()

    def test_zero_generations_still_returns_front(self):
        result = MOGASolver(generations=0, seed=0).solve(table1_problem())
        assert len(result) >= 1

    def test_empty_window(self):
        problem = SelectionProblem(np.zeros((0, 2)), [10.0, 10.0])
        result = MOGASolver(generations=10, seed=0).solve(problem)
        assert len(result) == 0

    def test_single_gene_window(self):
        problem = SelectionProblem(np.array([[5.0, 5.0]]), [10.0, 10.0])
        result = MOGASolver(generations=10, seed=0).solve(problem)
        assert (1,) in {tuple(g) for g in result.genes}

    def test_forced_genes_always_selected(self):
        problem = table1_problem(forced=[3])
        result = MOGASolver(generations=50, seed=0).solve(problem)
        assert (result.genes[:, 3] == 1).all()

    def test_gd_improves_with_generations(self):
        """Figure 4's headline trend: more generations → smaller GD."""
        problem = table1_problem()
        true = ExhaustiveSolver().solve(problem)
        gds = []
        for G in (0, 20, 300):
            gd_vals = []
            for seed in range(5):
                approx = MOGASolver(generations=G, seed=seed).solve(problem)
                gd_vals.append(generational_distance(
                    approx.objectives, true.objectives,
                    normalize=[100.0, 100.0]))
            gds.append(np.mean(gd_vals))
        assert gds[2] <= gds[0]
        assert gds[2] == pytest.approx(0.0, abs=1e-9)

    def test_crowding_ablation_also_solves(self):
        result = MOGASolver(generations=300, selection="crowding", seed=0).solve(
            table1_problem())
        sols = {tuple(g) for g in result.genes}
        assert (1, 0, 0, 0, 1) in sols

    def test_population_matches_against_larger_window(self):
        rng = np.random.default_rng(5)
        jobs = [make_job(i, int(rng.integers(1, 40)), float(rng.integers(0, 50)))
                for i in range(12)]
        problem = SelectionProblem.from_window(jobs, 100, 100.0)
        result = MOGASolver(generations=200, seed=0).solve(problem)
        assert problem.feasible(result.genes).all()
        assert len(result) >= 1


class TestParetoSet:
    def test_best_by(self):
        ps = ParetoSet(
            genes=np.array([[1, 0], [0, 1]], dtype=np.uint8),
            objectives=np.array([[5.0, 1.0], [1.0, 9.0]]),
        )
        assert ps.best_by(0) == 0
        assert ps.best_by(1) == 1

    def test_best_by_tie_breaks_lowest_index(self):
        """A tied maximum must dispatch the lowest row index, always.

        Decision rules pick the dispatched solution via best_by; on a tied
        front any other tie-break would make runs platform-dependent.
        """
        ps = ParetoSet(
            genes=np.array([[1, 0], [0, 1], [1, 1]], dtype=np.uint8),
            objectives=np.array([[7.0, 2.0], [7.0, 5.0], [3.0, 5.0]]),
        )
        assert ps.best_by(0) == 0  # rows 0 and 1 tie on objective 0
        assert ps.best_by(1) == 1  # rows 1 and 2 tie on objective 1

    def test_best_by_empty_raises(self):
        ps = ParetoSet(genes=np.zeros((0, 2), dtype=np.uint8),
                       objectives=np.zeros((0, 2)))
        with pytest.raises(SolverError):
            ps.best_by(0)

    def test_row_mismatch_rejected(self):
        with pytest.raises(SolverError):
            ParetoSet(genes=np.zeros((2, 2), dtype=np.uint8),
                      objectives=np.zeros((1, 2)))


class TestPackedChromosomes:
    @pytest.mark.parametrize("w", [1, 8, 9, 64, 65])
    def test_round_trip(self, w):
        rng = np.random.default_rng(w)
        genes = rng.integers(0, 2, size=(7, w), dtype=np.uint8)
        genes[0] = 0
        genes[1] = 1
        rows = pack_genes(genes)
        assert rows[0] == 0 and rows[1] == (1 << w) - 1
        # Gene i is bit i.
        assert all((bits >> i) & 1 == g for bits, row in zip(rows, genes)
                   for i, g in enumerate(row))
        back = unpack_genes(rows, w)
        assert back.dtype == np.uint8 and back.shape == (7, w)
        assert back.tobytes() == genes.tobytes()

    def test_bool_flips_pack_like_genes(self):
        flips = np.array([[True, False, True], [False, False, False]])
        assert pack_genes(flips) == [0b101, 0]


class TestEvalCache:
    def test_stats_none_without_a_cache(self):
        """Selectors whose solver has no memo report no counters; the
        engine then emits no ``ga.eval_cache.*`` metrics."""
        from repro.methods import make_selector

        assert make_selector("BBSched", solver="milp").eval_cache_stats is None
        assert make_selector("BBSched").eval_cache_stats == {
            "hits": 0, "misses": 0, "deduped": 0, "evictions": 0,
        }

    def test_stats_zero_before_first_solve(self):
        s = MOGASolver()
        assert s.eval_cache_stats == {
            "hits": 0, "misses": 0, "deduped": 0, "evictions": 0,
        }

    def test_stats_accumulate_across_solves(self):
        s = MOGASolver(generations=15, population=8, seed=0)
        s.solve(table1_problem())
        first = s.eval_cache_stats
        assert first["hits"] > 0 and first["misses"] > 0
        s.solve(table1_problem())
        second = s.eval_cache_stats
        assert second["hits"] > first["hits"]

    def test_store_cleared_between_solves(self):
        """Chromosome bytes are meaningless across problems — a stale
        entry would serve wrong objectives, so each solve starts empty."""
        s = MOGASolver(generations=10, population=8, seed=0)
        s.solve(table1_problem())
        jobs = [make_job(1, 3, 50.0), make_job(2, 4, 10.0)]
        other = SelectionProblem.from_window(jobs, 10, 60.0)
        result = s.solve(other)
        assert other.feasible(result.genes).all()
        assert np.allclose(result.objectives, other.evaluate(result.genes))

    def test_pickle_drops_cache_and_results_stay_identical(self):
        """The memo store never rides along in a checkpoint: pickling
        drops it, and the restored solver rebuilds it lazily producing
        byte-identical output from its restored RNG."""
        import pickle

        problem = table1_problem()
        a = MOGASolver(generations=20, population=8, seed=9)
        b = pickle.loads(pickle.dumps(a))
        assert b._cache is None
        ra, rb = a.solve(problem), b.solve(problem)
        assert ra.genes.tobytes() == rb.genes.tobytes()
        assert ra.objectives.tobytes() == rb.objectives.tobytes()
        # Warm solver pickled mid-life: store still dropped, output still equal.
        c = pickle.loads(pickle.dumps(a))
        assert c._cache is None
        rc = c.solve(problem)
        ra2 = a.solve(problem)
        assert rc.genes.tobytes() == ra2.genes.tobytes()

    def test_snapshot_with_retired_fast_repair_key_loads(self):
        """Snapshots from before the vectorized repair mode was removed
        carry a ``fast_repair`` attribute; loading drops it."""
        problem = table1_problem()
        a = MOGASolver(generations=20, population=8, seed=9)
        state = a.__getstate__()
        state["fast_repair"] = False
        b = MOGASolver.__new__(MOGASolver)
        b.__setstate__(state)
        assert not hasattr(b, "fast_repair")
        assert a.solve(problem).genes.tobytes() == b.solve(problem).genes.tobytes()

    def test_snapshot_with_retired_eval_cache_key_loads(self):
        """Snapshots from before the ``eval_cache`` knob was removed carry
        that attribute, ``False`` when taken on the reference loop;
        loading drops it and the solver runs its one loop."""
        problem = table1_problem()
        a = MOGASolver(generations=20, population=8, seed=9)
        state = a.__getstate__()
        state["eval_cache"] = False
        b = MOGASolver.__new__(MOGASolver)
        b.__setstate__(state)
        assert not hasattr(b, "eval_cache")
        assert a.solve(problem).genes.tobytes() == b.solve(problem).genes.tobytes()

    def test_snapshot_with_retired_cache_capacity_key_loads(self):
        """Snapshots from before the ``cache_capacity`` knob was removed
        carry that attribute; loading drops it."""
        problem = table1_problem()
        a = MOGASolver(generations=20, population=8, seed=9)
        state = a.__getstate__()
        state["cache_capacity"] = 4
        b = MOGASolver.__new__(MOGASolver)
        b.__setstate__(state)
        assert not hasattr(b, "cache_capacity")
        assert a.solve(problem).genes.tobytes() == b.solve(problem).genes.tobytes()


class TestCrowdingDistance:
    def test_boundaries_infinite(self):
        F = np.array([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]])
        d = crowding_distance(F)
        assert np.isinf(d[0]) and np.isinf(d[3])
        assert np.isfinite(d[1]) and np.isfinite(d[2])

    def test_empty(self):
        assert crowding_distance(np.zeros((0, 2))).size == 0

    def test_middle_spacing(self):
        F = np.array([[0.0, 4.0], [1.0, 3.0], [3.0, 1.0], [4.0, 0.0]])
        d = crowding_distance(F)
        assert d[1] == pytest.approx(d[2])
