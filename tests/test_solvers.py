"""Window-solver subsystem: registry, MILP exactness, optimality yardstick.

The load-bearing guarantee is exactness: the MILP solver must reproduce
the exhaustive solver's true Pareto front bit-for-bit on every window it
both can solve (w ≤ 12 here, across Cori- and Theta-like scales), and
must keep solving where exhaustive refuses (w = 30 > MAX_EXHAUSTIVE_W),
where its optima and front are pinned.  End to end, the schedules that
``--solver milp`` produces are pinned by fingerprint digest.
"""

import numpy as np
import pytest

from repro.core.bbsched import BBSchedSelector
from repro.core.problem import SelectionProblem, SSDSelectionProblem
from repro.errors import ConfigurationError, SolverError
from repro.methods import SOLVER_BACKED, make_selector
from repro.methods.base import SystemCapacity
from repro.simulator.cluster import Available
from repro.simulator.job import Job
from repro.solvers import (
    ExhaustiveWindowSolver,
    GAWindowSolver,
    MILPWindowSolver,
    OptimalityYardstick,
    ScalarGAWindowSolver,
    WindowSolver,
    available_window_solvers,
    make_window_solver,
    register_window_solver,
    solver_matrix,
)
from repro.solvers import registry as solver_registry

#: Scalarization directions exercised against each instance.
COEFF_SETS = (
    (1.0, 1.0),
    (1.0, 0.0),
    (0.0, 1.0),
    (0.7, 0.3),
)


def make_job(jid, nodes, bb=0.0, ssd=0.0):
    return Job(jid=jid, submit_time=0.0, runtime=600.0, walltime=900.0,
               nodes=nodes, bb=bb, ssd=ssd)


def random_problem(rng, w, *, total_nodes, total_bb, cap_frac=0.6, forced=()):
    """A BBSched-shaped instance: power-of-two nodes, loosely correlated bb."""
    nodes = 2 ** rng.integers(0, 12, size=w)
    nodes = np.minimum(nodes, max(1, total_nodes // 4))
    bb = np.where(
        rng.random(w) < 0.6,
        rng.integers(0, max(2, total_bb // 20), size=w),
        0,
    ).astype(float)
    jobs = [make_job(i, int(nodes[i]), float(bb[i])) for i in range(w)]
    return SelectionProblem.from_window(
        jobs, cap_frac * total_nodes, cap_frac * total_bb, forced=forced
    )


#: Independent references a solver's scalar optimum is checked against:
#: the pure-Python exhaustive solver, and HiGHS via scipy.optimize.milp
#: (a test-only oracle; the solver itself never imports scipy).
REFERENCES = ("python", "scipy")


def reference_optimum(reference, problem, coeffs):
    """The best ``coeffs``-weighted value of ``problem``, per ``reference``."""
    if reference == "python":
        return ExhaustiveWindowSolver().solve_scalar(problem, coeffs).fitness
    optimize = pytest.importorskip("scipy.optimize")
    lower = np.zeros(problem.w)
    lower[list(problem.forced)] = 1.0
    res = optimize.milp(
        c=-(problem.demands @ np.asarray(coeffs, dtype=float)),
        constraints=[optimize.LinearConstraint(
            problem.demands.T, -np.inf, problem.capacities)],
        integrality=np.ones(problem.w),
        bounds=optimize.Bounds(lower, np.ones(problem.w)),
        # HiGHS's default 1e-4 relative gap would stop short of the optimum.
        options={"mip_rel_gap": 0.0},
    )
    assert res.status == 0, res.message
    genes = (res.x > 0.5).astype(np.uint8)[None, :]
    assert problem.feasible(genes).all()
    return float(problem.evaluate(genes)[0] @ np.asarray(coeffs, dtype=float))


def front_as_set(pareto):
    return {tuple(np.round(row, 6)) for row in np.asarray(pareto.objectives, dtype=float)}


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_stock_solvers_registered(self):
        names = available_window_solvers()
        for expected in ("ga", "scalar", "milp", "exhaustive"):
            assert expected in names

    def test_unknown_name_raises_with_choices(self):
        with pytest.raises(ConfigurationError, match="milp"):
            make_window_solver("simulated-annealing")

    def test_matrix_marks_exactness(self):
        rows = {row["name"]: row for row in solver_matrix()}
        assert rows["milp"]["exact"] is True
        assert rows["exhaustive"]["exact"] is True
        assert rows["ga"]["exact"] is False
        assert rows["scalar"]["exact"] is False
        assert all(row["description"] for row in rows.values())

    def test_factory_types(self):
        assert isinstance(make_window_solver("ga"), GAWindowSolver)
        assert isinstance(make_window_solver("scalar"), ScalarGAWindowSolver)
        assert isinstance(make_window_solver("milp"), MILPWindowSolver)
        assert isinstance(make_window_solver("exhaustive"), ExhaustiveWindowSolver)

    def test_ga_knobs_reach_ga_solver(self):
        solver = make_window_solver("ga", generations=7, population=12, mutation=0.25)
        assert solver.generations == 7
        assert solver.population == 12
        assert solver.mutation == 0.25

    def test_plugin_registration(self):
        class EchoSolver(WindowSolver):
            name = "echo"
            exact = False

            def solve(self, problem, seed=None):
                return ExhaustiveWindowSolver().solve(problem, seed)

            def solve_scalar(self, problem, coeffs, seed=None):
                return ExhaustiveWindowSolver().solve_scalar(problem, coeffs, seed)

        register_window_solver("echo-test", lambda **kw: EchoSolver(), "test plugin")
        try:
            assert "echo-test" in available_window_solvers()
            solver = make_window_solver("echo-test")
            assert isinstance(solver, EchoSolver)
        finally:
            solver_registry._REGISTRY.pop("echo-test", None)
        assert "echo-test" not in available_window_solvers()


# ---------------------------------------------------------------------------
# MILP exactness vs exhaustive enumeration (w ≤ 12)
# ---------------------------------------------------------------------------


#: (label, total_nodes, total_bb) — Cori (§4.1) and Theta-like scales.
SCALES = (
    ("cori", 9_688, 1_500_000.0),
    ("theta", 4_392, 750_000.0),
)


class TestMILPMatchesExhaustive:
    @pytest.mark.parametrize("label,total_nodes,total_bb", SCALES)
    def test_exact_front_all_small_widths(self, label, total_nodes, total_bb):
        exhaustive = ExhaustiveWindowSolver()
        milp = MILPWindowSolver()
        rng = np.random.default_rng(hash(label) & 0xFFFF)
        for w in range(1, 13):
            problem = random_problem(rng, w, total_nodes=total_nodes, total_bb=total_bb)
            want = front_as_set(exhaustive.solve(problem))
            got = front_as_set(milp.solve(problem))
            assert got == want, f"front mismatch at w={w} ({label})"

    @pytest.mark.parametrize("label,total_nodes,total_bb", SCALES)
    def test_exact_scalar_all_small_widths(self, label, total_nodes, total_bb):
        exhaustive = ExhaustiveWindowSolver()
        milp = MILPWindowSolver()
        rng = np.random.default_rng(hash((label, "s")) & 0xFFFF)
        for w in range(1, 13):
            problem = random_problem(rng, w, total_nodes=total_nodes, total_bb=total_bb)
            for coeffs in COEFF_SETS:
                want = exhaustive.solve_scalar(problem, coeffs).fitness
                got = milp.solve_scalar(problem, coeffs).fitness
                assert got == pytest.approx(want, rel=1e-9, abs=1e-9), (
                    f"scalar mismatch at w={w} coeffs={coeffs} ({label})"
                )

    @pytest.mark.parametrize("reference", REFERENCES)
    def test_forced_genes_honoured(self, reference):
        rng = np.random.default_rng(11)
        problem = random_problem(
            rng, 10, total_nodes=2_000, total_bb=10_000.0, forced=(2, 5)
        )
        milp = MILPWindowSolver()
        front = milp.solve(problem)
        assert (front.genes[:, [2, 5]] == 1).all()
        best = milp.solve_scalar(problem, (1.0, 1.0))
        assert best.genes[2] == 1 and best.genes[5] == 1
        assert best.fitness == pytest.approx(
            reference_optimum(reference, problem, (1.0, 1.0)), rel=1e-9
        )

    def test_empty_window(self):
        problem = SelectionProblem(np.zeros((0, 2)), [10.0, 10.0])
        front = MILPWindowSolver().solve(problem)
        assert front.genes.shape[0] <= 1
        best = MILPWindowSolver().solve_scalar(problem, (1.0, 1.0))
        assert best.fitness == 0.0

    def test_solutions_feasible(self):
        rng = np.random.default_rng(23)
        milp = MILPWindowSolver()
        for w in (6, 10, 12):
            problem = random_problem(rng, w, total_nodes=4_392, total_bb=750_000.0)
            front = milp.solve(problem)
            assert problem.feasible(front.genes).all()


# ---------------------------------------------------------------------------
# Beyond the exhaustive wall (w = 30)
# ---------------------------------------------------------------------------


class TestBeyondExhaustiveWall:
    def _w30(self):
        rng = np.random.default_rng(42)
        return random_problem(
            rng, 30, total_nodes=9_688, total_bb=1_500_000.0, cap_frac=0.65
        )

    def test_exhaustive_refuses(self):
        with pytest.raises(SolverError, match="26"):
            ExhaustiveWindowSolver().solve(self._w30())

    @pytest.mark.parametrize("reference", REFERENCES)
    def test_milp_scalar_solves_w30(self, reference):
        problem = self._w30()
        best = MILPWindowSolver().solve_scalar(problem, (1.0, 1.0))
        assert problem.feasible(best.genes[None, :]).all()
        if reference == "python":
            # Exhaustive refuses w=30; the scalar optimum must still
            # dominate any greedy seed's value.
            greedy = problem.greedy_chromosomes()
            greedy_best = float((problem.evaluate(greedy) @ np.ones(2)).max())
            assert best.fitness >= greedy_best - 1e-9
        else:
            assert best.fitness == pytest.approx(
                reference_optimum(reference, problem, (1.0, 1.0)), rel=1e-9
            )

    def test_milp_scalar_optima_pinned_at_w30(self):
        problem = self._w30()
        optima = (658364.0, 6296.0, 652076.0, 200024.4)
        for coeffs, optimum in zip(COEFF_SETS, optima):
            got = MILPWindowSolver().solve_scalar(problem, coeffs).fitness
            assert got == pytest.approx(optimum, rel=1e-9), coeffs

    def test_milp_front_solves_w30(self):
        problem = self._w30()
        front = MILPWindowSolver().solve(problem)
        assert problem.feasible(front.genes).all()
        objs = np.asarray(front.objectives, dtype=float)
        assert sorted(map(tuple, objs.tolist()), reverse=True) == [
            (6296.0, 634110.0),
            (6288.0, 652076.0),
        ]
        # Front must be mutually non-dominated.
        for i in range(len(objs)):
            dominated = (objs >= objs[i] - 1e-9).all(axis=1) & (
                objs > objs[i] + 1e-9
            ).any(axis=1)
            assert not dominated.any()


# ---------------------------------------------------------------------------
# Free 0/1 programs and counters
# ---------------------------------------------------------------------------


class TestBackends:
    """Programs the level DP cannot answer reach the branch-and-bound.

    The names date from when a scipy backend sat in front of it; they are
    kept so the test ids stay stable.
    """

    def test_auto_falls_back_to_python(self):
        # Non-integral node demands bypass the DP level decomposition and
        # force an actual 0/1 program through the branch-and-bound.
        solver = MILPWindowSolver()
        rng = np.random.default_rng(5)
        demands = rng.random((8, 2)) * 10.0 + 0.1
        problem = SelectionProblem(demands, [25.0, 25.0])
        want = ExhaustiveWindowSolver().solve_scalar(problem, (1.0, 1.0)).fitness
        got = solver.solve_scalar(problem, (1.0, 1.0))
        assert got.fitness == pytest.approx(want, rel=1e-9)

    def test_stats_counters_move(self):
        solver = MILPWindowSolver()
        rng = np.random.default_rng(6)
        demands = rng.random((6, 2)) * 10.0 + 0.1
        problem = SelectionProblem(demands, [20.0, 20.0])
        solver.solve_scalar(problem, (1.0, 1.0))
        assert solver.stats["solves"] >= 1


# ---------------------------------------------------------------------------
# End-to-end: pinned --solver milp schedules
# ---------------------------------------------------------------------------


#: fingerprint_digest of run_one(W, "BBSched", S, seed=0, solver="milp").
MILP_RUN_DIGESTS = {
    ("Theta-S4", "smoke"): "d08ffed47148ec18fb22999977126cf534115fb586058c74e68fe7bbcc487e27",
    ("Cori-S4", "smoke"): "a3b873aadfc6e795297982c8d5fbc7cb963df9202bf48e255ecb365556d3e3ca",
    ("Theta-S4", "default"): "844d52f657bb50ce150c5e5702708a66d6f6cbf8bdb41d08a5509707af40d578",
    ("Cori-S4", "default"): "e9fe8225daccf664a1b16d183039a40536dd8c82089c7f294ee2e1823778f77b",
}


@pytest.mark.parametrize("workload,scale_name", sorted(MILP_RUN_DIGESTS))
def test_milp_schedules_pinned(workload, scale_name):
    from repro.checkpoint.verify import fingerprint_digest
    from repro.experiments.config import get_scale
    from repro.experiments.runner import run_one
    from repro.experiments.workloads import get_workload

    scale = get_scale(scale_name)
    result = run_one(get_workload(workload, scale), "BBSched", scale, seed=0,
                     solver="milp")
    assert fingerprint_digest(result) == MILP_RUN_DIGESTS[workload, scale_name]


# ---------------------------------------------------------------------------
# Unsupported formulations
# ---------------------------------------------------------------------------


def _ssd_problem():
    jobs = [make_job(1, 2, 0.0, 128.0), make_job(2, 2, 5.0, 256.0)]
    return SSDSelectionProblem(jobs, 4, 10.0, {128.0: 2, 256.0: 2})


class TestSupports:
    def test_milp_refuses_ssd_problem(self):
        solver = MILPWindowSolver()
        problem = _ssd_problem()
        assert solver.supports(problem) is False
        with pytest.raises(SolverError):
            solver.solve(problem)
        with pytest.raises(SolverError):
            solver.solve_scalar(problem, (1.0, 1.0, 1.0, 1.0))

    def test_ga_supports_everything(self):
        assert GAWindowSolver().supports(_ssd_problem())


# ---------------------------------------------------------------------------
# Selector integration
# ---------------------------------------------------------------------------


def _window_and_avail(rng, w=8):
    jobs = [
        make_job(i, int(2 ** rng.integers(0, 6)), float(rng.integers(0, 40)))
        for i in range(w)
    ]
    return jobs, Available(nodes=64, bb=120.0, ssd_free={})


class TestSelectorIntegration:
    def test_bbsched_with_milp_solver(self):
        rng = np.random.default_rng(3)
        window, avail = _window_and_avail(rng)
        sel = BBSchedSelector(seed=1, solver="milp")
        sel.bind(SystemCapacity(avail.nodes, avail.bb))
        picks = sel.select(window, avail)
        assert picks and all(0 <= i < len(window) for i in picks)

    def test_exact_solvers_ignore_rng(self):
        # Same picks from wildly different seeds: deterministic solvers
        # never touch the random stream.
        rng = np.random.default_rng(9)
        window, avail = _window_and_avail(rng)
        picks = []
        for seed in (1, 999):
            sel = BBSchedSelector(seed=seed, solver="milp")
            sel.bind(SystemCapacity(avail.nodes, avail.bb))
            picks.append(sel.select(window, avail))
        assert picks[0] == picks[1]

    def test_make_selector_routes_solver(self):
        for method in SOLVER_BACKED:
            sel = make_selector(method, solver="exhaustive", seed=7)
            assert isinstance(sel.solver, ExhaustiveWindowSolver), method

    def test_make_selector_ga_alias_is_default(self):
        stock = make_selector("BBSched", seed=7)
        alias = make_selector("BBSched", solver="ga", seed=7)
        assert type(alias.solver) is type(stock.solver)

    def test_make_selector_unknown_solver(self):
        with pytest.raises(ConfigurationError, match="window solver"):
            make_selector("BBSched", solver="quantum")


# ---------------------------------------------------------------------------
# Optimality yardstick
# ---------------------------------------------------------------------------


class TestYardstick:
    def test_exact_on_exact_gap_is_zero(self):
        rng = np.random.default_rng(13)
        yd = OptimalityYardstick()
        milp = MILPWindowSolver()
        for w in (4, 8, 12):
            problem = random_problem(rng, w, total_nodes=2_000, total_bb=9_000.0)
            coeffs = (1.0, 1.0)
            best = milp.solve_scalar(problem, coeffs)
            gap = yd.measure(problem, coeffs, best.fitness)
            assert gap == pytest.approx(0.0, abs=1e-12)
        assert yd.summary()["count"] == 3
        assert yd.summary()["max"] == pytest.approx(0.0, abs=1e-12)

    def test_ga_gap_nonnegative(self):
        rng = np.random.default_rng(17)
        yd = OptimalityYardstick()
        ga = ScalarGAWindowSolver(generations=4, population=12, mutation=0.2)
        for trial in range(5):
            problem = random_problem(rng, 10, total_nodes=2_000, total_bb=9_000.0)
            coeffs = (1.0, 0.5)
            best = ga.solve_scalar(problem, coeffs, seed=trial)
            yd.measure(problem, coeffs, best.fitness)
        assert len(yd.gaps) == 5
        assert all(g >= 0.0 for g in yd.gaps)

    def test_unsupported_problem_skipped(self):
        yd = OptimalityYardstick()
        assert yd.measure(_ssd_problem(), (1.0, 1.0, 1.0, 1.0), 0.0) is None
        assert yd.skipped == 1 and yd.gaps == []
        assert yd.summary() is None

    def test_empty_front_skipped(self):
        rng = np.random.default_rng(19)
        problem = random_problem(rng, 4, total_nodes=500, total_bb=2_000.0)
        yd = OptimalityYardstick()

        class EmptyFront:
            objectives = np.zeros((0, 2))

            def __len__(self):
                return 0

        assert yd.measure_front(problem, (1.0, 1.0), EmptyFront()) is None
        assert yd.skipped == 1

    def test_gap_flows_into_run_telemetry(self):
        from repro.experiments.config import get_scale
        from repro.experiments.runner import run_one
        from repro.experiments.workloads import get_workload

        scale = get_scale("smoke")
        trace = get_workload("Theta-S4", scale)
        result = run_one(trace, "BBSched", scale, seed=2, yardstick=True,
                         collect_telemetry=True)
        g = result.optimality_gap
        assert g is not None and g["count"] > 0
        assert 0.0 <= g["mean"] <= g["max"]
        # The histogram rides the generic metrics snapshot/JSONL export.
        snap = result.telemetry.metrics.snapshot()
        assert snap["histograms"]["ga.optimality_gap"]["count"] == g["count"]
        # Without the yardstick the histogram must not exist at all.
        plain = run_one(trace, "BBSched", scale, seed=2, collect_telemetry=True)
        assert plain.optimality_gap is None
        assert "ga.optimality_gap" not in plain.telemetry.metrics.histograms

    def test_selector_exposes_gaps(self):
        rng = np.random.default_rng(21)
        window, avail = _window_and_avail(rng, w=6)
        sel = make_selector("BBSched", seed=5, generations=4, population=12,
                            yardstick=True)
        sel.bind(SystemCapacity(avail.nodes, avail.bb))
        sel.select(window, avail)
        assert len(sel.optimality_gaps) == 1
        assert sel.optimality_gaps[0] >= 0.0
        assert sel.yardstick_skipped == 0
