"""Differential tests: the fast paths change nothing but speed.

Two pure performance features are pinned here against the test-only
oracles in ``tests/oracles.py``, which must match them *byte for byte*
at every level:

* the GA's cached, bit-packed generation loop (:mod:`repro.core.evalcache`,
  vs the numpy reference loop, :func:`~tests.oracles.reference_solve`) —
  solver outputs (ParetoSet genes and objectives) across window widths
  past 64 genes, forced genes, mutation rates, fractional demands and
  every survivor rule, its cache counters, full-run fingerprints for
  every §4 method under both site policies, and runs that pass through a
  checkpoint/resume cycle;
* the array-backed engine (vectorized queue ordering, the FCFS order
  cache, the sorted release ledger, batch event pops; vs
  :class:`~tests.oracles.ReferenceEngine`) — full-run fingerprints for
  every §4 method, the ordering permutation itself under score ties, the
  exact front a pass orders, and whole runs on backlogs many times the
  window deep;
* the EASY planner's scalar shadow-time walk over that ledger (vs
  :class:`~tests.oracles.ReferenceBackfill`) — plan by plan on seeded
  random inputs.

Any divergence — an RNG draw consumed differently, a float assembled
from a different batch shape, a sort tie broken differently — shows up
here as a hard failure.
"""

import dataclasses
import math
import pickle

import numpy as np
import pytest

from repro.backfill import EasyBackfill, PlannedRelease
from repro.backfill.easy import by_est_end
from repro.checkpoint.verify import fingerprint_digest, verify_resume
from repro.core import evalcache
from repro.core.ga import MOGASolver
from repro.core.problem import SelectionProblem, SSDSelectionProblem
from repro.core.scalar import ScalarGASolver
from repro.errors import SolverError
from repro.experiments import get_scale, get_workload
from repro.experiments.runner import run_one
from repro.methods import make_selector
from repro.methods.registry import METHODS_SECTION4
from repro.policies import FCFS, WFP
from repro.policies.base import PriorityPolicy
from repro.resilience import FaultInjector, FaultScenario, RetryPolicy
from repro.simulator.cluster import Cluster
from repro.simulator.engine import SchedulingEngine
from repro.simulator.job import Job
from repro.simulator.jobtable import JobTable
from repro.telemetry import Tracer, use_tracer
from repro.windows import DynamicWindowPolicy, WindowPolicy
from tests.oracles import (
    ReferenceBackfill,
    ReferenceEngine,
    reference_paths,
    reference_solve,
)

#: Deliberately tiny: 16 method×workload fingerprint pairs run per test
#: session, each pair simulating the trace twice.  The name must stay a
#: registered scale — get_workload resolves machine shrink factors by it.
TINY = dataclasses.replace(
    get_scale("smoke"), n_jobs=60, generations=12, population=8, window=8,
)

#: One FCFS site (Cori) and one WFP site (Theta), per §4.3.
WORKLOADS = ("Cori-S1", "Theta-S2")

#: TINY's 60-job traces never build a backlog that a window cannot fit
#: whole, so every selection front is one point and the survivor order
#: never matters (reversing Set 1 in ``MOGASolver._select`` leaves every
#: TINY fingerprint unchanged).  Four times the jobs make windows contend.
CONTENDED = dataclasses.replace(get_scale("smoke"), n_jobs=240)

#: The §4 methods that run ``ScalarGASolver``.  Doubling ``generations``
#: changes all five fingerprints at CONTENDED on Cori-S1, and none at TINY
#: or on Theta-S2, so CONTENDED Cori-S1 is where their GA is exercised.
SCALAR_GA_METHODS = ("Weighted", "Weighted_BB", "Weighted_CPU",
                     "Constrained_BB", "Constrained_CPU")


def make_job(jid, nodes, bb=0.0, ssd=0.0):
    return Job(jid=jid, submit_time=0.0, runtime=10.0, walltime=10.0,
               nodes=nodes, bb=bb, ssd=ssd)


def random_selection_problem(rng):
    w = int(rng.integers(3, 12))
    demands = np.column_stack([
        rng.integers(1, 50, size=w).astype(float),
        rng.integers(0, 80, size=w).astype(float),
    ])
    return SelectionProblem(
        demands, [float(rng.integers(10, 120)), float(rng.integers(0, 150))]
    )


def wide_selection_problem(rng, w, forced=(), fractional=False):
    """A ``w``-job window whose capacities admit about a third of it."""
    nodes = rng.integers(1, 50, size=w).astype(float)
    bb = rng.uniform(0.0, 80.0, size=w) if fractional else (
        rng.integers(0, 80, size=w).astype(float))
    demands = np.column_stack([nodes, bb])
    capacities = np.maximum(demands.sum(axis=0) / 3.0,
                            demands[list(forced)].sum(axis=0))
    return SelectionProblem(demands, capacities, forced=forced)


def random_ssd_problem(rng, forced=()):
    w = int(rng.integers(3, 10))
    jobs = [
        make_job(j + 1, int(rng.integers(1, 4)),
                 bb=float(rng.integers(0, 30)),
                 ssd=float(rng.choice([0.0, 64.0, 200.0])))
        for j in range(w)
    ]
    # Forced jobs are light enough for any tier, so the forced set fits.
    for j in forced:
        jobs[j] = make_job(j + 1, 1)
    tiers = {128.0: int(rng.integers(1, 5)), 256.0: int(rng.integers(1, 5))}
    return SSDSelectionProblem(
        jobs, free_nodes=sum(tiers.values()),
        free_bb=float(rng.integers(0, 60)),
        free_tiers=tiers, forced=forced,
    )


class CountingProblem(SelectionProblem):
    """A SelectionProblem that counts the rows it is asked to evaluate."""

    rows_evaluated = 0

    def evaluate(self, population):
        self.rows_evaluated += population.shape[0]
        return super().evaluate(population)


def assert_pareto_identical(a, b):
    """Byte-level equality of two ParetoSets (genes and objectives)."""
    assert a.genes.tobytes() == b.genes.tobytes()
    assert a.objectives.tobytes() == b.objectives.tobytes()


def assert_matches_reference(make, problem):
    """A solver from ``make()`` gives the reference loop's front, byte for
    byte, when each side gets a fresh solver."""
    on = make().solve(problem)
    assert_pareto_identical(on, reference_solve(make(), problem))
    return on


class TestSolverDifferential:
    """Cached loop vs reference loop byte-identity at the solver level."""

    @pytest.mark.parametrize("selection", ["age", "crowding"])
    @pytest.mark.parametrize("trial", range(6))
    def test_moga_selection_problem(self, selection, trial):
        rng = np.random.default_rng(1000 + trial)
        problem = random_selection_problem(rng)
        seed = int(rng.integers(0, 2**31))
        kw = dict(generations=25, population=10, selection=selection)
        assert_matches_reference(lambda: MOGASolver(seed=seed, **kw), problem)

    @pytest.mark.parametrize("trial", range(6))
    def test_moga_ssd_problem(self, trial):
        rng = np.random.default_rng(2000 + trial)
        problem = random_ssd_problem(rng)
        seed = int(rng.integers(0, 2**31))
        kw = dict(generations=25, population=10)
        assert_matches_reference(lambda: MOGASolver(seed=seed, **kw), problem)

    @pytest.mark.parametrize("trial", range(4))
    def test_scalar_solver(self, trial):
        rng = np.random.default_rng(3000 + trial)
        problem = random_selection_problem(rng)
        seed = int(rng.integers(0, 2**31))
        coeffs = [1.0, 0.5]
        kw = dict(generations=25, population=10)
        assert_matches_reference(lambda: ScalarGASolver(coeffs, seed=seed, **kw),
                                 problem)

    @pytest.mark.parametrize("w", [1, 2, 20, 70])
    @pytest.mark.parametrize("mutation", [0.0, 0.05])
    def test_moga_window_widths(self, w, mutation):
        """Chromosome ints past 64 bits, and crossover without a cut."""
        rng = np.random.default_rng(5000 + w)
        problem = wide_selection_problem(rng, w)
        kw = dict(generations=20, population=10, mutation=mutation, seed=w)
        assert_matches_reference(lambda: MOGASolver(**kw), problem)

    @pytest.mark.parametrize("selection", ["age", "crowding"])
    @pytest.mark.parametrize("trial", range(3))
    def test_moga_forced_genes(self, selection, trial):
        rng = np.random.default_rng(6000 + trial)
        problem = wide_selection_problem(rng, 24, forced=(1, 7, 20))
        kw = dict(generations=25, population=10, mutation=0.05,
                  selection=selection, seed=trial)
        on = assert_matches_reference(lambda: MOGASolver(**kw), problem)
        assert on.genes[:, [1, 7, 20]].all()

    @pytest.mark.parametrize("selection", ["age", "crowding"])
    def test_moga_front_larger_than_population(self, selection):
        """Survivors truncated from an overfull Pareto set (Set 1 > P)."""
        # Nodes and BB anti-correlated: many selections trade one for the other.
        nodes = np.arange(1.0, 21.0)
        demands = np.column_stack([nodes, 21.0 - nodes])
        problem = SelectionProblem(demands, [60.0, 60.0])
        kw = dict(generations=20, population=4, mutation=0.05,
                  selection=selection, seed=3)
        assert_matches_reference(lambda: MOGASolver(**kw), problem)

    @pytest.mark.parametrize("trial", range(4))
    def test_moga_ssd_forced_genes(self, trial):
        rng = np.random.default_rng(7000 + trial)
        problem = random_ssd_problem(rng, forced=(0, 2))
        kw = dict(generations=25, population=10, mutation=0.05, seed=trial)
        assert_matches_reference(lambda: MOGASolver(**kw), problem)

    @pytest.mark.parametrize("trial", range(4))
    def test_moga_fractional_demands(self, trial):
        rng = np.random.default_rng(8000 + trial)
        problem = wide_selection_problem(rng, 20, fractional=True)
        kw = dict(generations=25, population=10, mutation=0.05, seed=trial)
        assert_matches_reference(lambda: MOGASolver(**kw), problem)

    @pytest.mark.parametrize("trial", range(3))
    def test_scalar_solver_forced_genes(self, trial):
        rng = np.random.default_rng(9000 + trial)
        problem = wide_selection_problem(rng, 20, forced=(0, 5))
        kw = dict(generations=25, population=10, mutation=0.05, seed=trial)
        assert_matches_reference(lambda: ScalarGASolver([0.3, 1.0], **kw),
                                 problem)

    @pytest.mark.parametrize("trial", range(3))
    def test_scalar_solver_ssd_problem(self, trial):
        """Four objectives: the fitness dot product over the same rows."""
        rng = np.random.default_rng(9500 + trial)
        problem = random_ssd_problem(rng, forced=(1,))
        coeffs = [1.0, 0.01, 0.002, 0.5]
        kw = dict(generations=25, population=10, mutation=0.05, seed=trial)
        assert_matches_reference(lambda: ScalarGASolver(coeffs, **kw),
                                 problem)

    @pytest.mark.parametrize("make", [
        lambda kw: MOGASolver(**kw),
        lambda kw: MOGASolver(selection="crowding", **kw),
        lambda kw: ScalarGASolver([1.0, 0.5], **kw),
    ], ids=["age", "crowding", "scalar"])
    @pytest.mark.parametrize("generations", [0, 1, 12])
    def test_shared_stream_ends_where_reference_ends(self, make, generations):
        """One generator threaded through many solves, as the selector does:
        each solve leaves the stream exactly where the reference leaves it,
        so the last survivor padding is drawn even though no generation
        follows it."""
        rng = np.random.default_rng(12)
        problems = [random_selection_problem(rng) for _ in range(4)]
        kw = dict(generations=generations, population=7, mutation=0.05)
        stream, ref_stream = np.random.default_rng(99), np.random.default_rng(99)
        for problem in problems:
            on = make(kw).solve(problem, seed=stream)
            off = reference_solve(make(kw), problem, seed=ref_stream)
            assert_pareto_identical(on, off)
            assert stream.bit_generator.state == ref_stream.bit_generator.state

    def test_scalar_solver_rejects_wrong_objective_count(self):
        problem = wide_selection_problem(np.random.default_rng(1), 6)
        solver = ScalarGASolver([1.0], generations=2, population=4, seed=0)
        with pytest.raises(SolverError):
            solver.solve(problem)
        with pytest.raises(SolverError):
            reference_solve(solver, problem)

    def test_fine_tracing_changes_nothing(self):
        rng = np.random.default_rng(10)
        problem = wide_selection_problem(rng, 20, forced=(3,))
        kw = dict(generations=15, population=10, mutation=0.05, seed=4)
        tracer = Tracer(fine=True)
        with use_tracer(tracer):
            on = MOGASolver(**kw).solve(problem)
        assert_pareto_identical(on, reference_solve(MOGASolver(**kw), problem))
        assert sum(s.name == "ga_generation" for s in tracer.spans) == 15

    def test_cache_actually_engages(self):
        """The cached loop must really memoize, or these tests prove nothing."""
        problem = random_selection_problem(np.random.default_rng(7))
        solver = MOGASolver(generations=30, population=10, seed=42)
        solver.solve(problem)
        assert solver.eval_cache_stats["hits"] > 0

    def test_tiny_capacity_still_identical(self, monkeypatch):
        """Evictions cost re-evaluation, never correctness."""
        # Wide window + hot mutation: enough distinct chromosomes to
        # overflow a 4-entry store many times over.
        rng = np.random.default_rng(11)
        demands = np.column_stack([
            rng.integers(1, 20, size=14).astype(float),
            rng.integers(0, 30, size=14).astype(float),
        ])
        problem = SelectionProblem(demands, [60.0, 90.0])
        kw = dict(generations=30, population=10, mutation=0.05, seed=42)
        monkeypatch.setattr(evalcache, "DEFAULT_EVAL_CACHE_CAPACITY", 4)
        small = MOGASolver(**kw)
        off = reference_solve(MOGASolver(**kw), problem)
        assert_pareto_identical(small.solve(problem), off)
        assert small.eval_cache_stats["evictions"] > 0


class TestCacheCounters:
    """The ``ga.eval_cache.*`` counters feed perfbench's hit ratio, so
    their meaning is pinned: a miss is a row the problem evaluated."""

    @staticmethod
    def _problem():
        rng = np.random.default_rng(11)
        demands = np.column_stack([
            rng.integers(1, 20, size=14).astype(float),
            rng.integers(0, 30, size=14).astype(float),
        ])
        return CountingProblem(demands, [60.0, 90.0])

    @pytest.mark.parametrize("generations", [0, 1, 30])
    def test_misses_are_evaluated_rows(self, generations):
        problem = self._problem()
        solver = MOGASolver(generations=generations, population=10,
                            mutation=0.05, seed=42)
        solver.solve(problem)
        stats = solver.eval_cache_stats
        assert stats["misses"] == problem.rows_evaluated > 0
        # Every pooled row is a hit, a miss or a batch duplicate: 2P rows
        # a generation (the first pools the initial population), then the
        # final population.
        pooled = 20 * generations + 10
        assert stats["hits"] + stats["misses"] + stats["deduped"] == pooled

    def test_counters_pinned(self):
        """Values recorded from the numpy-keyed cache this loop replaced."""
        solver = MOGASolver(generations=30, population=10, mutation=0.05,
                            seed=42)
        solver.solve(self._problem())
        assert solver.eval_cache_stats == {
            "hits": 402, "misses": 200, "deduped": 8, "evictions": 0,
        }


class TestFusedGeneration:
    """The cached loop's one-pass generation against the reference loop.

    Each case threads one stream through several solves, so a draw the
    cached loop takes or skips out of turn shows in the stream's end state
    as well as in the fronts.  The cases are the shapes the generation
    treats specially: forced genes, both survivor rules and the scalar
    override of ``_select``, a window without a cut, odd ``P``, a
    population that collapses to one chromosome (``P - 1`` pads every
    generation), and the four-objective problem.
    """

    CASES = {
        "forced": (lambda kw: MOGASolver(**kw),
                   lambda rng: wide_selection_problem(rng, 24, forced=(1, 7, 20))),
        "crowding": (lambda kw: MOGASolver(selection="crowding", **kw),
                     lambda rng: wide_selection_problem(rng, 16)),
        "scalar": (lambda kw: ScalarGASolver([0.3, 1.0], **kw),
                   lambda rng: wide_selection_problem(rng, 16, forced=(2,))),
        "w1": (lambda kw: MOGASolver(**kw),
               lambda rng: wide_selection_problem(rng, 1)),
        "odd-P": (lambda kw: MOGASolver(**{**kw, "population": 7}),
                  random_selection_problem),
        "collapse": (lambda kw: MOGASolver(**kw),
                     lambda rng: SelectionProblem(
                         rng.integers(1, 9, size=(10, 2)).astype(float), [0.0, 0.0])),
        "ssd": (lambda kw: MOGASolver(**kw),
                lambda rng: random_ssd_problem(rng, forced=(0,))),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_reference(self, case):
        make, build = self.CASES[case]
        rng = np.random.default_rng(sorted(self.CASES).index(case))
        kw = dict(generations=20, population=10, mutation=0.05)
        stream, ref_stream = np.random.default_rng(77), np.random.default_rng(77)
        for _ in range(4):
            problem = build(rng)
            on = make(kw).solve(problem, seed=stream)
            off = reference_solve(make(kw), problem, seed=ref_stream)
            assert_pareto_identical(on, off)
            assert stream.bit_generator.state == ref_stream.bit_generator.state
            if case == "collapse":
                assert on.genes.tolist() == [[0] * 10]


def _digests(workload, method, scale=TINY, **oracles):
    """Fingerprint digests of one run in production and on oracles."""
    on = run_one(get_workload(workload, scale), method, scale)
    with reference_paths(**oracles):
        off = run_one(get_workload(workload, scale), method, scale)
    return fingerprint_digest(on), fingerprint_digest(off)


class TestRunDifferential:
    """Cached vs reference GA loop fingerprint identity, every §4 method."""

    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("method", METHODS_SECTION4)
    def test_fingerprints_identical(self, method, workload):
        on, off = _digests(workload, method, engine=False)
        assert on == off


    @pytest.mark.parametrize("workload", ("Cori-S1", "Theta-S2", "Theta-S4"))
    def test_contended_bbsched_fingerprints_identical(self, workload):
        """BBSched's multi-objective fronts, with more than one member."""
        on, off = _digests(workload, "BBSched", CONTENDED, engine=False)
        assert on == off

    @pytest.mark.parametrize("method", SCALAR_GA_METHODS)
    def test_contended_scalar_fingerprints_identical(self, method):
        """The scalarised GA methods, whose survivor choice TINY never reaches."""
        on, off = _digests("Cori-S1", method, CONTENDED, engine=False)
        assert on == off


class TestFastEngineDifferential:
    """Engine vs reference-engine fingerprint identity, every §4 method."""

    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("method", METHODS_SECTION4)
    def test_fingerprints_identical(self, method, workload):
        fast, ref = _digests(workload, method, ga=False)
        assert fast == ref

    def test_both_fast_paths_off_matches_both_on(self):
        """The two oracles compose: both at once still match."""
        on, off = _digests("Theta-S2", "BBSched")
        assert on == off


class TestOracleWiring:
    """``reference_paths`` really routes a run through the oracles, or the
    run-level differentials above compare production with itself."""

    @staticmethod
    def _counters(**oracles):
        trace = get_workload("Cori-S1", TINY)  # FCFS: every pass table-ordered
        with reference_paths(**oracles):
            result = run_one(trace, "BBSched", TINY, collect_telemetry=True)
        return {name: c.value for name, c in result.telemetry.metrics.counters.items()}

    def test_production_uses_cache_and_table_order(self):
        counters = self._counters(ga=False, engine=False)
        assert counters["ga.eval_cache.misses"] > 0
        assert counters["ga.eval_cache.hits"] > 0
        assert counters["engine.order.vectorized"] > 0
        assert counters["engine.order.cache_hits"] > 0
        assert counters.get("engine.order.fallback", 0) == 0

    def test_reference_engine_plans_with_the_reference_backfill(self):
        engine = ReferenceEngine(Cluster(nodes=8, bb_capacity=10.0), FCFS(),
                                 make_selector("Baseline"), backfill=EasyBackfill())
        assert isinstance(engine.backfill, ReferenceBackfill)

    def test_oracles_bypass_cache_and_table_order(self):
        counters = self._counters()
        assert counters.get("ga.eval_cache.misses", 0) == 0
        assert counters.get("engine.order.vectorized", 0) == 0
        assert counters.get("engine.order.cache_hits", 0) == 0
        assert counters["engine.jobs_started"] > 0


class _ModuloPolicy(PriorityPolicy):
    """Custom policy without priority_array: exercises the per-job
    fallback inside the vectorized path, with heavy score ties."""

    name = "modulo"

    def priority(self, job, now):
        return float(job.nodes % 3)


class TestOrderDifferential:
    """The lexsort ordering equals the reference tuple sort, ties included."""

    @staticmethod
    def _tied_jobs(rng, n):
        # Coarse value pools force collisions in every key component the
        # policies score on: FCFS ties on submit_time, WFP additionally on
        # walltime/nodes; jid stays the unique total-order tie-breaker.
        return [
            Job(
                jid=i + 1,
                submit_time=float(rng.choice([0.0, 10.0, 20.0, 30.0])),
                runtime=5.0,
                walltime=float(rng.choice([10.0, 40.0])),
                nodes=int(rng.integers(1, 5)),
                bb=float(rng.choice([0.0, 8.0])),
                ssd=0.0,
            )
            for i in range(n)
        ]

    @pytest.mark.parametrize("policy_cls", [FCFS, WFP, _ModuloPolicy])
    @pytest.mark.parametrize("trial", range(8))
    def test_vectorized_order_matches_reference(self, policy_cls, trial):
        rng = np.random.default_rng(4000 + trial)
        n = int(rng.integers(2, 40))
        jobs = self._tied_jobs(rng, n)
        table = JobTable(jobs)
        # The engine orders arbitrary sub-queues of the full table.
        sub = rng.permutation(n)[: max(2, int(rng.integers(2, n + 1)))]
        queue = [jobs[i] for i in sub]
        policy = policy_cls()
        now = float(rng.choice([15.0, 35.0, 1000.0]))
        ref = policy.order(queue, now)
        vec = policy.order(queue, now, table=table)
        assert [j.jid for j in vec] == [j.jid for j in ref]

    def test_all_scores_tied_falls_back_to_submit_then_jid(self):
        jobs = [
            Job(jid=j, submit_time=5.0, runtime=1.0, walltime=10.0, nodes=2)
            for j in (3, 1, 2)
        ]
        table = JobTable(jobs)
        ordered = _ModuloPolicy().order(jobs, 100.0, table=table)
        assert [j.jid for j in ordered] == [1, 2, 3]


class TestOrderPrefix:
    """``order_prefix`` is exactly the front of the full ordering."""

    @pytest.mark.parametrize("policy_cls", [FCFS, WFP, _ModuloPolicy])
    @pytest.mark.parametrize("trial", range(6))
    def test_prefix_equals_order_front(self, policy_cls, trial):
        rng = np.random.default_rng(5000 + trial)
        n = int(rng.integers(12, 60))
        jobs = TestOrderDifferential._tied_jobs(rng, n)
        table = JobTable(jobs)
        sub = np.sort(rng.permutation(n)[: int(rng.integers(10, n + 1))])
        queue = [jobs[i] for i in sub]
        policy = policy_cls()
        now = float(rng.choice([15.0, 35.0, 1000.0]))
        full = [j.jid for j in policy.order(queue, now)]
        w = 8
        for k in (1, w, len(queue) - 1, len(queue), len(queue) + 5):
            got = policy.order_prefix(table, sub, now, k)
            assert [j.jid for j in got] == full[:k], k
            # Row order is irrelevant: the key is total.
            got = policy.order_prefix(table, sub[::-1].copy(), now, k)
            assert [j.jid for j in got] == full[:k], k

    @staticmethod
    def _wfp_job(jid, walltime, nodes):
        return Job(jid=jid, submit_time=0.0, runtime=1.0, walltime=walltime,
                   nodes=nodes)

    def test_wfp_scores_one_ulp_apart_at_the_cut(self):
        now, policy = 1000.0, WFP()
        lo = self._wfp_job(1, 629.9605249476363, 2)
        hi = self._wfp_job(2, 500.0000000001584, 1)
        assert math.nextafter(policy.priority(lo, now), math.inf) == (
            policy.priority(hi, now))
        leaders = [self._wfp_job(10 + i, 100.0 + i, 1) for i in range(5)]
        tail = [self._wfp_job(20 + i, 900.0 + i, 1) for i in range(5)]
        # The near-tie pair straddles the cut in both input orders.
        for jobs in (leaders + [lo, hi] + tail, tail + [hi, lo] + leaders):
            table = JobTable(jobs)
            rows = np.arange(len(jobs))
            full = [j.jid for j in policy.order(jobs, now)]
            assert full.index(2) == 5 and full.index(1) == 6
            for k in (5, 6, 7, 8):
                got = policy.order_prefix(table, rows, now, k)
                assert [j.jid for j in got] == full[:k], k

    def test_wfp_all_scores_zero(self):
        # Every job was just submitted: all scores are 0 and the order is
        # (submit_time, jid); the estimate cannot pick candidates.
        rng = np.random.default_rng(7)
        jobs = [
            Job(jid=int(j), submit_time=float(rng.choice([50.0, 80.0])),
                runtime=1.0, walltime=float(rng.choice([10.0, 40.0])),
                nodes=int(rng.integers(1, 5)))
            for j in rng.permutation(np.arange(1, 41))
        ]
        table = JobTable(jobs)
        rows = np.arange(len(jobs))
        policy = WFP()
        full = [j.jid for j in policy.order(jobs, 50.0)]
        for k in (1, 8, 39, 40, 45):
            got = policy.order_prefix(table, rows, 50.0, k)
            assert [j.jid for j in got] == full[:k], k


#: SSD tiers (GB per node) of the single- and multi-tier planning pools.
PLAN_TIERS = {"single": (0.0,), "multi": (64.0, 128.0, 256.0)}


def _random_plan(rng, tiers):
    """One seeded ``plan`` call: a queue, the free pool, the running jobs'
    releases in start order, and ``now``.

    Release ends come from a few values (ties) and some lie before
    ``now`` (overruns).  Burst buffer is in tenths of a GB, so the
    shadow time depends on the exact left fold of the releases; every
    third call sets the blocked head's request to that fold at a random
    release.  Queue heads small enough to start come first about half the
    time, and some heads ask for more than the machine has.
    """
    now = 1000.0
    tier_choice = np.asarray(tiers)
    free_tiers = {float(c): int(rng.integers(0, 4)) for c in tiers
                  if rng.random() < 0.8}
    free_bb = float(rng.integers(0, 30)) / 10.0
    ends = now + rng.choice([-50.0, 0.0, 100.0, 250.0, 400.0], size=4)
    releases = []
    for _ in range(int(rng.integers(0, 12))):
        held = rng.choice(tier_choice, size=int(rng.integers(1, len(tiers) + 1)),
                          replace=False)
        releases.append(PlannedRelease(
            est_end=float(rng.choice(ends)),
            bb=float(rng.integers(0, 40)) / 10.0,
            nodes_by_tier={float(c): int(rng.integers(1, 4)) for c in held},
        ))
    jid = iter(range(1, 100))

    def job(nodes, bb, ssd):
        walltime = float(rng.choice([50.0, 100.0, 250.0, 300.0, 900.0]))
        return Job(jid=next(jid), submit_time=0.0, runtime=walltime,
                   walltime=walltime, nodes=int(nodes), bb=float(bb), ssd=float(ssd))

    def ssd():
        return float(rng.choice(tier_choice)) if rng.random() < 0.7 else 0.0

    queue = []
    if rng.random() < 0.5:
        queue += [job(1, 0.0, 0.0) for _ in range(int(rng.integers(1, 3)))]
    head_nodes = int(rng.integers(1, 12))
    head_bb = float(rng.integers(0, 60)) / 10.0
    ordered = sorted(releases, key=by_est_end)
    if ordered and rng.random() < 1 / 3:
        # A request the fold reaches exactly at one release.
        stop = int(rng.integers(0, len(ordered)))
        head_bb = free_bb
        for release in ordered[:stop + 1]:
            head_bb += release.bb
    if rng.random() < 0.1:
        head_nodes = 99  # never fits
    queue.append(job(head_nodes, head_bb, ssd()))
    queue += [job(rng.integers(1, 6), rng.integers(0, 20) / 10.0, ssd())
              for _ in range(int(rng.integers(0, 10)))]
    return queue, free_bb, free_tiers, releases, now


class TestPlanDifferential:
    """``EasyBackfill.plan`` on the sorted ledger vs :class:`ReferenceBackfill`
    on the same releases in start order, call by call."""

    @pytest.mark.parametrize("tiers", sorted(PLAN_TIERS))
    def test_matches_reference(self, tiers):
        rng = np.random.default_rng(7 if tiers == "single" else 11)
        seen = dict.fromkeys(("started_heads", "overrun", "tie", "unsatisfiable",
                              "exact_bb", "extra"), 0)
        for _ in range(3000):
            queue, free_bb, free_tiers, releases, now = _random_plan(
                rng, PLAN_TIERS[tiers])
            ledger = sorted(releases, key=by_est_end)
            fast = EasyBackfill().plan(queue, free_bb, free_tiers, ledger, now)
            ref = ReferenceBackfill().plan(queue, free_bb, free_tiers, releases, now)
            assert [j.jid for j in fast.to_start] == [j.jid for j in ref.to_start]
            assert fast.shadow_time == ref.shadow_time
            ends = [r.est_end for r in ledger]
            head = next((j for j in queue if j not in fast.to_start), None)
            seen["started_heads"] += (head is not None and bool(fast.to_start)
                                      and fast.to_start[0] is queue[0])
            seen["overrun"] += fast.shadow_time == now + 1e-6
            seen["tie"] += len(set(ends)) < len(ends)
            seen["unsatisfiable"] += head is not None and head.nodes == 99
            fold = free_bb
            for release in ledger:
                if head is None or fast.shadow_time is None:
                    break
                fold += release.bb
                seen["exact_bb"] += head.bb == fold
            seen["extra"] += any(now + j.walltime > fast.shadow_time
                                 for j in fast.to_start[1:]
                                 if fast.shadow_time is not None)
        assert min(seen.values()) >= 20, seen

    def test_ledger_is_not_modified(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            queue, free_bb, free_tiers, releases, now = _random_plan(
                rng, PLAN_TIERS["multi"])
            ledger = sorted(releases, key=by_est_end)
            before = list(ledger)
            EasyBackfill().plan(queue, free_bb, free_tiers, ledger, now)
            assert len(ledger) == len(before)
            assert all(a is b for a, b in zip(ledger, before))


class _SawtoothWindow(WindowPolicy):
    """Window size that *grows* as the queue shrinks past odd lengths —
    the front the engine orders must then be re-read for backfill."""

    def scope_size(self, eligible_count):
        return 3 if eligible_count % 2 == 0 else 12


def _deep_backlog(seed, n=520, deps=False, ties=False):
    """``n`` jobs arriving far faster than a 64-node machine drains them,
    so the queue holds hundreds of jobs, many times the window.

    ``ties`` rounds every walltime up to a multiple of 300 s, so jobs
    started in one pass often share an estimated end (the release
    ledger's tie order then decides the extra pool's contents).
    """
    rng = np.random.default_rng(seed)
    jobs = []
    for i in range(n):
        runtime = float(rng.integers(50, 1500))
        dep = ()
        if deps and i > 10 and rng.random() < 0.2:
            dep = tuple(int(d) for d in rng.integers(1, i + 1, size=2))
        submit = float(rng.integers(0, 400) * 10)
        walltime = runtime * float(rng.choice([1.0, 1.5, 3.0]))
        if ties:
            walltime = 300.0 * math.ceil(walltime / 300.0)
        jobs.append(Job(
            jid=i + 1,
            submit_time=submit,
            runtime=runtime,
            walltime=walltime,
            nodes=int(rng.integers(1, 33)),
            bb=float(rng.choice([0.0, 0.0, 10.0, 40.0])),
            deps=frozenset(dep),
        ))
    return jobs


def _simulate(jobs, engine_cls, policy, window, scope="window", faults=None,
              retry=None, method="Baseline"):
    engine = engine_cls(
        Cluster(nodes=64, bb_capacity=200.0), policy, make_selector(method),
        window, backfill=EasyBackfill(), backfill_scope=scope,
        faults=FaultInjector(faults) if faults is not None else None,
        retry=retry,
    )
    return engine, engine.run(jobs)


def _outcome(result):
    stats = dataclasses.asdict(result.stats)
    del stats["selector_time"]  # wall clock
    return stats, [
        (j.jid, j.state.name, j.start_time, j.end_time, j.attempts,
         j.window_age) for j in result.jobs
    ]


class TestDeepQueueDifferential:
    """Engine vs reference engine on backlogs far deeper than the window.

    The engine orders only the queue front a pass reads, so these
    runs keep the queue at hundreds of jobs: a window or backfill scope
    sized from the front's length instead of the eligible count diverges
    here (the §4 fingerprints above never queue that deep).
    """

    CASES = {
        "dynamic-fcfs": dict(policy=FCFS, window=lambda: DynamicWindowPolicy()),
        "dynamic-wfp": dict(policy=WFP, window=lambda: DynamicWindowPolicy(),
                            method="Bin_Packing"),
        "queue-scope-wfp": dict(policy=WFP, window=lambda: WindowPolicy(size=10),
                                scope="queue"),
        "deps-wfp": dict(policy=WFP, window=lambda: DynamicWindowPolicy(),
                         deps=True),
        "faults-fcfs": dict(
            policy=FCFS, window=lambda: DynamicWindowPolicy(),
            faults=FaultScenario(seed=3, node_mtbf=900.0, node_mttr=600.0,
                                 nodes_per_failure=4, job_mtbf=700.0),
            retry=RetryPolicy(max_attempts=2, backoff=120.0)),
        "faults-deps-wfp": dict(
            policy=WFP, window=lambda: WindowPolicy(size=10), deps=True,
            faults=FaultScenario(seed=8, node_mtbf=700.0, node_mttr=600.0,
                                 nodes_per_failure=6, job_mtbf=500.0),
            retry=RetryPolicy(max_attempts=1, backoff=60.0)),
        "sawtooth-window-fcfs": dict(policy=FCFS, window=_SawtoothWindow),
        "walltime-ties-fcfs": dict(policy=FCFS, window=lambda: DynamicWindowPolicy(),
                                   ties=True),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_fast_matches_reference(self, case):
        spec = dict(self.CASES[case])
        deps, ties = spec.pop("deps", False), spec.pop("ties", False)
        policy, window = spec.pop("policy"), spec.pop("window")
        seed = sorted(self.CASES).index(case)
        runs = [
            _simulate(_deep_backlog(seed, deps=deps, ties=ties), engine_cls, policy(),
                      window(), **spec)
            for engine_cls in (SchedulingEngine, ReferenceEngine)
        ]
        (engine, fast), (_, ref) = runs
        assert engine.metrics.gauge("engine.queue_depth").max > 300
        assert _outcome(fast) == _outcome(ref)
        if "faults" in spec:
            assert fast.stats.requeued_jobs > 0
        if case == "faults-deps-wfp":
            assert fast.stats.abandoned_jobs > 0


class _LedgerCheck:
    """A checkpointer stand-in that checks the engine's release ledger at
    every batch boundary and pickles the engine once, at batch ``snap_at``."""

    def __init__(self, snap_at):
        self.batches = 0
        self.ties = 0
        self.snap_at = snap_at
        self.blob = None
        self.ledger_at_snap = None

    def after_batch(self, engine):
        self.batches += 1
        ledger = engine._ledger
        rebuilt = sorted(engine._release_map.values(), key=by_est_end)
        assert len(ledger) == len(rebuilt) == len(engine._running)
        assert all(a is b for a, b in zip(ledger, rebuilt))
        self.ties += sum(a.est_end == b.est_end for a, b in zip(ledger, ledger[1:]))
        # Snapshot where start order is not est_end order, so a resume
        # that skipped the sort would show.
        if (self.blob is None and self.snap_at is not None
                and self.batches >= self.snap_at
                and ledger != list(engine._release_map.values())):
            self.blob = pickle.dumps(engine)
            self.ledger_at_snap = list(ledger)


class TestReleaseLedger:
    """The engine's sorted release ledger is derived state: after every
    pass it equals the stable ``est_end`` sort of ``_release_map``, and a
    snapshot drops it and rebuilds it."""

    FAULTS = FaultScenario(seed=8, node_mtbf=700.0, node_mttr=600.0,
                           nodes_per_failure=6, job_mtbf=500.0)

    def _run(self, check):
        engine = SchedulingEngine(
            Cluster(nodes=64, bb_capacity=200.0), WFP(), make_selector("Baseline"),
            WindowPolicy(size=10), backfill=EasyBackfill(),
            faults=FaultInjector(self.FAULTS),
            retry=RetryPolicy(max_attempts=1, backoff=60.0),
        )
        return engine.run(_deep_backlog(5, deps=True, ties=True), checkpointer=check)

    def test_ledger_tracks_kills_requeues_and_abandonment(self):
        check = _LedgerCheck(snap_at=None)
        stats = self._run(check).stats
        assert check.batches > 1000 and check.ties > 100
        assert stats.node_failures > 0 and stats.killed_jobs > stats.job_faults
        assert stats.requeued_jobs > 0 and stats.abandoned_jobs > 0

    def test_snapshot_drops_ledger_and_resumes_identically(self):
        check = _LedgerCheck(snap_at=700)
        uninterrupted = self._run(check)
        restored = pickle.loads(check.blob)
        assert restored._ledger == check.ledger_at_snap
        assert "_ledger" not in restored.__getstate__()
        assert _outcome(restored.continue_run()) == _outcome(uninterrupted)


class TestResumeDifferential:
    """The cache survives a checkpoint/resume cycle without divergence.

    The memo store is dropped on pickling (``MOGASolver.__getstate__``)
    and rebuilt lazily, so a resumed run re-warms it mid-trace — the
    riskiest path for a stale-entry bug.
    """

    def test_resume_with_cache_matches_no_cache_reference(self, tmp_path):
        workload, method = "Theta-S2", "BBSched"
        # verify_resume asserts uninterrupted == interrupted+resumed, all
        # three runs on the cached loop.
        report = verify_resume(
            get_workload(workload, TINY), method, TINY,
            stop_fraction=0.5, workdir=str(tmp_path),
        )
        # The shared digest must also equal the reference loop's.
        with reference_paths(engine=False):
            off = run_one(get_workload(workload, TINY), method, TINY)
        assert report.digest == fingerprint_digest(off)
