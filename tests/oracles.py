"""Test-only oracles: the plain implementations the fast paths in ``src/``
are pinned to, byte for byte.

Each oracle is the straightforward version of a production mechanism
that a faster one replaced.  The differential tests run both and compare
them, so no pinned golden value has to stand in for a live reference.

* :func:`reference_solve` stands for the GA's cached loop
  (:meth:`repro.core.ga.MOGASolver.solve`): the §3.2.2 generation as numpy
  calls on a ``(P, w)`` uint8 matrix that evaluates every pooled row, with
  no packed ints and no evaluation memo.
* :class:`ReferenceEngine` stands for the simulator's array-backed
  shortcuts (:class:`repro.simulator.engine.SchedulingEngine`): a
  peek/pop event loop, a full tuple-sort ordering every pass, planned
  releases rebuilt from the running jobs, and the eligibility filter run
  on every pass.  It plans backfill with :class:`ReferenceBackfill`.
* :class:`ReferenceBackfill` stands for the EASY planner
  (:class:`repro.backfill.EasyBackfill`): it takes the releases in any
  order, sorts a copy every pass, and finds the shadow time by adding
  each release to a pool and testing the head against it.
* :class:`ReferenceStepSeries` stands for the recorder's numpy step
  series (:class:`repro.simulator.recorder.StepSeries`): plain lists and
  a ``math.fsum`` integral.
* :func:`reference_paths` routes whole runs (``run_one``) through the GA
  and engine oracles.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from contextlib import ExitStack, contextmanager
from operator import attrgetter
from typing import Iterator, List, Optional, Tuple
from unittest.mock import patch

import numpy as np

from repro.backfill import BackfillPlan, EasyBackfill, PlannedRelease
from repro.backfill.easy import _OVERRUN_EPSILON, _Pool
from repro.core.ga import MOGASolver, ParetoSet, crowding_distance
from repro.core.pareto import non_dominated_mask, unique_front
from repro.core.problem import MOOProblem
from repro.core.scalar import ScalarGASolver
from repro.errors import ConfigurationError
from repro.experiments import runner
from repro.rng import SeedLike, make_rng
from repro.simulator.engine import SchedulingEngine
from repro.simulator.events import Event, EventQueue
from repro.simulator.job import Job
from repro.telemetry import NULL_SPAN, get_tracer

# --- GA: numpy operators on a (P, w) uint8 matrix ------------------------------


def _crossover(parents: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Single-point crossover of random parent pairs → ``P`` children."""
    P, w = parents.shape
    pairs = (P + 1) // 2
    mothers = parents[rng.integers(0, P, size=pairs)]
    fathers = parents[rng.integers(0, P, size=pairs)]
    if w < 2:
        children = np.concatenate([mothers, fathers])[:P]
        return np.ascontiguousarray(children)
    cuts = rng.integers(1, w, size=pairs)  # cut in [1, w-1]
    positions = np.arange(w)
    left = positions[None, :] < cuts[:, None]  # (pairs, w)
    child_a = np.where(left, mothers, fathers)
    child_b = np.where(left, fathers, mothers)
    children = np.concatenate([child_a, child_b])[:P]
    return np.ascontiguousarray(children.astype(np.uint8))


def _mutate(solver, children: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Independent per-gene bit flips with probability ``p_m``."""
    if solver.mutation == 0.0:
        return children
    flips = rng.random(children.shape) < solver.mutation
    children ^= flips.astype(np.uint8)
    return children


def _dedup_youngest(genes: np.ndarray, ages: np.ndarray) -> np.ndarray:
    """Indices keeping the youngest copy of each distinct chromosome.

    Identical genes are one *solution*, and without dedup the Pareto
    set floods with clones of a single point, which freezes the
    crossover gene pool and stalls exploration.  Returns the kept
    rows in age-sorted (stable) order.
    """
    order = np.lexsort((ages,))
    rows = np.ascontiguousarray(genes[order])
    voided = rows.view([("", rows.dtype)] * rows.shape[1]).ravel()
    _, first = np.unique(voided, return_index=True)
    return order[np.sort(first)]


def _survivors(
    solver,
    genes: np.ndarray,
    objectives: np.ndarray,
    ages: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Survival selection → indices (into the pool) of the next generation.

    Duplicate chromosomes are collapsed first (keeping the youngest
    copy, see :func:`_dedup_youngest`).  If fewer than ``P`` unique
    chromosomes exist, the survivors are recycled to keep the
    population size constant.
    """
    if isinstance(solver, ScalarGASolver):
        return _scalar_survivors(solver, genes, objectives, ages, rng)
    P = solver.population
    keep_idx = _dedup_youngest(genes, ages)
    objectives = objectives[keep_idx]
    ages = ages[keep_idx]
    pareto = non_dominated_mask(objectives)
    set1 = np.flatnonzero(pareto)
    set2 = np.flatnonzero(~pareto)
    if solver.selection == "crowding":
        # Ablation: rank by (front, -crowding) like NSGA-II truncation.
        if set1.size >= P:
            dist = crowding_distance(objectives[set1])
            keep = set1[np.argsort(-dist, kind="stable")[:P]]
        else:
            dist2 = crowding_distance(objectives[set2]) if set2.size else np.zeros(0)
            filler = set2[np.argsort(-dist2, kind="stable")[: P - set1.size]]
            keep = np.concatenate([set1, filler])
    else:
        # Paper scheme: Set 1 passes; newer (lower age) wins everywhere.
        if set1.size >= P:
            keep = set1[np.argsort(ages[set1], kind="stable")[:P]]
        else:
            filler = set2[np.argsort(ages[set2], kind="stable")[: P - set1.size]]
            keep = np.concatenate([set1, filler])
    if keep.size < P:
        # Fewer unique chromosomes than P: recycle survivors (sampled
        # with replacement) so the population size stays constant.
        pad = rng.integers(0, keep.size, size=P - keep.size)
        keep = np.concatenate([keep, keep[pad]])
    return keep_idx[keep]


def _scalar_survivors(solver, genes, objectives, ages, rng):
    """Keep the ``P`` fittest *unique* chromosomes (pool indices).

    Duplicates are collapsed (youngest copy kept) for the same reason
    as in :func:`_survivors`: clones freeze the crossover gene pool.
    Newer chromosomes win fitness ties.
    """
    solver._check_objectives(objectives.shape[1])
    idx = _dedup_youngest(genes, ages)
    fitness = objectives[idx] @ solver.coeffs
    order = np.lexsort((ages[idx], -fitness))
    keep = order[: solver.population]
    if keep.size < solver.population:
        pad = rng.integers(0, keep.size, size=solver.population - keep.size)
        keep = np.concatenate([keep, keep[pad]])
    return idx[keep]


def _evolve_once(
    solver,
    problem: MOOProblem,
    genes: np.ndarray,
    ages: np.ndarray,
    forced: list,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """One reference generation: crossover → mutate → repair → selection."""
    children = _crossover(genes, rng)
    children = _mutate(solver, children, rng)
    if forced:
        children[:, forced] = 1
    children = problem.repair(children, rng)
    pool_genes = np.concatenate([genes, children])
    pool_ages = np.concatenate(
        [ages + 1, np.zeros(children.shape[0], dtype=np.int64)]
    )
    pool_obj = problem.evaluate(pool_genes)
    keep = _survivors(solver, pool_genes, pool_obj, pool_ages, rng)
    return pool_genes[keep], pool_ages[keep]


def _solve_reference(
    solver, problem: MOOProblem, rng: np.random.Generator, tracer
) -> Tuple[np.ndarray, np.ndarray]:
    """Unique Pareto rows of the final population, evaluating everything."""
    genes = problem.random_population(solver.population, rng)
    forced = list(problem.forced)
    if solver.seed_greedy:
        seeds = problem.greedy_chromosomes()
        if seeds.shape[0]:
            if forced:
                seeds = seeds.copy()
                seeds[:, forced] = 1
            seeds = problem.repair(seeds, rng)
            k = min(seeds.shape[0], solver.population)
            genes[:k] = seeds[:k]
    ages = np.zeros(solver.population, dtype=np.int64)
    for gen in range(solver.generations):
        with tracer.span("ga_generation", gen=gen) if tracer.fine else NULL_SPAN:
            genes, ages = _evolve_once(solver, problem, genes, ages, forced, rng)
    objectives = problem.evaluate(genes)
    front = non_dominated_mask(objectives)
    return unique_front(genes[front], objectives[front])


def reference_solve(
    solver: MOGASolver, problem: MOOProblem, seed: SeedLike = None
) -> ParetoSet:
    """``solver.solve(problem, seed)`` on the numpy reference loop.

    Reads only the solver's parameters (``G``, ``P``, ``p_m``, survivor
    rule, greedy seeding, seed; the coefficients of a
    :class:`ScalarGASolver`), so one solver object can serve both sides
    of a comparison.
    """
    rng = make_rng(solver._seed if seed is None else seed)
    if problem.w == 0:
        return ParetoSet(
            genes=np.zeros((0, 0), dtype=np.uint8),
            objectives=np.zeros((0, problem.n_objectives)),
        )
    genes, objectives = _solve_reference(solver, problem, rng, get_tracer())
    return ParetoSet(genes=genes, objectives=objectives)


def _solve_cached_by_reference(solver, problem, rng, tracer, cache):
    """Stand-in for :meth:`MOGASolver._solve_cached` that ignores the cache."""
    return _solve_reference(solver, problem, rng, tracer)


# --- backfill: sort, add and test per release ---------------------------------


class _GrowingPool(_Pool):
    """The planning pool with the running jobs' releases added one by one."""

    def copy(self) -> "_GrowingPool":
        return _GrowingPool(self.bb, self.tiers)

    def add(self, release: PlannedRelease) -> None:
        self.bb += release.bb
        tiers = self.tiers
        for cap, n in release.nodes_by_tier.items():
            tiers[cap] = tiers.get(cap, 0) + n
            self._nodes += n
            if cap < self._min_cap:
                self._min_cap = cap


class ReferenceBackfill:
    """EASY planning over releases in any order: the plain shadow-time walk."""

    def plan(self, queue, free_bb, free_tiers, releases, now) -> BackfillPlan:
        if not queue:
            return BackfillPlan(to_start=(), shadow_time=None)
        pool = _GrowingPool(free_bb, free_tiers)
        started: List[Job] = []
        releases = list(releases)
        idx = 0
        while idx < len(queue) and pool.fits(queue[idx]):
            job = queue[idx]
            taken = pool.take(job)
            started.append(job)
            releases.append(PlannedRelease(
                est_end=now + job.walltime, bb=job.bb, nodes_by_tier=taken,
            ))
            idx += 1
        if idx >= len(queue):
            return BackfillPlan(to_start=tuple(started), shadow_time=None)
        shadow, extra = self._reserve_head(queue[idx], pool, releases, now)
        for job in queue[idx + 1:]:
            if not pool.fits(job):
                continue
            if shadow is None or now + job.walltime <= shadow:
                pool.take(job)
                started.append(job)
            elif extra is not None and extra.fits(job):
                pool.take(job)
                extra.take(job)
                started.append(job)
        return BackfillPlan(to_start=tuple(started), shadow_time=shadow)

    @staticmethod
    def _reserve_head(head, pool, releases, now):
        future = pool.copy()
        if future.fits(head):
            future.take(head)
            return now, future
        for release in sorted(releases, key=attrgetter("est_end")):
            est = max(release.est_end, now + _OVERRUN_EPSILON)
            future.add(release)
            if future.fits(head):
                future.take(head)
                return est, future
        return None, None


# --- engine: no job-table shortcuts ---------------------------------------------


class PeekPopEventQueue(EventQueue):
    """Event queue whose batch pop is a ``peek_time`` + ``pop`` pair."""

    def pop_at(self, time: float) -> Optional[Event]:
        return self.pop() if self.peek_time() == time else None


class ReferenceEngine(SchedulingEngine):
    """The engine with each shortcut replaced by its plain version.

    Every pass orders the whole queue with the policy's tuple sort,
    filters it for eligibility, and rebuilds the backfiller's planned
    releases from the running jobs, unsorted, for
    :class:`ReferenceBackfill` (which replaces an :class:`EasyBackfill`
    planner); events pop through :class:`PeekPopEventQueue`.  Window
    feasibility is gated from the job table's columns as in production
    (``Available.fits_cols``, which ``tests/test_cluster.py`` pins to
    per-job ``fits``).
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._events = PeekPopEventQueue()
        if isinstance(self.backfill, EasyBackfill):
            self.backfill = ReferenceBackfill()

    def _run_loop(self, checkpointer=None):
        self._eligible_passthrough = False
        return super()._run_loop(checkpointer)

    def _ordered_queue(self, now: float, k: Optional[int] = None) -> List[Job]:
        return self.policy.order(self._queue.values(), now)

    def _planned_releases(self) -> List[PlannedRelease]:
        releases = []
        for job in self._running.values():
            assert job.start_time is not None
            releases.append(
                PlannedRelease(
                    est_end=job.start_time + job.walltime,
                    bb=job.bb,
                    nodes_by_tier=self.cluster.nodes_by_tier(job),
                )
            )
        return releases


@contextmanager
def reference_paths(ga: bool = True, engine: bool = True) -> Iterator[None]:
    """Run every ``run_one`` inside the block on the oracles.

    ``ga`` swaps the GA's cached loop for :func:`reference_solve`'s loop;
    ``engine`` makes ``run_one`` build a :class:`ReferenceEngine`.  A run
    resumed from a checkpoint keeps the engine class it was saved with.
    """
    with ExitStack() as stack:
        if ga:
            stack.enter_context(
                patch.object(MOGASolver, "_solve_cached", _solve_cached_by_reference)
            )
        if engine:
            stack.enter_context(patch.object(runner, "SchedulingEngine", ReferenceEngine))
        yield


# --- recorder: list-backed step series ------------------------------------------


class ReferenceStepSeries:
    """List-backed reference twin of :class:`StepSeries`.

    The executable spec: same API, plain Python lists, and an ``integral``
    that walks segments in order and reduces with ``math.fsum`` — the
    drift-free accumulation the vectorized dot product is measured
    against.  Used by the differential tests; not on any hot path.
    """

    def __init__(self, initial: float = 0.0, start_time: float = 0.0) -> None:
        self._times: List[float] = [start_time]
        self._values: List[float] = [float(initial)]

    def __len__(self) -> int:
        return len(self._times)

    def observe(self, time: float, value: float) -> None:
        """Record the level changing to ``value`` at ``time``."""
        last = self._times[-1]
        if time < last:
            raise ConfigurationError(
                f"observations must be time-ordered: {time} < {last}"
            )
        if time == last:
            self._values[-1] = float(value)
        else:
            self._times.append(float(time))
            self._values.append(float(value))

    @property
    def last_time(self) -> float:
        return self._times[-1]

    @property
    def last_value(self) -> float:
        return self._values[-1]

    def integral(self, t0: float, t1: float) -> float:
        """∫ level dt over ``[t0, t1]``, accumulated with ``math.fsum``."""
        if t1 < t0:
            raise ConfigurationError(f"empty interval [{t0}, {t1}]")
        times = self._times
        values = self._values
        i = max(bisect_right(times, t0) - 1, 0)
        terms: List[float] = []
        t = t0
        while i < len(times):
            seg_end = times[i + 1] if i + 1 < len(times) else t1
            seg_end = min(seg_end, t1)
            if seg_end > t:
                terms.append(values[i] * (seg_end - t))
                t = seg_end
            if t >= t1:
                break
            i += 1
        if t < t1:  # level persists past the last change point
            terms.append(values[-1] * (t1 - t))
        return math.fsum(terms)

    def mean(self, t0: float, t1: float) -> float:
        """Time-average level over ``[t0, t1]`` (0 for a zero-length span)."""
        if t1 <= t0:
            return 0.0
        return self.integral(t0, t1) / (t1 - t0)

    def as_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """(times, values) numpy copies of the recorded steps."""
        return np.asarray(self._times), np.asarray(self._values)
