"""Multi-objective genetic algorithm MOO solver (§3.2.2).

The solver maintains a constant-size population of ``P`` chromosomes, each a
binary vector over the window.  Per generation:

1. **crossover** — pairs of parents are drawn uniformly at random from the
   previous generation and swap genes at a random cut point, producing two
   children each, until ``P`` children exist;
2. **mutation** — each child gene flips with a low probability ``p_m``
   (diversity, escaping local optima);
3. **selection** — parents and children are pooled, split into the Pareto
   set (Set 1) and the rest (Set 2).  If Set 1 fits in ``P`` it passes
   through and Set 2 fills the remainder, *newer chromosomes first*; if
   Set 1 overflows, the ``P`` newest of Set 1 survive.  Surviving
   chromosomes age by one per generation.

After ``G`` generations the Pareto members of the final population are
returned.  Infeasible chromosomes are repaired by gene clearing (the
problem's :meth:`~repro.core.problem.MOOProblem.repair`) — an ablation flag
switches to NSGA-II-style crowding-distance selection for comparison.

Everything is vectorized: the population is a ``(P, w)`` uint8 matrix and a
full generation costs a few numpy kernel calls, which is what lets a
``G=500, P=20`` solve finish in milliseconds (§3.2.3's "minimal overhead").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import SolverError
from ..rng import SeedLike, make_rng, restore_rng_state, rng_state
from ..telemetry import get_tracer
from .evalcache import DEFAULT_EVAL_CACHE_CAPACITY, EvaluationCache, chromosome_keys
from .pareto import non_dominated_mask, unique_front
from .problem import MOOProblem

from .params import DEFAULT_GENERATIONS, DEFAULT_MUTATION, DEFAULT_POPULATION


@dataclass(frozen=True)
class ParetoSet:
    """Solver output: the approximated Pareto set.

    ``genes`` is ``(m, w)`` with one non-dominated selection per row;
    ``objectives`` is the aligned ``(m, k)`` objective matrix.
    """

    genes: np.ndarray
    objectives: np.ndarray

    def __post_init__(self) -> None:
        if self.genes.shape[0] != self.objectives.shape[0]:
            raise SolverError("genes/objectives row mismatch")

    def __len__(self) -> int:
        return self.genes.shape[0]

    def best_by(self, objective: int) -> int:
        """Row index of the solution maximizing one objective.

        Ties break deterministically to the *lowest* row index (the order
        rows entered the Pareto set) — ``np.argmax`` returns the first
        occurrence of the maximum.  Decision rules lean on this: a tied
        front must yield the same dispatch on every platform and numpy
        version, or runs stop being reproducible.  Pinned by
        ``tests/test_ga.py::TestParetoSet::test_best_by_tie_breaks_lowest_index``.
        """
        if len(self) == 0:
            raise SolverError("empty Pareto set")
        return int(np.argmax(self.objectives[:, objective]))


def crowding_distance(objectives: np.ndarray) -> np.ndarray:
    """NSGA-II crowding distance of each row (larger = more isolated).

    Boundary solutions per objective get infinite distance.  Used by the
    ablation selection scheme.
    """
    n, k = objectives.shape
    if n == 0:
        return np.zeros(0)
    dist = np.zeros(n)
    for m in range(k):
        order = np.argsort(objectives[:, m], kind="stable")
        f = objectives[order, m]
        span = f[-1] - f[0]
        dist[order[0]] = np.inf
        dist[order[-1]] = np.inf
        if span > 0 and n > 2:
            dist[order[1:-1]] += (f[2:] - f[:-2]) / span
    return dist


class MOGASolver:
    """The paper's multi-objective GA (with an NSGA-II ablation mode).

    Parameters
    ----------
    generations:
        ``G`` — iterations of the evolve loop.
    population:
        ``P`` — constant population size.
    mutation:
        ``p_m`` — per-gene bit-flip probability applied to children.
    selection:
        ``"age"`` (paper: Pareto set survives, ties broken by newness) or
        ``"crowding"`` (NSGA-II crowding-distance truncation; ablation).
    seed_greedy:
        Warm-start the initial population with the problem's greedy
        chromosomes (window-order fill plus one density fill per
        objective).  The paper initialises purely at random and leans on
        G=500 to converge; greedy seeding reaches the same quality with a
        far smaller generation budget, so it is on by default and
        switched off for paper-exact runs.
    seed:
        Seed or generator for all stochastic operators.
    eval_cache:
        Memoize objective rows across generations (and skip feasibility
        checks for children byte-identical to an already-scored
        chromosome).  Results are byte-identical either way — the
        problems' evaluation kernels are row-subset stable (see
        :mod:`repro.core.evalcache`) and the differential suite pins it —
        so this is on by default; ``False`` is the reference path (and the
        CLI's ``--no-eval-cache`` escape hatch).
    cache_capacity:
        Bound on distinct chromosomes the cache retains per solve.
    """

    def __init__(
        self,
        generations: int = DEFAULT_GENERATIONS,
        population: int = DEFAULT_POPULATION,
        mutation: float = DEFAULT_MUTATION,
        selection: str = "age",
        seed_greedy: bool = True,
        seed: SeedLike = None,
        eval_cache: bool = True,
        cache_capacity: int = DEFAULT_EVAL_CACHE_CAPACITY,
    ) -> None:
        if generations < 0:
            raise SolverError(f"generations must be >= 0, got {generations}")
        if population < 2:
            raise SolverError(f"population must be >= 2, got {population}")
        if not 0.0 <= mutation <= 1.0:
            raise SolverError(f"mutation must be a probability, got {mutation}")
        if selection not in ("age", "crowding"):
            raise SolverError(f"unknown selection scheme {selection!r}")
        if cache_capacity < 1:
            raise SolverError(f"cache_capacity must be >= 1, got {cache_capacity}")
        self.generations = generations
        self.population = population
        self.mutation = mutation
        self.selection = selection
        self.seed_greedy = seed_greedy
        self._seed = seed
        self.eval_cache = eval_cache
        self.cache_capacity = cache_capacity
        #: Lazily built per-solver :class:`EvaluationCache`; dropped on
        #: pickling (checkpoint snapshots) and rebuilt on first solve.
        self._cache: Optional[EvaluationCache] = None

    # --- pickling (checkpoint/resume) -------------------------------------------
    # The eval cache is a pure memo table: dropping it from a snapshot
    # costs re-evaluation after resume, never changes results (proved by
    # tests/test_differential.py's resume cycle).  Its counters go with it
    # — they are wall-clock-class observability, deliberately outside the
    # run fingerprint.  ``__setstate__`` defaults the newer attributes so
    # snapshots written before the cache existed still load, and drops the
    # removed ``fast_repair`` knob that older snapshots still carry.
    def __getstate__(self) -> Dict:
        state = self.__dict__.copy()
        state["_cache"] = None
        return state

    def __setstate__(self, state: Dict) -> None:
        state.setdefault("eval_cache", True)
        state.setdefault("cache_capacity", DEFAULT_EVAL_CACHE_CAPACITY)
        state.pop("fast_repair", None)
        state.setdefault("_cache", None)
        self.__dict__.update(state)

    @property
    def eval_cache_stats(self) -> Optional[Dict[str, int]]:
        """Cumulative cache counters, or ``None`` when caching is off."""
        if not self.eval_cache:
            return None
        if self._cache is None:
            return {"hits": 0, "misses": 0, "deduped": 0, "evictions": 0}
        return self._cache.stats()

    # --- RNG stream capture ------------------------------------------------------
    # When the solver owns a long-lived Generator (``seed`` was a
    # Generator, or the selector threads one through ``solve``), its state
    # advances with every scheduling pass.  Checkpoint/resume
    # (:mod:`repro.checkpoint`) must persist that state or a resumed run
    # would replay a different GA stream; ``pickle`` captures it through
    # these hooks because numpy generators serialise their full state.
    def rng_state(self) -> Optional[dict]:
        """State of the solver-owned RNG stream, or None if seeded per-call."""
        if isinstance(self._seed, np.random.Generator):
            return rng_state(self._seed)
        return None

    def set_rng_state(self, state: dict) -> None:
        """Rewind the solver-owned stream to a captured state."""
        if not isinstance(self._seed, np.random.Generator):
            raise SolverError("solver does not own a persistent RNG stream")
        restore_rng_state(self._seed, state)

    # --- operators -------------------------------------------------------------
    def _crossover(self, parents: np.ndarray, rng: np.random.Generator) -> np.ndarray:
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

    def _mutate(self, children: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Independent per-gene bit flips with probability ``p_m``."""
        if self.mutation == 0.0:
            return children
        flips = rng.random(children.shape) < self.mutation
        children ^= flips.astype(np.uint8)
        return children

    def _dedup_youngest(
        self,
        genes: np.ndarray,
        ages: np.ndarray,
        keys: Optional[List[bytes]] = None,
    ) -> np.ndarray:
        """Indices keeping the youngest copy of each distinct chromosome.

        Identical genes are one *solution*, and without dedup the Pareto
        set floods with clones of a single point, which freezes the
        crossover gene pool and stalls exploration.

        Two equivalent implementations: the void-view ``np.unique`` scan
        (reference), and — when per-row byte ``keys`` are already in hand
        from the eval cache — a first-occurrence scan over the age-sorted
        rows, which skips rebuilding and re-sorting the structured view.
        Both keep the first (youngest) occurrence per distinct row in
        age-sorted order, so their outputs are identical.
        """
        order = np.lexsort((ages,))
        if keys is None:
            rows = np.ascontiguousarray(genes[order])
            voided = rows.view([("", rows.dtype)] * rows.shape[1]).ravel()
            _, first = np.unique(voided, return_index=True)
            return order[np.sort(first)]
        seen = set()
        kept = []
        for j in order:
            key = keys[j]
            if key not in seen:
                seen.add(key)
                kept.append(j)
        return np.asarray(kept, dtype=np.intp)

    def _survivors(
        self,
        genes: np.ndarray,
        objectives: np.ndarray,
        ages: np.ndarray,
        rng: np.random.Generator,
        keys: Optional[List[bytes]] = None,
    ) -> np.ndarray:
        """Survival selection → indices (into the pool) of the next generation.

        Duplicate chromosomes are collapsed first (keeping the youngest
        copy, see :meth:`_dedup_youngest`).  If fewer than ``P`` unique
        chromosomes exist, the survivors are recycled to keep the
        population size constant.
        """
        P = self.population
        keep_idx = self._dedup_youngest(genes, ages, keys)
        objectives = objectives[keep_idx]
        ages = ages[keep_idx]
        pareto = non_dominated_mask(objectives)
        set1 = np.flatnonzero(pareto)
        set2 = np.flatnonzero(~pareto)
        if self.selection == "crowding":
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

    # --- main loop ---------------------------------------------------------------
    def _repair_known(
        self,
        problem: MOOProblem,
        children: np.ndarray,
        rng: np.random.Generator,
        cache: EvaluationCache,
    ) -> Tuple[np.ndarray, List[bytes]]:
        """Repair ``children``, skipping work the cache already certifies.

        Store membership means "was evaluated post-repair", i.e. feasible,
        so only byte-novel children need a feasibility check — and when
        those all pass, the whole repair (which would find nothing to do)
        is skipped.  RNG parity with ``problem.repair``: both skipped
        branches are exactly the cases where repair's no-copy fast path
        returns without consuming the RNG, and the fallthrough delegates
        to the identical ``repair`` call.
        """
        keys = chromosome_keys(children)
        unknown = [i for i, key in enumerate(keys) if key not in cache]
        if not unknown:
            return children, keys
        ok = problem.feasible(np.ascontiguousarray(children[unknown]))
        if ok.all():
            return children, keys
        # Store rows are feasible by construction, so the subset check
        # expands to the full-population feasibility vector — handing it
        # to repair as a hint skips both of repair's own full checks.
        hint = np.ones(len(keys), dtype=bool)
        hint[unknown] = ok
        children = problem.repair(children, rng, feasible_hint=hint)
        return children, chromosome_keys(children)

    def _evolve_once(
        self,
        problem: MOOProblem,
        genes: np.ndarray,
        ages: np.ndarray,
        forced: list,
        rng: np.random.Generator,
        cache: Optional[EvaluationCache] = None,
        keys: Optional[List[bytes]] = None,
    ) -> Tuple[np.ndarray, np.ndarray, Optional[List[bytes]]]:
        """One generation: crossover → mutate → repair → survival selection.

        With ``cache`` the survivor keys thread through so parent rows are
        never re-hashed, re-evaluated, or re-checked for feasibility;
        without it this is the reference evaluate-everything path.  Both
        paths draw identically from ``rng`` and return identical
        populations (pinned by the differential tests).
        """
        children = self._crossover(genes, rng)
        children = self._mutate(children, rng)
        if forced:
            children[:, forced] = 1
        if cache is None:
            children = problem.repair(children, rng)
            pool_keys = None
        else:
            children, child_keys = self._repair_known(problem, children, rng, cache)
            assert keys is not None
            pool_keys = keys + child_keys
        pool_genes = np.concatenate([genes, children])
        pool_ages = np.concatenate(
            [ages + 1, np.zeros(children.shape[0], dtype=np.int64)]
        )
        if cache is None:
            pool_obj = problem.evaluate(pool_genes)
        else:
            pool_obj = cache.evaluate(problem, pool_genes, pool_keys)
        keep = self._survivors(pool_genes, pool_obj, pool_ages, rng, keys=pool_keys)
        next_keys = [pool_keys[i] for i in keep] if pool_keys is not None else None
        return pool_genes[keep], pool_ages[keep], next_keys

    def solve(self, problem: MOOProblem, seed: SeedLike = None) -> ParetoSet:
        """Approximate the Pareto set of ``problem``.

        ``seed`` overrides the constructor seed for this call (used when one
        solver object serves many scheduling invocations).
        """
        rng = make_rng(self._seed if seed is None else seed)
        if problem.w == 0:
            return ParetoSet(
                genes=np.zeros((0, 0), dtype=np.uint8),
                objectives=np.zeros((0, problem.n_objectives)),
            )
        cache = None
        before: Dict[str, int] = {}
        if self.eval_cache:
            cache = self._cache
            if cache is None:
                cache = self._cache = EvaluationCache(self.cache_capacity)
            # Chromosome bytes are only meaningful relative to one problem
            # instance; counters accumulate across solves, the store not.
            cache.reset()
            before = cache.stats()
        tracer = get_tracer()
        with tracer.span(
            "ga_solve",
            w=problem.w,
            objectives=problem.n_objectives,
            generations=self.generations,
            population=self.population,
            eval_cache=cache is not None,
        ) as solve_span:
            genes = problem.random_population(self.population, rng)
            forced = list(problem.forced)
            if self.seed_greedy:
                seeds = problem.greedy_chromosomes()
                if seeds.shape[0]:
                    if forced:
                        seeds = seeds.copy()
                        seeds[:, forced] = 1
                    seeds = problem.repair(seeds, rng)
                    k = min(seeds.shape[0], self.population)
                    genes[:k] = seeds[:k]
            ages = np.zeros(self.population, dtype=np.int64)
            keys = chromosome_keys(genes) if cache is not None else None
            if tracer.fine:
                # Per-generation spans are the highest-volume instrumentation
                # in the repo — emitted only under Tracer(fine=True).
                for gen in range(self.generations):
                    with tracer.span("ga_generation", gen=gen):
                        genes, ages, keys = self._evolve_once(
                            problem, genes, ages, forced, rng, cache, keys
                        )
            else:
                for _ in range(self.generations):
                    genes, ages, keys = self._evolve_once(
                        problem, genes, ages, forced, rng, cache, keys
                    )
            if cache is not None:
                final_obj = cache.evaluate(problem, genes, keys)
                after = cache.stats()
                solve_span.set(
                    cache_hits=after["hits"] - before["hits"],
                    cache_misses=after["misses"] - before["misses"],
                )
            else:
                final_obj = problem.evaluate(genes)
            front = non_dominated_mask(final_obj)
            g, o = unique_front(genes[front], final_obj[front])
            solve_span.set(front=int(g.shape[0]))
        return ParetoSet(genes=g, objectives=o)
