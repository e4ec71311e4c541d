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

Each chromosome is a Python int with gene ``i`` at bit ``i``, and the
population is a list of ``(bits, age, objectives)`` members.  A generation
costs one ``integers`` call (padding, parents, cuts), one ``random`` call,
and one pass over the children that dedups and scores them; parents carry
their objective rows and are not scored again.  Crossover copies a child
whose parents are the same chromosome, repair runs only when a child is
new to the cache, and the survivors are built straight from the unique
children and the parents no child re-created, with no pooled list.
Repair checks the packed ints themselves (``problem.feasible_packed``),
and only rows the cache has not seen are unpacked to a uint8 matrix for
the problem's numpy evaluation kernel.  Every objective row is memoized
in a per-solver :class:`~repro.core.evalcache.EvaluationCache`.  The loop
is pinned byte for byte to the plain numpy loop over a ``(P, w)`` uint8
matrix, which lives on as a test oracle (``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import SolverError
from ..rng import SeedLike, make_rng, restore_rng_state, rng_state
from ..telemetry import NULL_SPAN, get_tracer
from .evalcache import EvaluationCache, Objectives, pack_genes, unpack_genes
from .pareto import non_dominated_mask
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


#: A member of the cached loop's population: packed chromosome, age, and
#: its objective row (``None`` until the initial population is scored).
Member = Tuple[int, int, Optional[Objectives]]


def _front(objs: Sequence[Objectives]) -> List[bool]:
    """Pareto mask over objective tuples, the same as
    :func:`~repro.core.pareto.non_dominated_mask`, duplicates included.

    Two objectives take a sort-and-scan
    (:func:`~repro.core.pareto.pareto_front_2d`): walking the rows by
    descending ``(f1, f2)``, a row is on the front when its ``f2`` beats
    every earlier ``f2``, and an exact duplicate shares the decision of
    the first row of its run.
    """
    if len(objs[0]) != 2:
        return non_dominated_mask(np.array(objs)).tolist()
    mask = [False] * len(objs)
    best = -np.inf
    prev = None
    on = False
    for i in sorted(range(len(objs)), key=objs.__getitem__, reverse=True):
        obj = objs[i]
        if obj != prev:
            prev = obj
            on = obj[1] > best
            if on:
                best = obj[1]
        mask[i] = on
    return mask


@lru_cache(maxsize=1024)
def _draw_bounds(P: int, k: int, w: int) -> Tuple[np.ndarray, np.ndarray]:
    """Bounds of a cached generation's ``integers`` call: pads, parents, cuts.
    Read-only, because every caller shares them."""
    pairs, short = (P + 1) // 2, P - k
    n_cuts = pairs if w >= 2 else 0
    bounds = (np.array([0] * (short + 2 * pairs) + [1] * n_cuts, dtype=np.int64),
              np.array([k] * short + [P] * (2 * pairs) + [w] * n_cuts, dtype=np.int64))
    for a in bounds:
        a.setflags(write=False)
    return bounds


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
    """

    def __init__(
        self,
        generations: int = DEFAULT_GENERATIONS,
        population: int = DEFAULT_POPULATION,
        mutation: float = DEFAULT_MUTATION,
        selection: str = "age",
        seed_greedy: bool = True,
        seed: SeedLike = None,
    ) -> None:
        if generations < 0:
            raise SolverError(f"generations must be >= 0, got {generations}")
        if population < 2:
            raise SolverError(f"population must be >= 2, got {population}")
        if not 0.0 <= mutation <= 1.0:
            raise SolverError(f"mutation must be a probability, got {mutation}")
        if selection not in ("age", "crowding"):
            raise SolverError(f"unknown selection scheme {selection!r}")
        self.generations = generations
        self.population = population
        self.mutation = mutation
        self.selection = selection
        self.seed_greedy = seed_greedy
        self._seed = seed
        #: Lazily built per-solver :class:`EvaluationCache`; dropped on
        #: pickling (checkpoint snapshots) and rebuilt on first solve.
        self._cache: Optional[EvaluationCache] = None

    # --- pickling (checkpoint/resume) -------------------------------------------
    # The eval cache is a pure memo table: dropping it from a snapshot
    # costs re-evaluation after resume, never changes results (proved by
    # tests/test_differential.py's resume cycle).  Its counters go with it
    # — they are wall-clock-class observability, deliberately outside the
    # run fingerprint.  ``__setstate__`` defaults the cache slot so
    # snapshots written before the cache existed still load, and drops the
    # removed ``eval_cache``, ``fast_repair`` and ``cache_capacity`` knobs
    # that older snapshots still carry.
    def __getstate__(self) -> Dict:
        state = self.__dict__.copy()
        state["_cache"] = None
        return state

    def __setstate__(self, state: Dict) -> None:
        state.pop("eval_cache", None)
        state.pop("cache_capacity", None)
        state.pop("fast_repair", None)
        state.setdefault("_cache", None)
        self.__dict__.update(state)

    @property
    def eval_cache_stats(self) -> Dict[str, int]:
        """Cumulative cache counters, zero before the first solve."""
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

    # --- cached path: bit-packed operators on lists of members -----------------
    # Each operator draws the same bit-generator words as its twin in the numpy
    # reference loop (tests/oracles.py), in order (calls merge where numpy's
    # bounded sampler draws per element, as tests/test_rng.py pins), so both
    # loops give byte-identical populations.
    def _mutate_bits(
        self, children: List[int], w: int, rng: np.random.Generator
    ) -> List[int]:
        """Independent per-gene bit flips with probability ``p_m``, in place,
        from the reference's ``(n, w)`` draw, flattened."""
        if self.mutation == 0.0:
            return children
        draws = rng.random(len(children) * w)
        for i in (draws < self.mutation).nonzero()[0].tolist():
            row, gene = divmod(i, w)
            children[row] ^= 1 << gene
        return children

    @staticmethod
    def _repair_bits(
        problem: MOOProblem,
        rows: List[int],
        forced_bits: int,
        rng: np.random.Generator,
        cache: EvaluationCache,
    ) -> None:
        """Repair ``rows`` in place, as :meth:`MOOProblem.repair` does.

        Each round clears, in every infeasible row in row order, one set
        non-forced bit picked by ``rng.integers(n)`` (the reference's
        ``integers(0, n, dtype=np.int64)`` draw: the low bound defaults to
        0 and the dtype to int64) among the ``n`` such bits in ascending
        gene order, then re-checks those rows.
        """
        free = ~forced_bits
        bad = cache.infeasible(problem, rows, range(len(rows)))
        while bad:
            for i in bad:
                clearable = rows[i] & free
                n = clearable.bit_count()
                if n == 0:
                    raise SolverError(
                        "cannot repair chromosome: forced genes alone are infeasible"
                    )
                for _ in range(rng.integers(n)):
                    clearable &= clearable - 1  # drop the lowest set bit
                rows[i] ^= clearable & -clearable
            bad = cache.infeasible(problem, rows, bad)

    def _select(self, objs: List[Objectives]) -> List[int]:
        """Survivor rule → at most ``P`` indices into ``objs`` (unpadded).

        ``objs`` are the unique chromosomes' objective rows, youngest
        first, so index order is the reference path's stable age order.
        """
        P = self.population
        front = _front(objs)
        set1 = [j for j, on in enumerate(front) if on]
        set2 = [j for j, on in enumerate(front) if not on]
        if self.selection == "crowding":
            if len(set1) >= P:
                return self._most_isolated(objs, set1, P)
            return set1 + self._most_isolated(objs, set2, P - len(set1))
        # Paper scheme: Set 1 passes, then Set 2, each newest first.
        return (set1 + set2)[:P]

    @staticmethod
    def _most_isolated(objs: List[Objectives], idx: List[int], n: int) -> List[int]:
        """The ``n`` members of ``idx`` with the largest crowding distance."""
        if not idx:
            return []
        dist = crowding_distance(np.array([objs[j] for j in idx]))
        return [idx[j] for j in np.argsort(-dist, kind="stable")[:n].tolist()]

    def _generation(
        self,
        problem: MOOProblem,
        population: List[Member],
        forced_bits: int,
        rng: np.random.Generator,
        cache: EvaluationCache,
    ) -> List[Member]:
        """One cached generation: pad + crossover → mutate → repair → score →
        selection, with the reference generation's draws and survivors.

        The survivors are built without pooling: the unique children (age
        0, in order of first appearance), then the parents no child
        re-created, stable by age.  A pad re-draws a survivor, so it always
        follows its original and never survives.  Only generation 0's
        initial population arrives unscored and may repeat a chromosome.
        """
        P, w = self.population, problem.w
        k = len(population)
        pairs, short = (P + 1) // 2, P - k
        draws = rng.integers(*_draw_bounds(P, k, w)).tolist()
        bits = [m[0] for m in population]
        bits += [bits[j] for j in draws[:short]]
        mothers = [bits[i] for i in draws[short : short + pairs]]
        fathers = [bits[i] for i in draws[short + pairs : short + 2 * pairs]]
        if w < 2:
            children = (mothers + fathers)[:P]
        else:
            child_a, child_b = [], []
            for m, f, cut in zip(mothers, fathers, draws[short + 2 * pairs :]):
                if m == f:
                    child_a.append(m)
                    child_b.append(m)
                else:
                    # Genes below the cut come from the first parent of the child.
                    swap = (m ^ f) & ((1 << cut) - 1)
                    child_a.append(f ^ swap)
                    child_b.append(m ^ swap)
            children = (child_a + child_b)[:P]
        children = self._mutate_bits(children, w, rng)
        if forced_bits:
            children = [c | forced_bits for c in children]
        if not cache.all_stored(children):  # stored rows are feasible
            self._repair_bits(problem, children, forced_bits, rng, cache)
        if population[0][2] is None:
            scored = cache.score(problem, bits + children)
            pool = {c: (c, 0, scored[c]) for c in children}
        else:
            cache.hits += P  # the padded parents carry their rows
            scored = cache.score(problem, children)
            pool = {c: (c, 0, obj) for c, obj in scored.items()}
        for b, age, obj in sorted(population, key=itemgetter(1)):
            if b not in pool:
                pool[b] = (b, age + 1, scored[b] if obj is None else obj)
        unique = list(pool.values())
        return [unique[j] for j in self._select([m[2] for m in unique])]

    def _solve_cached(
        self,
        problem: MOOProblem,
        rng: np.random.Generator,
        tracer,
        cache: EvaluationCache,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Unique Pareto rows of the final population, on packed chromosomes."""
        P, w = self.population, problem.w
        forced_bits = sum(1 << i for i in problem.forced)
        # The draws of problem.random_population, then its repair.
        rows = pack_genes(rng.integers(0, 2, size=(P, w), dtype=np.uint8))
        rows = [bits | forced_bits for bits in rows]
        self._repair_bits(problem, rows, forced_bits, rng, cache)
        if self.seed_greedy:
            seeds = [bits | forced_bits for bits in pack_genes(problem.greedy_chromosomes())]
            self._repair_bits(problem, seeds, forced_bits, rng, cache)
            k = min(len(seeds), P)
            rows[:k] = seeds[:k]
        population: List[Member] = [(bits, 0, None) for bits in rows]
        for gen in range(self.generations):
            with tracer.span("ga_generation", gen=gen) if tracer.fine else NULL_SPAN:
                population = self._generation(
                    problem, population, forced_bits, rng, cache
                )
        if len(population) < P:  # the reference's last pad draw
            pad = rng.integers(0, len(population), size=P - len(population))
            population += [population[j] for j in pad.tolist()]
        rows = [m[0] for m in population]
        if self.generations:
            cache.hits += P  # every member carries its row
            objs = [m[2] for m in population]
        else:
            scored = cache.score(problem, rows)
            objs = [scored[bits] for bits in rows]
        # unique_front's rows: the first copy of each chromosome on the front.
        front: Dict[int, Objectives] = {}
        for bits, obj, on in zip(rows, objs, _front(objs)):
            if on:
                front.setdefault(bits, obj)
        return unpack_genes(list(front), w), np.array(list(front.values()), dtype=float)

    # --- main loop ---------------------------------------------------------------
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
        cache = self._cache
        if cache is None:
            cache = self._cache = EvaluationCache()
        # A chromosome only means something relative to one problem
        # instance; counters accumulate across solves, the store not.
        cache.reset()
        tracer = get_tracer()
        with tracer.span(
            "ga_solve",
            w=problem.w,
            objectives=problem.n_objectives,
            generations=self.generations,
            population=self.population,
        ) as solve_span:
            # Per-generation spans are the highest-volume instrumentation in
            # the repo — emitted only under Tracer(fine=True).
            before = cache.stats()
            g, o = self._solve_cached(problem, rng, tracer, cache)
            after = cache.stats()
            solve_span.set(
                cache_hits=after["hits"] - before["hits"],
                cache_misses=after["misses"] - before["misses"],
                front=int(g.shape[0]),
            )
        return ParetoSet(genes=g, objectives=o)
