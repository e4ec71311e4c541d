"""GA-backed window solvers: the paper's §3.2.2 metaheuristic as plugins.

``GAWindowSolver`` wraps the existing evolutionary machinery behind the
:class:`~repro.solvers.base.WindowSolver` protocol:

* :meth:`~GAWindowSolver.solve` delegates to one long-lived
  :class:`~repro.core.ga.MOGASolver` (BBSched's multi-objective GA);
* :meth:`~GAWindowSolver.solve_scalar` builds a fresh
  :class:`~repro.core.scalar.ScalarGASolver` per call (the weighted /
  constrained methods' historical behaviour) and accumulates its
  evaluation-cache counters.

Both paths thread the caller's RNG through unchanged, so selectors
refactored onto this adapter reproduce the pre-refactor byte-identical
results — the construction order, argument lists, and seed handling match
the code they replace exactly.
"""

from __future__ import annotations

from typing import Sequence

from ..core.ga import (
    DEFAULT_GENERATIONS,
    DEFAULT_MUTATION,
    DEFAULT_POPULATION,
    MOGASolver,
    ParetoSet,
)
from ..core.scalar import ScalarGASolver, ScalarSolution
from ..rng import SeedLike
from .base import WindowSolver

#: Zeroed evaluation-cache counter block (shape shared with EvaluationCache).
_ZERO_STATS = {"hits": 0, "misses": 0, "deduped": 0, "evictions": 0}


class GAWindowSolver(WindowSolver):
    """The multi-objective / scalarized genetic algorithm (§3.2.2, §4.3).

    Parameters
    ----------
    generations, population, mutation:
        GA parameters ``G``, ``P``, ``p_m`` (§4.3 defaults: 500, 20, 0.05%).
    selection:
        MOO survival scheme — ``"age"`` (paper) or ``"crowding"`` (ablation).
        Scalar solves always use fitness-elitist survival.
    """

    name = "ga"
    exact = False

    def __init__(
        self,
        *,
        generations: int = DEFAULT_GENERATIONS,
        population: int = DEFAULT_POPULATION,
        mutation: float = DEFAULT_MUTATION,
        selection: str = "age",
    ) -> None:
        self.generations = generations
        self.population = population
        self.mutation = mutation
        self.selection = selection
        # One long-lived MOO solver: its eval cache persists across passes,
        # which is where the memoization speedup comes from.
        self.moga = MOGASolver(
            generations=generations,
            population=population,
            mutation=mutation,
            selection=selection,
            seed=None,
        )
        # Scalar solves use throwaway solvers; their counters accumulate here.
        self._scalar_stats = dict(_ZERO_STATS)

    def solve(self, problem, seed: SeedLike = None) -> ParetoSet:
        return self.moga.solve(problem, seed=seed)

    def solve_scalar(
        self, problem, coeffs: Sequence[float], seed: SeedLike = None
    ) -> ScalarSolution:
        solver = ScalarGASolver(
            coeffs,
            seed=None,
            generations=self.generations,
            population=self.population,
            mutation=self.mutation,
        )
        best = solver.best(problem, seed=seed)
        stats = solver.eval_cache_stats
        for key in self._scalar_stats:
            self._scalar_stats[key] += stats[key]
        return best

    @property
    def eval_cache_stats(self) -> dict:
        """Combined MOO + scalar cache counters."""
        moga = self.moga.eval_cache_stats
        return {key: moga[key] + self._scalar_stats[key] for key in _ZERO_STATS}
