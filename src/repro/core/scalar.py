"""Single-objective GA for the weighted and constrained methods (§4.3).

The weighted and constrained comparison methods convert multi-resource
scheduling into a *single*-objective optimization (§1, §2.3).  To compare
methods rather than solvers, they get the same evolutionary machinery as
BBSched — identical crossover, mutation, and repair operators with the same
``G``/``P`` budget — but with survival selection by scalar fitness
``fitness(x) = coeffs · F(x)`` instead of Pareto dominance, and a single
best solution as output.

* Constrained_CPU maximizes ``f1`` (coeffs ``[1, 0, …]``) under all
  resource constraints; Constrained_BB maximizes ``f2``; Constrained_SSD
  maximizes ``f3``.
* Weighted methods maximize a weighted sum of *utilizations*, i.e. coeffs
  are the site weights divided by the per-resource capacity scales.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import SolverError
from ..rng import SeedLike
from .ga import DEFAULT_GENERATIONS, DEFAULT_MUTATION, DEFAULT_POPULATION, MOGASolver
from .problem import MOOProblem


@dataclass(frozen=True)
class ScalarSolution:
    """Best solution found by a scalarized GA run."""

    genes: np.ndarray
    objectives: np.ndarray
    fitness: float


class ScalarGASolver(MOGASolver):
    """Elitist GA maximizing a linear combination of the objectives.

    Parameters
    ----------
    coeffs:
        Weights applied to the problem's objective vector.  Length must
        match ``problem.n_objectives`` at solve time.
    """

    def __init__(
        self,
        coeffs: Sequence[float],
        generations: int = DEFAULT_GENERATIONS,
        population: int = DEFAULT_POPULATION,
        mutation: float = DEFAULT_MUTATION,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(
            generations=generations,
            population=population,
            mutation=mutation,
            selection="age",
            seed=seed,
        )
        self.coeffs = np.asarray(coeffs, dtype=float)
        if self.coeffs.ndim != 1 or self.coeffs.size == 0:
            raise SolverError(f"coeffs must be a non-empty vector, got {self.coeffs}")

    def _check_objectives(self, k: int) -> None:
        if k != self.coeffs.size:
            raise SolverError(
                f"problem has {k} objectives, solver has {self.coeffs.size} coefficients"
            )

    def _select(self, objs):
        """Keep the ``P`` fittest *unique* chromosomes, unpadded.

        ``objs`` holds one row per unique chromosome (clones freeze the
        crossover gene pool), youngest first, and the sort is stable, so
        newer chromosomes win fitness ties.
        """
        self._check_objectives(len(objs[0]))
        fitness = (np.array(objs) @ self.coeffs).tolist()
        order = sorted(range(len(objs)), key=lambda j: -fitness[j])
        return order[: self.population]

    def best(self, problem: MOOProblem, seed: SeedLike = None) -> ScalarSolution:
        """Run the GA and return the single fittest solution found."""
        pareto = self.solve(problem, seed=seed)
        if len(pareto) == 0:
            return ScalarSolution(
                genes=np.zeros(problem.w, dtype=np.uint8),
                objectives=np.zeros(problem.n_objectives),
                fitness=0.0,
            )
        fitness = pareto.objectives @ self.coeffs
        i = int(np.argmax(fitness))
        return ScalarSolution(
            genes=pareto.genes[i],
            objectives=pareto.objectives[i],
            fitness=float(fitness[i]),
        )
