"""Solver-backed selectors: one window problem, pluggable objectives.

BBSched and the §4.3 weighted and constrained methods formulate the same
§3.2.1 window-selection problem and solve it with the same GA budget.
They differ only in what they ask the solver for: BBSched a Pareto front
collapsed by the 2×/4× decision rule, the others one linear
scalarization.  :class:`SolverSelector` owns what they share — the
solver built from its registry name, the random stream threaded across
passes, the optional optimality yardstick, the problem formulation, and
the end-of-run telemetry report — and :class:`ScalarizedSelector` is the
one scalar path: a subclass supplies only its coefficients.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, List, Optional, Sequence, Union

import numpy as np

from ..core.params import DEFAULT_GENERATIONS, DEFAULT_MUTATION, DEFAULT_POPULATION
from ..core.problem import MOOProblem, SelectionProblem, SSDSelectionProblem
from ..rng import SeedLike, make_rng
from ..simulator.cluster import Available
from ..simulator.job import Job
from ..solvers.base import WindowSolver
from ..solvers.gap import OptimalityYardstick
from ..solvers.registry import make_window_solver
from .base import Selector, SystemCapacity, has_ssd_tiers

if TYPE_CHECKING:
    from ..telemetry.metrics import MetricsRegistry


class SolverSelector(Selector):
    """A selector whose choice is a window solver's answer.

    Parameters
    ----------
    generations, population, mutation, selection:
        GA knobs handed to :func:`~repro.solvers.registry.make_window_solver`
        (exact solvers ignore them).
    seed:
        Seed of the solver's random stream, one stream across passes;
        deterministic solvers never consume it.
    solver:
        A :class:`WindowSolver` instance, a registry name, or ``None`` for
        the paper's GA (``"ga"``).
    yardstick:
        Optional :class:`OptimalityYardstick`: each pass is re-solved
        exactly under the method's scalarization and the gap recorded
        (RNG-free, so it never perturbs the run).
    """

    def __init__(
        self,
        *,
        generations: int = DEFAULT_GENERATIONS,
        population: int = DEFAULT_POPULATION,
        mutation: float = DEFAULT_MUTATION,
        selection: str = "age",
        seed: SeedLike = None,
        solver: Union[WindowSolver, str, None] = None,
        yardstick: Optional[OptimalityYardstick] = None,
    ) -> None:
        super().__init__()
        if not isinstance(solver, WindowSolver):
            solver = make_window_solver(
                solver or "ga",
                generations=generations,
                population=population,
                mutation=mutation,
                selection=selection,
            )
        self.solver: WindowSolver = solver
        self.yardstick = yardstick
        self._rng = make_rng(seed)

    @property
    def eval_cache_stats(self) -> Optional[dict]:
        """The solver's cache counters (``None`` for a solver without one)."""
        return self.solver.eval_cache_stats

    def build_problem(self, window: Sequence[Job], avail: Available) -> MOOProblem:
        """The pass's problem: four objectives on a cluster with SSD tiers
        (§5), the two-objective node/BB problem otherwise (§3.2.1)."""
        if has_ssd_tiers(avail):
            return SSDSelectionProblem(window, avail.nodes, avail.bb, avail.ssd_free)
        return SelectionProblem.from_window(window, avail.nodes, avail.bb)

    def report(self, metrics: MetricsRegistry) -> None:
        """``ga.eval_cache.*`` counters, and the yardstick's
        ``ga.optimality_gap`` histogram and ``ga.yardstick.skipped``."""
        stats = self.eval_cache_stats
        if stats:
            for key, value in stats.items():
                metrics.inc(f"ga.eval_cache.{key}", value)
        if self.yardstick is None:
            return
        if self.yardstick.gaps:
            gap_hist = metrics.histogram("ga.optimality_gap")
            for gap in self.yardstick.gaps:
                gap_hist.observe(gap)
        if self.yardstick.skipped:
            metrics.inc("ga.yardstick.skipped", self.yardstick.skipped)


class ScalarizedSelector(SolverSelector):
    """Maximize one linear scalarization ``coeffs · F(x)`` per pass."""

    @abc.abstractmethod
    def coefficients(self, problem: MOOProblem, system: SystemCapacity) -> np.ndarray:
        """Scalarization coefficients over ``problem``'s raw objectives."""

    def select(self, window: Sequence[Job], avail: Available) -> List[int]:
        system = self._require_system()
        if not window:
            return []
        problem = self.build_problem(window, avail)
        coeffs = self.coefficients(problem, system)
        best = self.solver.solve_scalar(problem, coeffs, seed=self._rng)
        if self.yardstick is not None:
            self.yardstick.measure(problem, coeffs, best.fitness)
        return [int(i) for i in np.flatnonzero(best.genes)]
