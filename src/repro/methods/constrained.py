"""Constrained methods (§4.3): optimize one resource, constrain the rest.

``Constrained_CPU`` maximizes node utilization treating the burst buffer
(and SSD tiers) purely as feasibility constraints; ``Constrained_BB``
maximizes burst-buffer utilization; ``Constrained_SSD`` (§5) maximizes
local-SSD utilization.  Each is a single-objective optimization solved
with the same GA budget as BBSched (:mod:`repro.core.scalar`) — or
exactly, with ``solver="milp"`` — which is the strongest honest
implementation of the constrained approach the paper compares against.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from ..core.params import DEFAULT_GENERATIONS, DEFAULT_MUTATION, DEFAULT_POPULATION
from ..core.problem import SelectionProblem, SSDSelectionProblem
from ..errors import ConfigurationError
from ..rng import SeedLike, make_rng
from ..simulator.cluster import Available
from ..simulator.job import Job
from ..solvers.base import WindowSolver
from ..solvers.ga import GAWindowSolver
from ..solvers.gap import OptimalityYardstick
from .base import Selector

#: Objective index per optimization target (column of the MOO objective
#: matrix: f1 nodes, f2 burst buffer, f3 local SSD).
_TARGETS = {"cpu": 0, "bb": 1, "ssd": 2}


class ConstrainedSelector(Selector):
    """Maximize one resource's utilization under all capacity constraints.

    Parameters
    ----------
    target:
        ``"cpu"``, ``"bb"``, or ``"ssd"`` — which utilization to maximize.
        ``"ssd"`` requires a cluster with local SSD tiers.
    solver:
        A :class:`WindowSolver`, a registry name, or ``None`` for the
        scalar GA built from the knobs above.
    yardstick:
        Optional :class:`OptimalityYardstick` recording the per-pass gap
        between this method's scalarized value and the exact optimum.
    """

    def __init__(
        self,
        target: str = "cpu",
        *,
        generations: int = DEFAULT_GENERATIONS,
        population: int = DEFAULT_POPULATION,
        mutation: float = DEFAULT_MUTATION,
        seed: SeedLike = None,
        solver: Union[WindowSolver, str, None] = None,
        yardstick: Optional[OptimalityYardstick] = None,
    ) -> None:
        super().__init__()
        if target not in _TARGETS:
            raise ConfigurationError(
                f"target must be one of {sorted(_TARGETS)}, got {target!r}"
            )
        self.target = target
        self.name = f"Constrained_{target.upper()}"
        if solver is None:
            solver = GAWindowSolver(
                generations=generations,
                population=population,
                mutation=mutation,
            )
        elif isinstance(solver, str):
            from ..solvers.registry import make_window_solver

            solver = make_window_solver(
                solver,
                generations=generations,
                population=population,
                mutation=mutation,
            )
        self.solver: WindowSolver = solver
        self.yardstick = yardstick
        self._rng = make_rng(seed)

    @property
    def eval_cache_stats(self):
        """Cumulative cache counters across all select() calls, or None
        for a solver without a cache."""
        return self.solver.eval_cache_stats

    def select(self, window: Sequence[Job], avail: Available) -> List[int]:
        self._require_system()
        if not window:
            return []
        ssd_tiers = len(avail.ssd_free) > 1 or any(c > 0 for c in avail.ssd_free)
        if ssd_tiers:
            problem = SSDSelectionProblem(window, avail.nodes, avail.bb, avail.ssd_free)
        else:
            if self.target == "ssd":
                raise ConfigurationError(
                    "Constrained_SSD requires a cluster with local SSD tiers"
                )
            problem = SelectionProblem.from_window(window, avail.nodes, avail.bb)
        coeffs = np.zeros(problem.n_objectives)
        coeffs[_TARGETS[self.target]] = 1.0
        best = self.solver.solve_scalar(problem, coeffs, seed=self._rng)
        if self.yardstick is not None:
            self.yardstick.measure(problem, coeffs, best.fitness)
        return [int(i) for i in np.flatnonzero(best.genes)]


def constrained_cpu(**kw) -> ConstrainedSelector:
    """§4.3 ``Constrained_CPU``."""
    return ConstrainedSelector("cpu", **kw)


def constrained_bb(**kw) -> ConstrainedSelector:
    """§4.3 ``Constrained_BB``."""
    return ConstrainedSelector("bb", **kw)


def constrained_ssd(**kw) -> ConstrainedSelector:
    """§5 ``Constrained_SSD``."""
    return ConstrainedSelector("ssd", **kw)
