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

from typing import Optional, Union

import numpy as np

from ..core.params import DEFAULT_GENERATIONS, DEFAULT_MUTATION, DEFAULT_POPULATION
from ..core.problem import MOOProblem
from ..errors import ConfigurationError
from ..rng import SeedLike
from ..solvers.base import WindowSolver
from ..solvers.gap import OptimalityYardstick
from .base import SystemCapacity
from .solved import ScalarizedSelector

#: Objective index per optimization target (column of the MOO objective
#: matrix: f1 nodes, f2 burst buffer, f3 local SSD).
_TARGETS = {"cpu": 0, "bb": 1, "ssd": 2}


class ConstrainedSelector(ScalarizedSelector):
    """Maximize one resource's utilization under all capacity constraints.

    Parameters
    ----------
    target:
        ``"cpu"``, ``"bb"``, or ``"ssd"`` — which utilization to maximize.
        ``"ssd"`` requires a cluster with local SSD tiers.
    generations, population, mutation, seed, solver, yardstick:
        As for :class:`~repro.methods.solved.SolverSelector`.
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
        if target not in _TARGETS:
            raise ConfigurationError(
                f"target must be one of {sorted(_TARGETS)}, got {target!r}"
            )
        super().__init__(
            generations=generations, population=population, mutation=mutation,
            seed=seed, solver=solver, yardstick=yardstick,
        )
        self.target = target
        self.name = f"Constrained_{target.upper()}"

    def coefficients(self, problem: MOOProblem, system: SystemCapacity) -> np.ndarray:
        index = _TARGETS[self.target]
        if index >= problem.n_objectives:
            raise ConfigurationError(
                "Constrained_SSD requires a cluster with local SSD tiers"
            )
        coeffs = np.zeros(problem.n_objectives)
        coeffs[index] = 1.0
        return coeffs


def constrained_cpu(**kw) -> ConstrainedSelector:
    """§4.3 ``Constrained_CPU``."""
    return ConstrainedSelector("cpu", **kw)


def constrained_bb(**kw) -> ConstrainedSelector:
    """§4.3 ``Constrained_BB``."""
    return ConstrainedSelector("bb", **kw)


def constrained_ssd(**kw) -> ConstrainedSelector:
    """§5 ``Constrained_SSD``."""
    return ConstrainedSelector("ssd", **kw)
