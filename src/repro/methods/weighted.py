"""Weighted-sum methods (§4.3): scalarize utilizations with site weights.

The weighted method maximizes ``Σ_r weight_r × utilization_r`` — a single
objective — using the same GA budget as BBSched (see
:mod:`repro.core.scalar`) or, with ``solver="milp"``, the exact 0/1
integer program.  Three §4.3 configurations:

* ``Weighted``      — 50/50 node/BB weights (resources equally important);
* ``Weighted_CPU``  — 80/20 (CPU more important);
* ``Weighted_BB``   — 20/80 (burst buffer more important).

For the §5 four-objective case ``Weighted`` becomes the equally weighted
sum of node, BB, SSD utilizations and the *negated* wasted-SSD percentage
(objective ``f4`` is already negated, so its coefficient stays positive).

Because the solvers' objectives are raw sums (nodes, GB), the utilization
weights are divided by the per-resource capacity scales before being
handed to the scalar solver.
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


class WeightedSelector(ScalarizedSelector):
    """Maximize a weighted sum of resource utilizations.

    Parameters
    ----------
    node_weight, bb_weight:
        Site weights for node and burst-buffer utilization; need not sum
        to one (only ratios matter).
    ssd_weight, waste_weight:
        Weights for the §5 objectives; ignored on systems without SSD
        tiers.  Defaults make the 4-objective ``Weighted`` method equally
        weighted, as §5 specifies.
    name:
        Result-table name; ``"Weighted"`` by default.
    generations, population, mutation, seed, solver, yardstick:
        As for :class:`~repro.methods.solved.SolverSelector`.
    """

    def __init__(
        self,
        node_weight: float = 0.5,
        bb_weight: float = 0.5,
        ssd_weight: float = 0.25,
        waste_weight: float = 0.25,
        *,
        name: Optional[str] = None,
        generations: int = DEFAULT_GENERATIONS,
        population: int = DEFAULT_POPULATION,
        mutation: float = DEFAULT_MUTATION,
        seed: SeedLike = None,
        solver: Union[WindowSolver, str, None] = None,
        yardstick: Optional[OptimalityYardstick] = None,
    ) -> None:
        for label, wgt in (
            ("node_weight", node_weight),
            ("bb_weight", bb_weight),
            ("ssd_weight", ssd_weight),
            ("waste_weight", waste_weight),
        ):
            if wgt < 0:
                raise ConfigurationError(f"{label} must be non-negative, got {wgt}")
        if node_weight + bb_weight == 0:
            raise ConfigurationError("node and BB weights cannot both be zero")
        super().__init__(
            generations=generations, population=population, mutation=mutation,
            seed=seed, solver=solver, yardstick=yardstick,
        )
        self.node_weight = node_weight
        self.bb_weight = bb_weight
        self.ssd_weight = ssd_weight
        self.waste_weight = waste_weight
        self.name = name or "Weighted"

    def coefficients(self, problem: MOOProblem, system: SystemCapacity) -> np.ndarray:
        weights = (self.node_weight, self.bb_weight, self.ssd_weight, self.waste_weight)
        n = problem.n_objectives
        return np.asarray(weights[:n]) / np.asarray(system.scales(n))


def weighted_equal(**kw) -> WeightedSelector:
    """§4.3 ``Weighted``: 50%/50% node/BB."""
    return WeightedSelector(0.5, 0.5, name="Weighted", **kw)


def weighted_cpu(**kw) -> WeightedSelector:
    """§4.3 ``Weighted_CPU``: 80%/20% node/BB."""
    return WeightedSelector(0.8, 0.2, name="Weighted_CPU", **kw)


def weighted_bb(**kw) -> WeightedSelector:
    """§4.3 ``Weighted_BB``: 20%/80% node/BB."""
    return WeightedSelector(0.2, 0.8, name="Weighted_BB", **kw)
