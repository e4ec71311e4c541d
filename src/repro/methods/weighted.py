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

from typing import List, Optional, Sequence, Union

import numpy as np

from ..core.problem import SelectionProblem, SSDSelectionProblem
from ..core.params import DEFAULT_GENERATIONS, DEFAULT_MUTATION, DEFAULT_POPULATION
from ..errors import ConfigurationError
from ..rng import SeedLike, make_rng
from ..simulator.cluster import Available
from ..simulator.job import Job
from ..solvers.base import WindowSolver
from ..solvers.ga import GAWindowSolver
from ..solvers.gap import OptimalityYardstick
from .base import Selector


class WeightedSelector(Selector):
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
    solver:
        A :class:`WindowSolver`, a registry name, or ``None`` for the
        scalar GA built from the knobs above.
    yardstick:
        Optional :class:`OptimalityYardstick` recording the per-pass gap
        between this method's scalarized value and the exact optimum.
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
        super().__init__()
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
        self.node_weight = node_weight
        self.bb_weight = bb_weight
        self.ssd_weight = ssd_weight
        self.waste_weight = waste_weight
        self.name = name or "Weighted"
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
        system = self._require_system()
        if not window:
            return []
        ssd_tiers = len(avail.ssd_free) > 1 or any(c > 0 for c in avail.ssd_free)
        if ssd_tiers:
            problem = SSDSelectionProblem(window, avail.nodes, avail.bb, avail.ssd_free)
            scales = system.scales4()
            weights = (
                self.node_weight,
                self.bb_weight,
                self.ssd_weight,
                self.waste_weight,
            )
        else:
            problem = SelectionProblem.from_window(window, avail.nodes, avail.bb)
            scales = system.scales2()
            weights = (self.node_weight, self.bb_weight)
        coeffs = np.asarray(weights) / np.asarray(scales)
        best = self.solver.solve_scalar(problem, coeffs, seed=self._rng)
        if self.yardstick is not None:
            self.yardstick.measure(problem, coeffs, best.fitness)
        return [int(i) for i in np.flatnonzero(best.genes)]


def weighted_equal(**kw) -> WeightedSelector:
    """§4.3 ``Weighted``: 50%/50% node/BB."""
    return WeightedSelector(0.5, 0.5, name="Weighted", **kw)


def weighted_cpu(**kw) -> WeightedSelector:
    """§4.3 ``Weighted_CPU``: 80%/20% node/BB."""
    return WeightedSelector(0.8, 0.2, name="Weighted_CPU", **kw)


def weighted_bb(**kw) -> WeightedSelector:
    """§4.3 ``Weighted_BB``: 20%/80% node/BB."""
    return WeightedSelector(0.2, 0.8, name="Weighted_BB", **kw)
