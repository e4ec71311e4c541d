"""BBSched: the paper's multi-resource scheduling scheme (§3).

``BBSchedSelector`` is the plug-in that sits on top of a base scheduler:
at each invocation it formulates the window-selection MOO problem
(§3.2.1 — two objectives for node+burst-buffer systems, §5 — four
objectives when the cluster has heterogeneous local SSD tiers), hands it
to a pluggable :class:`~repro.solvers.base.WindowSolver` (the paper's
multi-objective GA by default, §3.2.2 — or the exact MILP / exhaustive
solvers from :mod:`repro.solvers`), and applies the site decision rule
(§3.2.4) to pick the dispatched solution.  The solver, its random
stream, the problem formulation and the end-of-run report are
:class:`~repro.methods.solved.SolverSelector`'s, shared with the
weighted and constrained methods.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from ..methods.solved import SolverSelector
from ..rng import SeedLike
from ..simulator.cluster import Available
from ..simulator.job import Job
from ..solvers.base import WindowSolver
from ..solvers.gap import OptimalityYardstick
from ..telemetry import get_tracer
from .decision import DecisionRule, four_resource_rule, two_resource_rule
from .params import DEFAULT_GENERATIONS, DEFAULT_MUTATION, DEFAULT_POPULATION


class BBSchedSelector(SolverSelector):
    """Window job selection via MOO + pluggable solver + decision rule.

    Parameters
    ----------
    selection:
        GA survival scheme — ``"age"`` (paper) or ``"crowding"`` (ablation).
    decision:
        Decision rule; defaults to the 2× rule, or the 4× rule automatically
        when the cluster exposes SSD tiers.  Pass explicitly to override.
    generations, population, mutation, seed, solver, yardstick:
        As for :class:`~repro.methods.solved.SolverSelector`; the
        yardstick measures the best equal-utilization scalarization over
        the solver's front.
    """

    name = "BBSched"

    def __init__(
        self,
        generations: int = DEFAULT_GENERATIONS,
        population: int = DEFAULT_POPULATION,
        mutation: float = DEFAULT_MUTATION,
        selection: str = "age",
        decision: Optional[DecisionRule] = None,
        seed: SeedLike = None,
        solver: Union[WindowSolver, str, None] = None,
        yardstick: Optional[OptimalityYardstick] = None,
    ) -> None:
        super().__init__(
            generations=generations, population=population, mutation=mutation,
            selection=selection, seed=seed, solver=solver, yardstick=yardstick,
        )
        self.decision = decision

    def select(self, window: Sequence[Job], avail: Available) -> List[int]:
        system = self._require_system()
        if not window:
            return []
        problem = self.build_problem(window, avail)
        pareto = self.solver.solve(problem, seed=self._rng)
        if len(pareto) == 0:
            return []
        rule = self.decision or (
            four_resource_rule() if problem.n_objectives == 4 else two_resource_rule()
        )
        scales = system.scales(problem.n_objectives)
        if self.yardstick is not None:
            # Equal-utilization scalarization: each objective weighted by
            # the inverse of its capacity, mirroring the decision rule's
            # normalisation.  Deterministic and RNG-free.
            coeffs = 1.0 / np.asarray(scales, dtype=float)
            self.yardstick.measure_front(problem, coeffs, pareto)
        with get_tracer().span(
            "decision_rule", front=len(pareto), objectives=problem.n_objectives
        ) as span:
            chosen = rule.choose(pareto, scales)
            picks = [int(i) for i in np.flatnonzero(chosen.genes)]
            span.set(picked=len(picks))
        return picks
