"""BBSched: the paper's multi-resource scheduling scheme (§3).

``BBSchedSelector`` is the plug-in that sits on top of a base scheduler:
at each invocation it formulates the window-selection MOO problem
(§3.2.1 — two objectives for node+burst-buffer systems, §5 — four
objectives when the cluster has heterogeneous local SSD tiers), hands it
to a pluggable :class:`~repro.solvers.base.WindowSolver` (the paper's
multi-objective GA by default, §3.2.2 — or the exact MILP / exhaustive
solvers from :mod:`repro.solvers`), and applies the site decision rule
(§3.2.4) to pick the dispatched solution.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from ..methods.base import Selector
from ..rng import SeedLike, make_rng
from ..simulator.cluster import Available
from ..simulator.job import Job
from ..solvers.base import WindowSolver
from ..solvers.ga import GAWindowSolver
from ..solvers.gap import OptimalityYardstick
from ..telemetry import get_tracer
from .decision import DecisionRule, four_resource_rule, two_resource_rule
from .ga import DEFAULT_GENERATIONS, DEFAULT_MUTATION, DEFAULT_POPULATION
from .problem import MOOProblem, SelectionProblem, SSDSelectionProblem


class BBSchedSelector(Selector):
    """Window job selection via MOO + pluggable solver + decision rule.

    Parameters
    ----------
    generations, population, mutation:
        GA parameters ``G``, ``P``, ``p_m`` (§4.3 defaults: 500, 20, 0.05%).
        Consumed by GA-backed solvers; exact solvers ignore them.
    selection:
        GA survival scheme — ``"age"`` (paper) or ``"crowding"`` (ablation).
    decision:
        Decision rule; defaults to the 2× rule, or the 4× rule automatically
        when the cluster exposes SSD tiers.  Pass explicitly to override.
    seed:
        Seed for the solver's random stream (one stream across
        invocations; deterministic solvers never consume it, so swapping
        them in and out does not perturb GA-seeded runs).
    solver:
        A :class:`WindowSolver` instance, a registry name
        (``"ga"``, ``"scalar"``, ``"milp"``, ``"exhaustive"``), or ``None``
        for the paper's GA built from the knobs above.
    yardstick:
        Optional :class:`OptimalityYardstick`: each pass's selection
        problem is re-solved exactly under the equal-utilization
        scalarization and the GA-vs-exact gap recorded (never perturbs
        the run itself).
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
        super().__init__()
        if solver is None:
            solver = GAWindowSolver(
                generations=generations,
                population=population,
                mutation=mutation,
                selection=selection,
            )
        elif isinstance(solver, str):
            from ..solvers.registry import make_window_solver

            solver = make_window_solver(
                solver,
                generations=generations,
                population=population,
                mutation=mutation,
                selection=selection,
            )
        self.solver: WindowSolver = solver
        self.decision = decision
        self.yardstick = yardstick
        self._rng = make_rng(seed)

    @property
    def eval_cache_stats(self):
        """Solver cache counters (``None`` for a solver without a cache).

        The engine harvests these at end of run into the
        ``ga.eval_cache.*`` telemetry counters.
        """
        return self.solver.eval_cache_stats

    def build_problem(self, window: Sequence[Job], avail: Available) -> MOOProblem:
        """Formulate the MOO problem for the current invocation."""
        ssd_relevant = len(avail.ssd_free) > 1 or any(
            cap > 0 for cap in avail.ssd_free
        )
        if ssd_relevant:
            return SSDSelectionProblem(
                window, avail.nodes, avail.bb, avail.ssd_free
            )
        return SelectionProblem.from_window(window, avail.nodes, avail.bb)

    def select(self, window: Sequence[Job], avail: Available) -> List[int]:
        system = self._require_system()
        if not window:
            return []
        problem = self.build_problem(window, avail)
        pareto = self.solver.solve(problem, seed=self._rng)
        if len(pareto) == 0:
            return []
        if problem.n_objectives == 4:
            rule = self.decision or four_resource_rule()
            scales = system.scales4()
        else:
            rule = self.decision or two_resource_rule()
            scales = system.scales2()
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
