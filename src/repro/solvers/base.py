"""The :class:`WindowSolver` plugin protocol.

A *window solver* answers the §3.2 window-selection problem in one of two
modes:

* :meth:`WindowSolver.solve` — the multi-objective mode: return a (true or
  approximate) Pareto set over the window, which a decision rule then
  collapses to one dispatched selection (BBSched's pipeline);
* :meth:`WindowSolver.solve_scalar` — the single-objective mode: return the
  best selection under a linear scalarization ``coeffs · F(x)`` (the
  weighted / constrained methods, and the optimality-gap yardstick).

Selectors (:mod:`repro.methods`) own the *formulation* — which problem to
build, which coefficients or decision rule to apply — and delegate the
*optimization* to a solver, so GA, exact MILP, exhaustive enumeration, and
future solvers (RL à la MRSch) are interchangeable drop-ins.  Solvers are
discovered by name through :mod:`repro.solvers.registry` and surface on
the CLI as ``--solver {ga,milp,exhaustive}``.

Contract notes for implementers:

* ``solve``/``solve_scalar`` must honour ``problem.forced`` (starvation
  bound, §3.1) and return only feasible selections — the engine verifies
  joint feasibility and raises on a solver bug.
* ``seed`` may be ``None``, an int, or a live ``numpy`` Generator that the
  caller threads across scheduling passes.  Deterministic solvers simply
  ignore it (and must not consume the stream, so swapping a deterministic
  yardstick in and out never perturbs a GA run).
* ``supports`` lets a solver refuse formulations it cannot represent
  exactly (the MILP solver and the §5 SSD problem, whose waste objective
  depends on a greedy joint tier assignment).  Callers check it to fail
  with a clear error instead of a wrong answer.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # avoid importing numpy-heavy modules for type hints only
    from ..core.ga import ParetoSet
    from ..core.problem import MOOProblem
    from ..core.scalar import ScalarSolution
    from ..rng import SeedLike


class WindowSolver(abc.ABC):
    """One way of solving the window-selection problem."""

    #: Registry name (``--solver`` value); subclasses override.
    name: str = "solver"
    #: True when results are provably optimal (exact Pareto set / exact
    #: scalar optimum), not a metaheuristic approximation.
    exact: bool = False

    @abc.abstractmethod
    def solve(self, problem: "MOOProblem", seed: "SeedLike" = None) -> "ParetoSet":
        """Pareto set of ``problem`` (true or approximate, per ``exact``)."""

    @abc.abstractmethod
    def solve_scalar(
        self,
        problem: "MOOProblem",
        coeffs: Sequence[float],
        seed: "SeedLike" = None,
    ) -> "ScalarSolution":
        """Best selection maximizing ``coeffs · F(x)`` over ``problem``."""

    def supports(self, problem: "MOOProblem") -> bool:
        """Can this solver represent ``problem`` faithfully?"""
        return True

    @property
    def eval_cache_stats(self) -> Optional[dict]:
        """GA evaluation-cache counters, for solvers that have one.

        The engine harvests these through the selector at end of run;
        solvers without a cache report ``None``.
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r}, exact={self.exact})"
