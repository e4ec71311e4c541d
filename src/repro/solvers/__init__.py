"""Interchangeable window-selection solvers (the §3.2 optimization core).

The :class:`~repro.solvers.base.WindowSolver` protocol decouples *what*
is being optimized (the selectors' problem formulations) from *how*
(GA, exact MILP, exhaustive enumeration, …).  See ``docs/solvers.md``
for the solver matrix and the optimality-gap methodology.
"""

from .base import WindowSolver
from .exhaustive import ExhaustiveWindowSolver
from .ga import GAWindowSolver
from .gap import OptimalityYardstick
from .milp import MILPWindowSolver
from .registry import (
    available_window_solvers,
    make_window_solver,
    register_window_solver,
    solver_matrix,
)

__all__ = [
    "WindowSolver",
    "GAWindowSolver",
    "ExhaustiveWindowSolver",
    "MILPWindowSolver",
    "OptimalityYardstick",
    "available_window_solvers",
    "make_window_solver",
    "register_window_solver",
    "solver_matrix",
]
