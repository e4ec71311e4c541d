"""Window-solver registry: names on the CLI → configured solver plugins.

``--solver {ga,scalar,milp,exhaustive}`` composes with every selection
method: the registry constructs the solver from the run's GA knobs (which
GA-backed solvers consume and exact solvers ignore) and the selectors
treat it as an opaque :class:`~repro.solvers.base.WindowSolver`.  Adding
a solver family (an RL policy à la MRSch, a different exact method) is
one class plus one registry row.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from ..core.ga import DEFAULT_GENERATIONS, DEFAULT_MUTATION, DEFAULT_POPULATION
from ..errors import ConfigurationError
from .base import WindowSolver
from .exhaustive import ExhaustiveWindowSolver
from .ga import GAWindowSolver, ScalarGAWindowSolver
from .milp import MILPWindowSolver

#: name → (factory, one-line description for ``repro solvers``).
_REGISTRY: Dict[str, Tuple[Callable[..., WindowSolver], str]] = {}


def register_window_solver(
    name: str, factory: Callable[..., WindowSolver], description: str
) -> None:
    """Add a solver family to the registry (idempotent per name)."""
    _REGISTRY[name] = (factory, description)


def available_window_solvers() -> Tuple[str, ...]:
    """Registered solver names, in registration order."""
    return tuple(_REGISTRY)


def solver_matrix() -> Tuple[dict, ...]:
    """One row per registered solver: name, exactness, description."""
    rows = []
    for name, (factory, description) in _REGISTRY.items():
        probe = factory()
        rows.append(
            {"name": name, "exact": bool(probe.exact), "description": description}
        )
    return tuple(rows)


def make_window_solver(
    name: str,
    *,
    generations: int = DEFAULT_GENERATIONS,
    population: int = DEFAULT_POPULATION,
    mutation: float = DEFAULT_MUTATION,
    selection: str = "age",
) -> WindowSolver:
    """Construct a registered solver from the run's knobs.

    GA knobs (``generations`` … ``selection``) configure GA-backed
    solvers and are ignored by exact ones.  Unknown names raise
    :class:`ConfigurationError` listing the registered choices.
    """
    if name not in _REGISTRY:
        raise ConfigurationError(
            f"unknown window solver {name!r}; "
            f"choices: {', '.join(available_window_solvers())}"
        )
    factory, _ = _REGISTRY[name]
    return factory(
        generations=generations,
        population=population,
        mutation=mutation,
        selection=selection,
    )


def _ga_factory(
    generations: int = DEFAULT_GENERATIONS,
    population: int = DEFAULT_POPULATION,
    mutation: float = DEFAULT_MUTATION,
    selection: str = "age",
) -> WindowSolver:
    return GAWindowSolver(
        generations=generations,
        population=population,
        mutation=mutation,
        selection=selection,
    )


def _scalar_factory(
    generations: int = DEFAULT_GENERATIONS,
    population: int = DEFAULT_POPULATION,
    mutation: float = DEFAULT_MUTATION,
    selection: str = "age",
) -> WindowSolver:
    return ScalarGAWindowSolver(
        generations=generations,
        population=population,
        mutation=mutation,
        selection=selection,
    )


def _milp_factory(**_ga_knobs) -> WindowSolver:
    return MILPWindowSolver()


def _exhaustive_factory(**_knobs) -> WindowSolver:
    return ExhaustiveWindowSolver()


register_window_solver(
    "ga",
    _ga_factory,
    "multi-objective genetic algorithm (§3.2.2; the paper's solver)",
)
register_window_solver(
    "scalar",
    _scalar_factory,
    "per-objective scalar GAs, union culled to the nondominated set",
)
register_window_solver(
    "milp",
    _milp_factory,
    "exact 0/1 integer programming (level DP plus branch-and-bound)",
)
register_window_solver(
    "exhaustive",
    _exhaustive_factory,
    "full 2^w enumeration (exact; refuses w > 26)",
)
