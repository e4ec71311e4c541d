"""Factory registry for the §4.3 / §5 scheduling methods.

Experiments refer to methods by the paper's names; :func:`make_selector`
builds a fresh, independently seeded selector per simulation run so
parallel sweeps never share mutable state.  The optimization-backed
methods additionally accept a *window solver* name — the paper's GA, the
exact MILP, exhaustive enumeration — routed through
:mod:`repro.solvers.registry`, so ``--solver`` composes with every
method.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Union

from ..core.params import DEFAULT_GENERATIONS, DEFAULT_MUTATION, DEFAULT_POPULATION
from ..errors import ConfigurationError
from ..rng import SeedLike
from .base import Selector
from .binpacking import BinPackingSelector
from .constrained import constrained_bb, constrained_cpu, constrained_ssd
from .naive import NaiveSelector
from .weighted import weighted_bb, weighted_cpu, weighted_equal

#: The eight methods of the §4 evaluation, in the paper's presentation order.
METHODS_SECTION4: tuple[str, ...] = (
    "Baseline",
    "Weighted",
    "Weighted_CPU",
    "Weighted_BB",
    "Constrained_CPU",
    "Constrained_BB",
    "Bin_Packing",
    "BBSched",
)

#: The seven methods of the §5 local-SSD case study.
METHODS_SECTION5: tuple[str, ...] = (
    "Baseline",
    "Weighted",
    "Constrained_CPU",
    "Constrained_BB",
    "Constrained_SSD",
    "Bin_Packing",
    "BBSched",
)

#: Methods whose selection is a solver run (and can therefore take
#: ``solver=``/``yardstick=``); the greedy methods ignore both.
SOLVER_BACKED: tuple[str, ...] = (
    "Weighted",
    "Weighted_CPU",
    "Weighted_BB",
    "Constrained_CPU",
    "Constrained_BB",
    "Constrained_SSD",
    "BBSched",
)


def make_selector(
    name: str,
    *,
    generations: int = DEFAULT_GENERATIONS,
    population: int = DEFAULT_POPULATION,
    mutation: float = DEFAULT_MUTATION,
    seed: SeedLike = None,
    solver: Optional[str] = None,
    yardstick: Union[bool, object] = False,
) -> Selector:
    """Build a selector by its §4.3 name.

    GA parameters apply to every GA-backed method (identical optimization
    budget keeps the comparison about the *formulation*, not solver time);
    the greedy methods (Baseline, Bin_Packing) ignore them.

    ``solver`` names a window solver from :mod:`repro.solvers.registry`
    (``"ga"``, ``"scalar"``, ``"milp"``, ``"exhaustive"``); ``None`` keeps
    each method's stock GA.  ``yardstick=True`` attaches a fresh
    :class:`~repro.solvers.gap.OptimalityYardstick` (or pass an instance
    to share one), recording the per-pass method-vs-exact optimality gap
    into the run's telemetry.  Both only apply to the solver-backed
    methods; the greedy methods ignore them.
    """
    # Imported here, not at module scope: BBSchedSelector lives in repro.core,
    # which itself imports repro.methods.base — a top-level import would cycle.
    from ..core.bbsched import BBSchedSelector

    yd = None
    if yardstick:
        from ..solvers.gap import OptimalityYardstick

        yd = yardstick if isinstance(yardstick, OptimalityYardstick) else None
        if yd is None:
            yd = OptimalityYardstick()
    # "ga" names each method's stock configuration, so the selectors build
    # their own GA from the knobs (byte-identical to solver=None).
    solver_name = None if solver in (None, "ga") else solver
    ga = dict(
        generations=generations,
        population=population,
        mutation=mutation,
    )
    solved = dict(ga, solver=solver_name, yardstick=yd)
    factories: Dict[str, Callable[[], Selector]] = {
        "Baseline": NaiveSelector,
        "Weighted": lambda: weighted_equal(seed=seed, **solved),
        "Weighted_CPU": lambda: weighted_cpu(seed=seed, **solved),
        "Weighted_BB": lambda: weighted_bb(seed=seed, **solved),
        "Constrained_CPU": lambda: constrained_cpu(seed=seed, **solved),
        "Constrained_BB": lambda: constrained_bb(seed=seed, **solved),
        "Constrained_SSD": lambda: constrained_ssd(seed=seed, **solved),
        "Bin_Packing": BinPackingSelector,
        "BBSched": lambda: BBSchedSelector(seed=seed, **solved),
    }
    try:
        return factories[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown method {name!r}; known: {sorted(factories)}"
        ) from None


def available_methods() -> List[str]:
    """All method names :func:`make_selector` accepts."""
    return sorted(set(METHODS_SECTION4) | set(METHODS_SECTION5))
