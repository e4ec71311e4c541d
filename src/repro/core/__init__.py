"""BBSched core: MOO formulation, solvers, and decision making (§3, §5)."""

from .bbsched import BBSchedSelector
from .decision import (
    Decision,
    DecisionRule,
    FOUR_RESOURCE_FACTOR,
    TWO_RESOURCE_FACTOR,
    four_resource_rule,
    two_resource_rule,
)
from .exhaustive import ExhaustiveSolver, MAX_EXHAUSTIVE_W, bit_matrix
from .ga import (
    DEFAULT_GENERATIONS,
    DEFAULT_MUTATION,
    DEFAULT_POPULATION,
    MOGASolver,
    ParetoSet,
    crowding_distance,
)
from .gd import generational_distance, hypervolume_2d
from .pareto import non_dominated_mask, pareto_front_2d, unique_front
from .problem import (
    MOOProblem,
    SelectionProblem,
    SSDSelectionProblem,
    window_demand_matrix,
)
from .scalar import ScalarGASolver, ScalarSolution

__all__ = [
    "MOOProblem",
    "SelectionProblem",
    "SSDSelectionProblem",
    "window_demand_matrix",
    "MOGASolver",
    "ScalarGASolver",
    "ScalarSolution",
    "ParetoSet",
    "ExhaustiveSolver",
    "bit_matrix",
    "MAX_EXHAUSTIVE_W",
    "non_dominated_mask",
    "pareto_front_2d",
    "unique_front",
    "crowding_distance",
    "generational_distance",
    "hypervolume_2d",
    "DecisionRule",
    "Decision",
    "two_resource_rule",
    "four_resource_rule",
    "TWO_RESOURCE_FACTOR",
    "FOUR_RESOURCE_FACTOR",
    "BBSchedSelector",
    "DEFAULT_GENERATIONS",
    "DEFAULT_POPULATION",
    "DEFAULT_MUTATION",
]
