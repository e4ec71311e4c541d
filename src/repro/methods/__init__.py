"""Multi-resource scheduling methods compared in §4.3 and §5."""

from .base import Selector, SystemCapacity
from .binpacking import BinPackingSelector
from .constrained import (
    ConstrainedSelector,
    constrained_bb,
    constrained_cpu,
    constrained_ssd,
)
from .naive import NaiveSelector
from .registry import (
    METHODS_SECTION4,
    METHODS_SECTION5,
    SOLVER_BACKED,
    available_methods,
    make_selector,
)
from .weighted import WeightedSelector, weighted_bb, weighted_cpu, weighted_equal

__all__ = [
    "Selector",
    "SystemCapacity",
    "NaiveSelector",
    "WeightedSelector",
    "ConstrainedSelector",
    "BinPackingSelector",
    "weighted_equal",
    "weighted_cpu",
    "weighted_bb",
    "constrained_cpu",
    "constrained_bb",
    "constrained_ssd",
    "make_selector",
    "available_methods",
    "METHODS_SECTION4",
    "METHODS_SECTION5",
    "SOLVER_BACKED",
]
