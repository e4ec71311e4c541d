"""Experiment runners: one module per paper table/figure.

See DESIGN.md's experiment index for the mapping.  Every module exposes
``run(scale=...) -> result`` and ``render(result) -> str``.
"""

from . import (
    ablation,
    fig2,
    fig4,
    fig5,
    fig6_7,
    fig8,
    fig9_11,
    fig12,
    fig13,
    fig14,
    overheads,
    table1,
    table3,
)
from .config import BASE_SEED, SCALES, Scale, get_scale
from .grid import metric_table, run_grid, run_spec
from .kiviat import AXES_SECTION4, AXES_SECTION5, kiviat_areas, normalize, polygon_area
from .runner import RunResult, policy_for, run_one
from .spec import RunSpec
from .workloads import (
    ALL_WORKLOADS,
    CORI_WORKLOADS,
    THETA_WORKLOADS,
    get_all_workloads,
    get_ssd_workloads,
    get_workload,
)

__all__ = [
    "Scale",
    "SCALES",
    "BASE_SEED",
    "get_scale",
    "RunResult",
    "run_one",
    "RunSpec",
    "run_spec",
    "policy_for",
    "run_grid",
    "metric_table",
    "get_workload",
    "get_all_workloads",
    "get_ssd_workloads",
    "ALL_WORKLOADS",
    "CORI_WORKLOADS",
    "THETA_WORKLOADS",
    "kiviat_areas",
    "normalize",
    "polygon_area",
    "AXES_SECTION4",
    "AXES_SECTION5",
    "table1",
    "table3",
    "fig2",
    "fig4",
    "fig5",
    "fig6_7",
    "fig8",
    "fig9_11",
    "fig12",
    "fig13",
    "fig14",
    "overheads",
    "ablation",
]
