"""repro — reproduction of *Scheduling Beyond CPUs for HPC* (BBSched, HPDC 2019).

A multi-resource HPC batch-scheduling library built around a discrete-event
trace simulator.  The headline contribution, **BBSched**, selects jobs from
a window at the front of the priority queue by solving a multi-objective
optimization (node + burst-buffer (+ local SSD) utilization) with a genetic
algorithm, and picks one Pareto solution with a site decision rule.

Quick start::

    from repro import (Cluster, Job, SchedulingEngine, FCFS,
                       BBSchedSelector, WindowPolicy)

    cluster = Cluster(nodes=100, bb_capacity=100 * 1024)   # 100 nodes, 100 TB
    jobs = [Job(jid=i, submit_time=0, runtime=3600, walltime=3600,
                nodes=10 * (i + 1), bb=1024.0 * i) for i in range(5)]
    engine = SchedulingEngine(cluster, FCFS(), BBSchedSelector(generations=100),
                              WindowPolicy(size=5))
    result = engine.run(jobs)

See ``DESIGN.md`` for the full system inventory and ``EXPERIMENTS.md`` for
the paper-versus-measured record of every table and figure.
"""

from .core import (
    BBSchedSelector,
    Decision,
    DecisionRule,
    ExhaustiveSolver,
    MOGASolver,
    MOOProblem,
    ParetoSet,
    ScalarGASolver,
    SelectionProblem,
    SSDSelectionProblem,
    four_resource_rule,
    generational_distance,
    hypervolume_2d,
    non_dominated_mask,
    two_resource_rule,
)
from .errors import (
    AllocationError,
    ConfigurationError,
    ReproError,
    ResilienceError,
    SchedulingError,
    SolverError,
    SolverTimeoutError,
    TraceError,
)
from .methods import (
    BinPackingSelector,
    ConstrainedSelector,
    NaiveSelector,
    Selector,
    SystemCapacity,
    WeightedSelector,
    available_methods,
    make_selector,
)
from .policies import FCFS, WFP, PriorityPolicy
from .resilience import (
    SCENARIOS,
    FaultInjector,
    FaultScenario,
    GreedyFallbackSelector,
    RetryPolicy,
    SolverWatchdog,
    WatchdogStats,
    get_scenario,
)
from .simulator import (
    Available,
    Cluster,
    Interval,
    Job,
    JobState,
    MetricsSummary,
    ResilienceSummary,
    SchedulingEngine,
    SimulationResult,
    SSDPool,
    compute_resilience_summary,
    compute_summary,
    trimmed_interval,
)
from .simulator import ValidationReport, validate_schedule
from .telemetry import (
    MetricsRegistry,
    NullTracer,
    TelemetrySnapshot,
    Tracer,
    get_tracer,
    use_tracer,
)
from .windows import DynamicWindowPolicy, Window, WindowPolicy

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # simulator
    "Job",
    "JobState",
    "Cluster",
    "Available",
    "SSDPool",
    "SchedulingEngine",
    "SimulationResult",
    "MetricsSummary",
    "ResilienceSummary",
    "Interval",
    "compute_summary",
    "compute_resilience_summary",
    "trimmed_interval",
    # policies / window
    "PriorityPolicy",
    "FCFS",
    "WFP",
    "Window",
    "WindowPolicy",
    "DynamicWindowPolicy",
    "validate_schedule",
    "ValidationReport",
    # core
    "MOOProblem",
    "SelectionProblem",
    "SSDSelectionProblem",
    "MOGASolver",
    "ScalarGASolver",
    "ExhaustiveSolver",
    "ParetoSet",
    "DecisionRule",
    "Decision",
    "two_resource_rule",
    "four_resource_rule",
    "BBSchedSelector",
    "non_dominated_mask",
    "generational_distance",
    "hypervolume_2d",
    # methods
    "Selector",
    "SystemCapacity",
    "NaiveSelector",
    "WeightedSelector",
    "ConstrainedSelector",
    "BinPackingSelector",
    "make_selector",
    "available_methods",
    # resilience
    "FaultScenario",
    "FaultInjector",
    "SCENARIOS",
    "get_scenario",
    "RetryPolicy",
    "SolverWatchdog",
    "WatchdogStats",
    "GreedyFallbackSelector",
    # telemetry
    "Tracer",
    "NullTracer",
    "MetricsRegistry",
    "TelemetrySnapshot",
    "get_tracer",
    "use_tracer",
    # errors
    "ReproError",
    "ConfigurationError",
    "TraceError",
    "AllocationError",
    "SchedulingError",
    "SolverError",
    "SolverTimeoutError",
    "ResilienceError",
]
