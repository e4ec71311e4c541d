"""Discrete-event HPC scheduling simulator and resource models."""

from .cluster import Available, Cluster
from .engine import EngineStats, SchedulingEngine, SimulationResult
from .events import Event, EventQueue, EventType
from .job import Job, JobState
from .metrics import (
    ABNORMAL_RUNTIME,
    Interval,
    MetricsSummary,
    ResilienceSummary,
    average_slowdown,
    average_wait,
    compute_resilience_summary,
    compute_summary,
    trimmed_interval,
    wait_by_bb_request,
    wait_by_job_size,
    wait_by_runtime,
)
from .recorder import StepSeries, UsageRecorder
from .ssd_pool import SSDAssignment, SSDPool
from .validate import ValidationReport, Violation, validate_schedule

__all__ = [
    "Job",
    "JobState",
    "Event",
    "EventQueue",
    "EventType",
    "Cluster",
    "Available",
    "SSDPool",
    "SSDAssignment",
    "StepSeries",
    "UsageRecorder",
    "SchedulingEngine",
    "SimulationResult",
    "EngineStats",
    "Interval",
    "MetricsSummary",
    "ResilienceSummary",
    "compute_summary",
    "compute_resilience_summary",
    "trimmed_interval",
    "average_wait",
    "average_slowdown",
    "wait_by_job_size",
    "wait_by_bb_request",
    "wait_by_runtime",
    "ABNORMAL_RUNTIME",
    "validate_schedule",
    "ValidationReport",
    "Violation",
]
