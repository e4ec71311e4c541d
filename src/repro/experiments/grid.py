"""The §4 evaluation grid: 8 methods × 10 workloads.

Figures 6, 7, 8, 12, and 13 all read from the same grid of simulation
runs, so it is computed once per set of cell specs and memoised for the
process lifetime.  Each cell is an independent simulation described by
one :class:`~repro.experiments.spec.RunSpec`, seed included, and run by
:func:`run_spec`; multi-core machines execute cells through
:func:`repro.parallel.parallel_map`.

Long grids are made pre-emption-safe by the results ledger
(:class:`repro.checkpoint.ResultsLedger`): with ``ledger=...`` every
completed cell is durably appended the moment it finishes, and
``resume=True`` reloads those cells and dispatches only the missing (or
previously failed) ones — a SIGKILL mid-grid costs at most the cells
that were in flight.
"""

from __future__ import annotations

import dataclasses
import os
from functools import lru_cache
from typing import Any, Dict, Optional, Sequence, Tuple

from ..checkpoint import ResultsLedger
from ..errors import ConfigurationError, TaskError
from ..methods import METHODS_SECTION4
from ..parallel import parallel_map
from ..telemetry import TelemetrySnapshot, merge_snapshots
from .config import Scale, get_scale
from .runner import RunResult, run_one
from .spec import RunSpec, cell_seed  # noqa: F401  (cell_seed: re-exported)
from .workloads import ALL_WORKLOADS, get_workload

#: Grid cell key: (workload label, method name).
GridKey = Tuple[str, str]
Grid = Dict[GridKey, RunResult]


def run_spec(spec: RunSpec, **extra: Any) -> RunResult:
    """Simulate one :class:`RunSpec` (module-level so it pickles for the pool).

    ``extra`` passes :func:`run_one`'s knobs that are not part of a run's
    identity: ``yardstick``, ``checkpoint``, ``resume_from``.
    """
    scale = get_scale(spec.scale)
    trace = get_workload(spec.workload, scale)
    return run_one(
        trace, spec.method, scale, seed=spec.seed, solver=spec.solver,
        window=spec.window, generations=spec.generations, faults=spec.faults,
        watchdog_budget=spec.watchdog_budget, collect_telemetry=spec.telemetry,
        retry=spec.retry(), **extra,
    )


def _carried(scale: Scale) -> Scale:
    """``scale``, refused if it differs from its named scale in a field a
    :class:`RunSpec` cannot carry (pool workers rebuild it from the name)."""
    named = get_scale(scale.name)
    lost = [f.name for f in dataclasses.fields(Scale)
            if getattr(scale, f.name) != getattr(named, f.name)
            and f.name not in ("window", "generations", "faults", "watchdog_budget")]
    if lost:
        raise ConfigurationError(
            f"scale {scale.name!r} overrides {lost}; a grid cell carries only "
            "window, generations, faults and watchdog_budget over its named scale")
    return scale


@lru_cache(maxsize=4)
def _grid_cached(specs: Tuple[RunSpec, ...], workers: Optional[int]) -> tuple:
    return tuple(parallel_map(run_spec, [(s,) for s in specs], workers=workers))


def run_grid(
    scale: Optional[Scale] = None,
    *,
    workloads: Sequence[str] = ALL_WORKLOADS,
    methods: Sequence[str] = METHODS_SECTION4,
    workers: Optional[int] = None,
    telemetry: bool = False,
    ledger: Optional[os.PathLike | str] = None,
    resume: bool = False,
    task_timeout: Optional[float] = None,
    task_retries: int = 0,
) -> Grid:
    """All (workload, method) runs as a dictionary keyed by (workload, method).

    Each cell is the :class:`RunSpec` of its (workload, method) at
    ``scale``, with the scale's window, generations, fault scenario and
    watchdog budget and the cell's :func:`cell_seed`.  Results are
    memoised per tuple of specs.

    ``telemetry=True`` makes every cell collect a per-run
    :class:`~repro.telemetry.TelemetrySnapshot` (even when cells execute
    on pool workers); aggregate them with :func:`grid_telemetry`.

    ``ledger`` switches to durable execution: each completed cell is
    appended to the JSONL ledger as it finishes (bypassing the in-process
    memoisation).  With ``resume=True`` cells already in the ledger under
    the same spec digest are returned without recomputation; without it
    the ledger is truncated first.  ``task_timeout``/``task_retries`` are
    handed to :func:`~repro.parallel.parallel_map` supervision; a cell
    that exhausts its budget is recorded as a failure line (and
    re-dispatched by the next ``resume=True`` run) before the
    :class:`~repro.errors.TaskError` propagates.
    """
    sc = _carried(scale or get_scale())
    specs = tuple(RunSpec.create(w, m, sc, telemetry=telemetry)
                  for w in workloads for m in methods)
    if ledger is None:
        return {(s.workload, s.method): r
                for s, r in zip(specs, _grid_cached(specs, workers))}
    book = ResultsLedger(ledger)
    done: Dict[RunSpec, RunResult] = {}
    if resume:
        cells = book.load().cells
        done = {s: cells[s.digest()] for s in specs if s.digest() in cells}
    else:
        book.reset()
    todo = [s for s in specs if s not in done]

    def persist(index: int, result: RunResult) -> None:
        book.append_result(result, spec=todo[index])

    try:
        fresh = parallel_map(
            run_spec, [(s,) for s in todo], workers=workers,
            timeout=task_timeout, retries=task_retries, on_result=persist,
        )
    except TaskError as exc:
        spec = exc.task[0]
        book.append_failure(
            workload=spec.workload, method=spec.method, scale=spec.scale,
            error=str(exc), attempts=exc.attempts,
            traceback_text=exc.traceback_text,
        )
        raise
    done.update(zip(todo, fresh))
    return {(s.workload, s.method): done[s] for s in specs}


def grid_telemetry(grid: Grid) -> TelemetrySnapshot:
    """The exact union of every cell's telemetry snapshot.

    Cells run without telemetry contribute nothing; an all-untraced grid
    yields an empty snapshot.
    """
    return merge_snapshots(
        r.telemetry for r in grid.values() if r.telemetry is not None
    )


def metric_table(
    grid: Grid, metric: str, workloads: Sequence[str], methods: Sequence[str]
) -> Dict[str, Dict[str, float]]:
    """Pivot a grid into ``{workload: {method: value}}`` for one metric."""
    return {
        w: {m: grid[(w, m)].metric(metric) for m in methods if (w, m) in grid}
        for w in workloads
    }
