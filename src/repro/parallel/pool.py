"""Supervised process-pool execution of experiment grids.

§3.2.2 notes the MOO solve "can be accelerated by leveraging parallel
processing"; at the harness level the natural parallel axis is the
experiment grid itself — 80 independent (method, workload) simulations in
§4.  :func:`parallel_map` fans a pure function over argument tuples on
the shared :class:`~repro.parallel.supervisor.Supervisor`, stepping it
from the calling thread, and degrades to serial execution on single-core
machines (``nproc==1``) or when ``workers=1`` — results are bit-identical
either way because every task carries its own seed.  Workers are
fork-started, so whatever the caller patched or registered before the
call (a custom solver, a probe) reaches them.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from typing import Any, Callable, List, Optional, Sequence, Tuple, TypeVar

from ..errors import ConfigurationError, TaskError
from ..resilience import BackoffPolicy
from .supervisor import DEFAULT_POOL_BACKOFF, Supervisor, Task

T = TypeVar("T")


def default_workers() -> int:
    """Worker count: ``REPRO_WORKERS`` env var, else CPU count − 1 (min 1)."""
    env = os.environ.get("REPRO_WORKERS")
    if env is not None:
        try:
            n = int(env)
        except ValueError as exc:
            raise ConfigurationError(
                f"REPRO_WORKERS={env!r} is not an integer"
            ) from exc
        if n < 1:
            raise ConfigurationError("REPRO_WORKERS must be >= 1")
        return n
    return max((os.cpu_count() or 1) - 1, 1)


def _format_exception(exc: BaseException) -> str:
    return "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))


def _task_error(
    index: int,
    task: Tuple[Any, ...],
    attempts: int,
    exc: Optional[BaseException] = None,
    reason: Optional[str] = None,
) -> TaskError:
    detail = reason if reason is not None else f"{type(exc).__name__}: {exc}"
    return TaskError(
        f"task {index} {tuple(task)!r} failed after {attempts} attempt(s): {detail}",
        index=index,
        task=tuple(task),
        attempts=attempts,
        traceback_text=_format_exception(exc) if exc is not None else "",
    )


def _serial_map(
    fn: Callable[..., T],
    tasks: Sequence[Tuple[Any, ...]],
    retries: int,
    backoff: BackoffPolicy,
    on_result: Optional[Callable[[int, T], None]],
) -> List[T]:
    results: List[T] = []
    for index, task in enumerate(tasks):
        attempts = 0
        while True:
            attempts += 1
            try:
                value = fn(*task)
            except Exception as exc:
                if attempts > retries:
                    raise _task_error(index, task, attempts, exc) from exc
                time.sleep(backoff.delay(attempts))
            else:
                results.append(value)
                if on_result is not None:
                    on_result(index, value)
                break
    return results


def parallel_map(
    fn: Callable[..., T],
    tasks: Sequence[Tuple[Any, ...]],
    *,
    workers: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: int = 0,
    backoff: Optional[BackoffPolicy] = None,
    on_result: Optional[Callable[[int, T], None]] = None,
) -> List[T]:
    """Apply ``fn(*task)`` to every task, preserving input order.

    ``fn`` and all task elements must be picklable when ``workers > 1``.

    Parameters
    ----------
    timeout:
        Wall-clock seconds allowed per attempt, counted from the moment a
        worker picks the task up.  Overdue tasks count as failed
        attempts; the wedged worker is SIGKILLed and the pool rebuilt.
        Unenforceable in serial mode (``workers=1`` cannot pre-empt
        itself) and therefore ignored there.
    retries:
        Extra attempts after the first for a raising or timed-out task.
        ``0`` preserves fail-fast semantics for tasks that *raise*.  A
        worker crash fails every task in flight, but never charges this
        budget: the tasks that were running are re-dispatched one at a
        time, alone, and only a task whose isolated re-run crashes again
        — the proven crasher — is convicted.  So even ``retries=0``
        survives a one-off worker crash, while a deterministic crasher
        fails after ``retries + 1`` isolated convictions.
    backoff:
        Delay schedule between attempts of one task
        (:data:`DEFAULT_POOL_BACKOFF` when None).
    on_result:
        ``on_result(index, result)`` runs in the calling thread as each task
        completes — in *completion* order — for durable incremental
        persistence (see the results ledger).

    Raises
    ------
    TaskError
        When a task exhausts its attempt budget; carries the failing
        index, arguments, attempt count, and worker traceback.  Tasks
        already completed will have reached ``on_result``.
    """
    n = workers if workers is not None else default_workers()
    if n < 1:
        raise ConfigurationError(f"workers must be >= 1, got {n}")
    if retries < 0:
        raise ConfigurationError(f"retries must be >= 0, got {retries}")
    if timeout is not None and timeout <= 0:
        raise ConfigurationError(f"timeout must be positive, got {timeout}")
    schedule = backoff if backoff is not None else DEFAULT_POOL_BACKOFF
    if not tasks:
        return []
    if n == 1 or len(tasks) <= 1:
        return _serial_map(fn, tasks, retries, schedule, on_result)

    def make_error(task: Task, kind: str, exc: Optional[BaseException]) -> TaskError:
        reason = {
            "timeout": f"attempt exceeded timeout of {timeout}s",
            "crashed": "worker process died mid-task (isolated re-run)",
            "shutdown": "pool shut down before completion",
        }.get(kind)
        error = _task_error(task.key, task.args, task.failures + task.crashes,
                            exc, reason)
        error.__cause__ = exc
        return error

    supervisor = Supervisor(
        fn, multiprocessing.get_context("fork"), min(n, len(tasks)),
        make_error=make_error, deadline=timeout, retries=retries,
        quarantine_after=retries + 1, backoff=schedule)
    for index, task in enumerate(tasks):
        supervisor.submit(index, task)
    results: List[Any] = [None] * len(tasks)
    failed = True
    try:
        while supervisor.active():
            for done in supervisor.step():
                value = done.future.result()  # a failed task raises TaskError
                results[done.key] = value
                if on_result is not None:
                    on_result(done.key, value)
        failed = False
    finally:
        supervisor.close(terminate=failed)
    return results
