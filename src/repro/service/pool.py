"""Self-healing worker pool for the simulation service.

:class:`ServicePool` is the daemon's adapter to the shared
:class:`~repro.parallel.supervisor.Supervisor`: it runs
:func:`~repro.service.tasks.execute_request` on forkserver workers,
steps the supervisor on its own thread so the event loop never blocks,
and maps each way a request can fail to an HTTP-style error — 500 after
``retries`` exceptions, 408 after ``retries`` deadline kills,
:class:`~repro.errors.PoisonRequestError` after ``quarantine_after``
crash convictions (see ``docs/service.md``).
"""

from __future__ import annotations

import multiprocessing
import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from ..errors import PoisonRequestError, ServiceError
from ..parallel.supervisor import DEFAULT_POOL_BACKOFF, Supervisor, Task
from ..resilience import BackoffPolicy
from ..telemetry import MetricsRegistry
from .tasks import execute_request


@dataclass
class PoolConfig:
    """Supervision knobs for the service worker pool."""

    workers: int = 2
    #: seconds a *claimed* request may run before its worker is declared
    #: wedged and SIGKILLed; None disables hang detection.
    deadline: Optional[float] = None
    #: extra attempts after the first for raising or timed-out requests.
    retries: int = 2
    #: isolated-crash convictions before a request is quarantined.
    quarantine_after: int = 2
    backoff: BackoffPolicy = field(default_factory=lambda: DEFAULT_POOL_BACKOFF)
    #: honour chaos directives carried by requests (tests/harness only).
    allow_chaos: bool = False


def _worker_context():
    """A multiprocessing context whose workers inherit no daemon fds.

    A ``fork()``-ed worker inherits every open fd, including accepted
    client connections, and (re)spawns race with whatever connections
    are open at that moment: the daemon closing its copy of a socket then
    never delivers EOF, because the worker's copy keeps it established.
    The *forkserver* forks workers from a clean server process instead,
    started (see :meth:`ServicePool.start`) before the daemon opens any
    listener; preloading the task module keeps a respawn near ``fork()``
    cost.
    """
    try:
        ctx = multiprocessing.get_context("forkserver")
    except ValueError:  # pragma: no cover - platform without forkserver
        return multiprocessing.get_context()
    ctx.set_forkserver_preload(["repro.service.tasks"])
    return ctx


def _request_error(task: Task, kind: str,
                   exc: Optional[BaseException]) -> ServiceError:
    rid = task.key
    if kind == "crashed":
        return PoisonRequestError(
            f"request {rid} quarantined after {task.crashes} isolated "
            f"worker crash(es)", crashes=task.crashes)
    if kind == "cancelled":
        return ServiceError(f"request {rid} cancelled", code=409)
    if kind == "shutdown":
        return ServiceError("pool shut down before completion", code=503)
    what, code = (("exceeded its deadline", 408) if kind == "timeout"
                  else ("failed", 500))
    error = ServiceError(f"request {rid} {what} after {task.failures} "
                         f"attempt(s): {exc}", code=code)
    error.attempts = task.failures  # type: ignore[attr-defined]
    return error


class ServicePool:
    """Supervised, self-healing executor for service requests."""

    def __init__(
        self,
        config: PoolConfig,
        metrics: Optional[MetricsRegistry] = None,
        on_dispatch: Optional[Callable[[str, int], None]] = None,
    ) -> None:
        self.config = config
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._ctx = _worker_context()
        #: ``on_dispatch(request_id, attempt)`` runs on the supervisor
        #: thread right before each dispatch — the daemon journals
        #: ``running`` there.
        self._supervisor = Supervisor(
            execute_request, self._ctx, config.workers,
            make_error=_request_error,
            deadline=config.deadline, retries=config.retries,
            quarantine_after=config.quarantine_after, backoff=config.backoff,
            metrics=self.metrics,
            on_dispatch=on_dispatch)
        self._stop = threading.Event()
        self._drain = threading.Event()  #: finish queued work, then stop
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        if self._thread is not None:
            return
        if self._ctx.get_start_method() == "forkserver":
            # Start the fork server now, while no connections exist yet.
            from multiprocessing import forkserver

            forkserver.ensure_running()
        self._thread = threading.Thread(
            target=self._supervise, name="service-pool-supervisor", daemon=True)
        self._thread.start()

    def submit(self, request_id: str, params: Dict[str, Any]) -> Future:
        """Queue a request for execution; resolves with its outcome."""
        if self._stop.is_set() or self._drain.is_set():
            raise ServiceError("pool is shutting down", code=503)
        return self._supervisor.submit(
            request_id, (request_id, params, self.config.allow_chaos))

    def active(self) -> int:
        """Requests inside the pool (queued, retrying, or in flight)."""
        return self._supervisor.active()

    def cancel(self, request_id: str) -> None:
        """Withdraw a request (any thread; best-effort, resolves 409).

        See :meth:`~repro.parallel.supervisor.Supervisor.cancel`.
        """
        self._supervisor.cancel(request_id)

    def shutdown(self, wait: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the pool; ``wait`` drains outstanding work first."""
        if self._thread is None:
            return
        if wait:
            self._drain.set()
            self._supervisor.wake()
            self._thread.join(timeout)
        self._stop.set()
        self._supervisor.wake()
        self._thread.join(5.0)

    def _supervise(self) -> None:
        try:
            while not self._stop.is_set():
                if self._drain.is_set() and not self._supervisor.active():
                    break
                self._supervisor.step()
        finally:
            # Stopped: refuse whatever is still outstanding with a 503.
            self._supervisor.close()
