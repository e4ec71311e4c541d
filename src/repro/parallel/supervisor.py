"""The one supervised process pool behind ``repro grid`` and ``repro serve``.

A :class:`Supervisor` owns a :class:`~concurrent.futures.ProcessPoolExecutor`
and keeps it healthy no matter what its tasks do to it.  Its caller
drives it one :meth:`~Supervisor.step` at a time — ``parallel_map`` from
the calling thread, ``ServicePool`` from the daemon's supervisor thread.
A step dispatches what it may, then sleeps until a task finishes, a
timer is due, or another thread submits, cancels or wakes it.

* **heartbeat claims** — a task's first act on a worker is a ``(key,
  dispatch, pid, t)`` claim on a shared queue.  It names the pid that
  owns the task and arms the **deadline**: a claimed task unfinished
  ``deadline`` seconds later has a wedged worker, which is SIGKILLed.
* **pool breaks never charge the retry budget** — a dead worker fails
  every future in flight, so every task that had claimed a worker is
  requeued free as a *suspect* (one that had not started, or whose
  neighbour the supervisor killed itself, is just requeued).  A suspect
  runs alone; a clean run exonerates it, a break convicts it, and
  ``quarantine_after`` convictions fail it.
* **backoff with deterministic jitter** — re-dispatches wait
  ``BackoffPolicy.delay × (1 + JITTER × u)`` with ``u`` hashed from
  ``(key, attempt)``, so a chaos run's retry timeline replays exactly.
* **workers exit with their owner** (see :func:`_exit_with_owner`), so a
  SIGKILLed ``grid`` or daemon leaves no orphans holding its pipes.

An exception or a deadline kill charges one of ``retries``; a conviction
charges the quarantine budget.  ``make_error(task, kind, exc)`` builds
the exception a failed task's future resolves with; ``kind`` is
``"raised"``, ``"timeout"``, ``"crashed"``, ``"cancelled"`` or
``"shutdown"``.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from ..resilience import BackoffPolicy

#: Wall-clock damping between re-dispatches of a failed task.  Much
#: tighter than the simulated-time requeue default — a grid retry should
#: not stall the harness for a minute.
DEFAULT_POOL_BACKOFF = BackoffPolicy(initial=0.25, factor=2.0, max_delay=30.0)

#: Fraction of each backoff delay added as deterministic, hashed jitter.
JITTER = 0.25

#: Seconds between a worker's checks that its owner is still alive.
OWNER_POLL_S = 0.5

#: Longest sleep of a step while a deadline or a cancel awaits a claim.
CLAIM_POLL_S = 0.02


def deterministic_jitter(key: Hashable, attempt: int) -> float:
    """A stable uniform in [0, 1) keyed by (task, attempt)."""
    digest = hashlib.sha256(f"{key}:{attempt}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


# --- worker side ---------------------------------------------------------------
#: Heartbeat queue installed by the initializer (worker side).
_HEARTBEAT = None

#: Dispatch ordinal of the task this worker is running (worker side).
_DISPATCH = 0


def worker_initializer(heartbeat) -> None:
    """Executor initializer: claim queue, clean signals, owner watch.

    Fork-started workers inherit the owner's signal plumbing — under the
    daemon that is asyncio's ``add_signal_handler`` state, a Python-level
    handler *and* the wakeup fd, which is the parent loop's own
    socketpair.  Left in place, a SIGTERM delivered to a worker (e.g. the
    pool terminating a survivor during a rebuild) would be written into
    the shared wakeup fd and dispatched as a shutdown request *in the
    owner*, while the worker itself shrugged it off.  Workers therefore
    drop the wakeup fd and restore default dispositions first.
    """
    try:
        signal.set_wakeup_fd(-1)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(sig, signal.SIG_DFL)
        except (ValueError, OSError):  # pragma: no cover
            pass
    global _HEARTBEAT
    _HEARTBEAT = heartbeat
    threading.Thread(target=_exit_with_owner, args=(os.getppid(),),
                     name="owner-watch", daemon=True).start()


def _exit_with_owner(ppid: int) -> None:
    """Exit this worker once the process that owns its pool is gone.

    Two checks, because each misses one start method.  A fork worker is
    reparented when its owner dies, so its ppid changes; but its parent
    sentinel never fires, since a sibling forked later holds the pipe
    open.  A forkserver worker's parent is the fork server, so its ppid
    never changes; but its sentinel is a pipe only the owner holds.
    """
    parent = multiprocessing.parent_process()
    while True:
        time.sleep(OWNER_POLL_S)
        if os.getppid() != ppid or (parent is not None and not parent.is_alive()):
            os._exit(1)


def current_dispatch() -> int:
    """1-based dispatch ordinal of the task this worker is running — the
    one ``on_dispatch`` saw, free requeues included."""
    return _DISPATCH


def _run_claimed(fn: Callable[..., Any], key: Hashable, dispatch: int,
                 args: Tuple[Any, ...]) -> Any:
    """Worker-side trampoline: claim the task, then run it."""
    global _DISPATCH
    _DISPATCH = dispatch
    _HEARTBEAT.put((key, dispatch, os.getpid(), time.monotonic()))
    return fn(*args)


# --- owner side ----------------------------------------------------------------
def _shutdown(pool: ProcessPoolExecutor, *, terminate: bool) -> None:
    """Stop a pool; optionally terminate its workers (wedged/abandoned).

    ``_processes`` is executor-internal, but terminating a provably hung
    worker is the whole point of supervision — guarded so a stdlib
    layout change degrades to abandonment instead of crashing.
    """
    processes = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=not terminate, cancel_futures=terminate)
    if terminate:
        for proc in processes:
            try:
                proc.terminate()
            except Exception:  # pragma: no cover - already-dead worker
                pass


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:  # pragma: no cover
        pass  # worker already gone; the break still surfaces


@dataclass
class Task:
    """One submitted task and its supervision state."""

    key: Hashable
    args: Tuple[Any, ...]
    future: Future               #: resolved exactly once with the outcome
    failures: int = 0            #: charged attempts: raises and deadline kills
    dispatches: int = 0          #: total dispatches, never refunded
    crashes: int = 0             #: convictions (quarantine budget)
    suspect: bool = False        #: had claimed a worker when the pool broke
    hung: bool = False           #: its worker was SIGKILLed by the deadline
    cancelled: bool = False      #: withdrawal requested; resolve, not retry
    ready_at: float = 0.0        #: earliest next dispatch (monotonic)
    inner: Optional[Future] = None
    claim_pid: Optional[int] = None
    claim_t: Optional[float] = None
    started_t: Optional[float] = None


class Supervisor:
    """A self-healing process pool running ``fn(*args)`` per task.

    ``fn`` and every task's args must pickle by reference for ``ctx``'s
    start method.  ``metrics`` (a :class:`~repro.telemetry.MetricsRegistry`)
    receives the ``service.*`` counters the daemon's ``stats`` reports;
    only the daemon passes one.  ``on_dispatch(key, dispatch)`` runs in
    the stepping thread right before each dispatch.
    """

    def __init__(
        self,
        fn: Callable[..., Any],
        ctx,
        workers: int,
        *,
        make_error: Callable[[Task, str, Optional[BaseException]], BaseException],
        deadline: Optional[float] = None,
        retries: int = 0,
        quarantine_after: int = 1,
        backoff: BackoffPolicy = DEFAULT_POOL_BACKOFF,
        metrics=None,
        on_dispatch: Optional[Callable[[Hashable, int], None]] = None,
    ) -> None:
        self.fn = fn
        self.ctx = ctx
        self.workers = workers
        self.make_error = make_error
        self.deadline = deadline
        self.retries = retries
        self.quarantine_after = quarantine_after
        self.backoff = backoff
        self.metrics = metrics
        self.on_dispatch = on_dispatch
        self._heartbeat = None  # one per executor, see _make_executor
        self._executor: Optional[ProcessPoolExecutor] = None
        # Shared with other threads, under the lock.
        self._lock = threading.Lock()
        self._intake: List[Task] = []
        self._cancels: set = set()
        self._active = 0
        self._wakeup: Future = Future()
        # Owned by the stepping thread.
        self._waiting: List[Task] = []
        self._inflight: Dict[Hashable, Task] = {}

    # --- any thread ----------------------------------------------------------------
    def submit(self, key: Hashable, args: Tuple[Any, ...]) -> Future:
        """Queue ``fn(*args)`` under ``key``; the future resolves with its outcome."""
        task = Task(key, tuple(args), Future())
        with self._lock:
            self._intake.append(task)
            self._active += 1
        self.wake()
        return task.future

    def cancel(self, key: Hashable) -> None:
        """Withdraw a task (best-effort; resolves with a ``cancelled`` error).

        A waiting task resolves at the next step; an in-flight one has its
        claimed worker SIGKILLed and resolves from the break handler
        instead of being requeued.  A task that completes first keeps its
        result — cancellation can lose the race, never corrupt it.
        """
        with self._lock:
            self._cancels.add(key)
        self.wake()

    def active(self) -> int:
        """Tasks inside the pool (queued, backing off, or in flight)."""
        with self._lock:
            return self._active

    def wake(self) -> None:
        """End the current step's sleep early."""
        with self._lock:
            if not self._wakeup.done():
                self._wakeup.set_result(None)

    # --- stepping thread -------------------------------------------------------------
    def step(self) -> List[Task]:
        """Dispatch, sleep until something happens, and classify outcomes.

        Returns the tasks whose futures resolved during this step.
        """
        resolved: List[Task] = []
        with self._lock:
            if self._wakeup.done():
                self._wakeup = Future()
            self._waiting.extend(self._intake)
            self._intake.clear()
            cancels, self._cancels = self._cancels, set()
        self._apply_cancels(cancels, resolved)
        self._dispatch(time.monotonic(), resolved)
        self._drain_heartbeats()
        self._kill_cancelled()
        inner = [task.inner for task in self._inflight.values()]
        wait([*inner, self._wakeup], timeout=self._sleep_for(time.monotonic()),
             return_when=FIRST_COMPLETED)
        self._drain_heartbeats()
        broke = False
        for task in list(self._inflight.values()):
            if not task.inner.done():
                continue
            try:
                value = task.inner.result()
            except BrokenProcessPool:
                broke = True  # classified with everyone else in flight
                continue
            except Exception as exc:
                del self._inflight[task.key]
                self._charge(task, "raised", exc, resolved)
            else:
                del self._inflight[task.key]
                self._count("completed")
                if self.metrics is not None:
                    self.metrics.observe("service.run_seconds",
                                         time.monotonic() - task.started_t)
                self._resolve(task, resolved, value=value)
        if broke:
            self._handle_break(resolved)
        else:
            self._check_deadlines(time.monotonic())
        if self.metrics is not None:
            self.metrics.set_gauge("service.inflight",
                                   len(self._inflight))
        return resolved

    def close(self, *, terminate: bool = True) -> None:
        """Resolve whatever is outstanding as ``shutdown``; stop the pool.

        ``terminate=False`` waits for idle workers to exit cleanly; use it
        only once nothing is in flight.
        """
        with self._lock:
            self._waiting.extend(self._intake)
            self._intake.clear()
        for task in self._waiting + list(self._inflight.values()):
            self._resolve(task, [], error=self.make_error(task, "shutdown", None))
        self._waiting.clear()
        self._inflight.clear()
        if self._executor is not None:
            _shutdown(self._executor, terminate=terminate)
            self._executor = None

    # --- internals ------------------------------------------------------------------
    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.inc(f"service.{name}")

    def _make_executor(self) -> ProcessPoolExecutor:
        # A fresh claim queue per pool: a worker terminated during a
        # rebuild may die holding the old queue's write lock, and a
        # reused queue would then block every later claim for good —
        # and an unclaimed task never arms its deadline.
        self._heartbeat = self.ctx.SimpleQueue()
        return ProcessPoolExecutor(
            max_workers=self.workers, mp_context=self.ctx,
            initializer=worker_initializer, initargs=(self._heartbeat,))

    def _resolve(self, task: Task, resolved: List[Task], *, value: Any = None,
                 error: Optional[BaseException] = None) -> None:
        if task.future.done():
            return
        with self._lock:
            self._active -= 1
        if error is None:
            task.future.set_result(value)
        else:
            task.future.set_exception(error)
        resolved.append(task)

    def _delay(self, task: Task, attempt: int) -> float:
        base = self.backoff.delay(max(attempt, 1))
        return base * (1.0 + JITTER * deterministic_jitter(task.key, attempt))

    def _requeue(self, task: Task, delay: float) -> None:
        task.inner = None
        task.claim_pid = task.claim_t = None
        task.ready_at = time.monotonic() + delay
        self._waiting.append(task)

    def _charge(self, task: Task, kind: str, exc: BaseException,
                resolved: List[Task]) -> None:
        """An attempt failed for a charged reason (``raised`` or ``timeout``)."""
        task.failures += 1
        if task.failures > self.retries:
            self._count("failed")
            self._resolve(task, resolved, error=self.make_error(task, kind, exc))
            return
        self._count("retries")
        self._requeue(task, self._delay(task, task.failures))

    def _apply_cancels(self, cancels: set, resolved: List[Task]) -> None:
        for task in [t for t in self._waiting if t.key in cancels]:
            self._waiting.remove(task)
            self._count("cancelled")
            self._resolve(task, resolved,
                          error=self.make_error(task, "cancelled", None))
        for key in cancels:
            # Killed via its heartbeat claim and resolved by the break
            # handler.  Unknown keys are dropped: the task either never
            # reached the pool or already finished.
            if key in self._inflight:
                self._inflight[key].cancelled = True

    def _dispatch(self, now: float, resolved: List[Task]) -> None:
        if self._executor is None:
            self._executor = self._make_executor()
        for task in [t for t in self._waiting if t.ready_at <= now]:
            if len(self._inflight) >= self.workers:
                return
            if any(t.suspect for t in self._inflight.values()):
                return  # a suspect runs alone
            if task.suspect and self._inflight:
                return  # let the pool drain, then isolate the suspect
            self._waiting.remove(task)
            task.dispatches += 1
            task.hung = False
            task.claim_pid = task.claim_t = None
            task.started_t = time.monotonic()
            if self.on_dispatch is not None:
                try:
                    self.on_dispatch(task.key, task.dispatches)
                except Exception:  # pragma: no cover - hook I/O failure
                    pass
            try:
                task.inner = self._executor.submit(
                    _run_claimed, self.fn, task.key, task.dispatches, task.args)
            except BrokenProcessPool:
                # A worker died while the pool sat idle; undo this
                # dispatch and let the break handler rebuild first.
                # The wake ends this step's sleep, so the next step
                # dispatches onto the new pool instead of idling.
                task.dispatches -= 1
                task.ready_at = now
                self._waiting.append(task)
                self._handle_break(resolved)
                self.wake()
                return
            self._inflight[task.key] = task

    def _drain_heartbeats(self) -> None:
        try:
            while not self._heartbeat.empty():
                key, dispatch, pid, t = self._heartbeat.get()
                task = self._inflight.get(key)
                if task is not None and task.dispatches == dispatch:
                    task.claim_pid, task.claim_t = pid, t
        except Exception:  # pragma: no cover - queue torn by a worker kill
            pass

    def _kill_cancelled(self) -> None:
        """SIGKILL claimed workers of cancelled in-flight tasks.

        Runs every step, so a cancel that arrived before the worker's
        heartbeat claim still lands once the claim does.
        """
        for task in self._inflight.values():
            if task.cancelled and task.claim_pid is not None:
                _kill(task.claim_pid)

    def _sleep_for(self, now: float) -> Optional[float]:
        """Seconds until the next timer is due; None blocks until an event."""
        due = [t.ready_at for t in self._waiting if t.ready_at > now]
        for task in self._inflight.values():
            if task.claim_t is None:
                if self.deadline is not None or task.cancelled:
                    due.append(now + CLAIM_POLL_S)  # await the claim
            elif self.deadline is not None and not task.hung:
                due.append(task.claim_t + self.deadline)
        return max(0.0, min(due) - now) if due else None

    def _check_deadlines(self, now: float) -> None:
        if self.deadline is None:
            return
        for task in self._inflight.values():
            if not task.hung and task.claim_t is not None \
                    and now - task.claim_t >= self.deadline:
                task.hung = True
                _kill(task.claim_pid)

    def _handle_break(self, resolved: List[Task]) -> None:
        """Classify every in-flight task after a pool break, then rebuild."""
        self._count("pool_rebuilds")
        tasks = list(self._inflight.values())
        self._inflight.clear()
        # A break we caused ourselves (a deadline or cancel kill) says
        # nothing about the other tasks in flight.
        explained = any(t.hung or (t.cancelled and t.claim_pid is not None)
                        for t in tasks)
        for task in tasks:
            task.inner.cancel()
            if task.cancelled:
                # Withdrawal wins over every other classification.
                self._count("cancelled")
                self._resolve(task, resolved,
                              error=self.make_error(task, "cancelled", None))
            elif task.hung:
                self._count("hangs")
                self._charge(task, "timeout", TimeoutError(
                    f"no result within the {self.deadline}s deadline"), resolved)
            elif task.suspect:
                # It broke the pool while running alone: convicted.
                task.crashes += 1
                self._count("crashes")
                if task.crashes >= self.quarantine_after:
                    self._count("quarantined")
                    self._resolve(task, resolved, error=self.make_error(
                        task, "crashed", BrokenProcessPool(
                            "worker process died mid-task (isolated re-run)")))
                else:
                    self._requeue(task, self._delay(task, task.crashes))
            else:
                # A victim, or never started: free requeue.  One that was
                # running is isolated until a clean run exonerates it.
                task.suspect = task.claim_pid is not None and not explained
                self._requeue(task, 0.0)
        _shutdown(self._executor, terminate=True)
        self._executor = self._make_executor()
