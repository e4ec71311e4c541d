"""Exception hierarchy for the repro package.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch one type.  Sub-types separate configuration mistakes
(caller bugs) from simulation-state violations (library bugs or impossible
traces), which is the distinction a scheduler operator actually cares about.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigurationError(ReproError, ValueError):
    """A configuration value is out of range or inconsistent."""


class TraceError(ReproError, ValueError):
    """A workload trace is malformed or internally inconsistent."""


class AllocationError(ReproError, RuntimeError):
    """A resource allocation/release violated cluster invariants."""


class SchedulingError(ReproError, RuntimeError):
    """A scheduling component produced an invalid decision."""


class SolverError(ReproError, RuntimeError):
    """The MOO solver was invoked with an invalid problem."""


class SolverTimeoutError(SolverError):
    """A solver exceeded its wall-clock budget and no fallback was allowed."""


class ResilienceError(ReproError, RuntimeError):
    """A fault-injection or recovery action violated resilience invariants."""


class CheckpointError(ReproError, RuntimeError):
    """A checkpoint file is missing, corrupt, or inconsistent with the run."""


class SimulationInterrupted(ReproError, RuntimeError):
    """A run was stopped early after writing a final checkpoint.

    Raised by the engine's checkpoint hook when a SIGTERM/SIGINT was
    observed (or a configured stop point was reached) and the state was
    safely persisted; ``checkpoint_path`` names the snapshot to resume
    from, ``sim_time`` the simulated instant it captures, and ``signum``
    the POSIX signal that triggered the stop (None for a configured
    ``stop_after`` cut point).
    """

    def __init__(
        self,
        message: str,
        *,
        checkpoint_path: str,
        sim_time: float,
        signum: int | None = None,
    ) -> None:
        super().__init__(message)
        self.checkpoint_path = checkpoint_path
        self.sim_time = sim_time
        self.signum = signum


class ServiceError(ReproError, RuntimeError):
    """A simulation-service request failed; carries an HTTP-style code.

    Codes follow the familiar convention so clients can dispatch on
    them: 400 malformed request, 404 unknown request id, 408 deadline
    exceeded, 429 shed by admission control, 500 execution failure,
    503 service unavailable (shutting down).
    """

    def __init__(self, message: str, *, code: int = 500) -> None:
        super().__init__(message)
        self.code = int(code)


class TransientServiceError(ServiceError):
    """The service endpoint is briefly unreachable; safe to retry.

    Raised by the client for connect-time failures (``ECONNREFUSED``,
    a missing socket file, a reset before any response byte) — exactly
    the window a restarting daemon occupies.  Protocol violations
    (undecodable responses, oversized frames) stay plain
    :class:`ServiceError` and are *not* retried: the daemon answered,
    just not in a language we share, so retrying cannot help.
    """

    def __init__(self, message: str, *, code: int = 503) -> None:
        super().__init__(message, code=code)
        self.retryable = True


class ServiceTimeout(ServiceError, TimeoutError):
    """A wait exceeded its budget; names the still-pending request ids."""

    def __init__(self, message: str, *, pending: tuple = ()) -> None:
        super().__init__(message, code=408)
        self.pending = tuple(pending)


class ShardError(ServiceError):
    """A sharded-service routing failure (no live shard for a key)."""

    def __init__(self, message: str, *, code: int = 503) -> None:
        super().__init__(message, code=code)


class PoisonRequestError(ServiceError):
    """A request crashed its worker repeatedly and was quarantined.

    Raised (and journaled as a terminal ``quarantined`` record) after a
    request is convicted of ``quarantine_after`` isolated worker
    crashes — re-dispatching it further would keep breaking the pool.
    """

    def __init__(self, message: str, *, crashes: int = 0) -> None:
        super().__init__(message, code=500)
        self.crashes = int(crashes)


class TaskError(ReproError, RuntimeError):
    """A parallel-map task failed after exhausting its retry budget.

    Carries enough context to diagnose a grid failure without re-running
    it: the task index and arguments, how many attempts were made, and the
    captured traceback of the final failure (workers live in other
    processes, so the original traceback object is gone by the time the
    parent sees the exception).
    """

    def __init__(
        self,
        message: str,
        *,
        index: int,
        task: tuple,
        attempts: int,
        traceback_text: str = "",
    ) -> None:
        super().__init__(message)
        self.index = index
        self.task = task
        self.attempts = attempts
        self.traceback_text = traceback_text
