"""Shared exponential-backoff schedule.

Four retry loops in this codebase damp themselves the same way: the
simulated :class:`~repro.resilience.retry.RetryPolicy` spaces out requeues
of fault-killed jobs (simulated seconds); the supervised process pool
(:mod:`repro.parallel.supervisor`) spaces out re-dispatch of failed or
hung grid cells and, in the daemon, of service requests (wall-clock
seconds, plus hashed jitter); and the service client's
:class:`~repro.service.client.ClientRetryPolicy` spaces out transport
retries (full jitter).  :class:`BackoffPolicy` is the one schedule all
four consume — ``delay(attempt)`` grows geometrically from ``initial``
by ``factor`` per extra attempt, clamped at ``max_delay``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError


@dataclass(frozen=True)
class BackoffPolicy:
    """Geometric backoff: ``initial × factor^(attempt-1)``, clamped.

    Parameters
    ----------
    initial:
        Delay before the first retry, in seconds (simulated or wall —
        the policy is unit-agnostic).
    factor:
        Multiplier applied per additional attempt (``>= 1``).
    max_delay:
        Upper clamp on any single delay.
    """

    initial: float = 60.0
    factor: float = 2.0
    max_delay: float = 3600.0

    def __post_init__(self) -> None:
        if self.initial < 0:
            raise ConfigurationError(
                f"backoff initial must be non-negative, got {self.initial}"
            )
        if self.factor < 1.0:
            raise ConfigurationError(
                f"backoff factor must be >= 1, got {self.factor}"
            )
        if self.max_delay < self.initial:
            raise ConfigurationError(
                f"max_delay {self.max_delay} < initial {self.initial}"
            )

    def delay(self, attempt: int) -> float:
        """Delay before the ``attempt``-th retry (``attempt >= 1``)."""
        if attempt < 1:
            raise ConfigurationError(f"delay needs attempt >= 1, got {attempt}")
        return min(self.initial * self.factor ** (attempt - 1), self.max_delay)
