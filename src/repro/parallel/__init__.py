"""Parallel execution helpers for experiment sweeps and the service.

:class:`Supervisor` is the one supervised process pool: heartbeat
claims, per-task deadlines, free requeue and isolation of crash victims,
quarantine, hashed-jitter backoff, and workers that exit with their
owner.  :func:`parallel_map` drives it from the calling thread for grid
sweeps, with a completion hook for durable incremental persistence (see
:class:`repro.checkpoint.ResultsLedger`); the simulation service drives
the same class from its daemon (see :mod:`repro.service.pool`).
"""

from .pool import default_workers, parallel_map
from .supervisor import DEFAULT_POOL_BACKOFF, Supervisor

__all__ = ["DEFAULT_POOL_BACKOFF", "Supervisor", "parallel_map", "default_workers"]
