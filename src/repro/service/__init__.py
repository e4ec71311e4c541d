"""Crash-tolerant simulation service.

A long-lived daemon (``repro serve``) accepts simulation requests over a
local Unix socket speaking a JSON-lines protocol (:mod:`.protocol`), and
runs them through a hardened execution core:

* **admission control** (:mod:`.queue`) — a bounded queue ordered by the
  repo's own base-scheduler priority policies (FCFS/WFP), shedding work
  with a 429-style error past a high-water mark and degrading gracefully
  (smaller GA budgets, tighter watchdogs) as pressure builds;
* **a self-healing worker pool** (:mod:`.pool`) — the daemon's adapter
  to the supervisor the grid uses too (:mod:`repro.parallel.supervisor`):
  per-request deadlines, heartbeat-based hang detection, SIGKILL of
  wedged workers, pool rebuilds that requeue crash victims for free,
  exponential backoff with deterministic jitter, quarantine of poison
  requests that keep crashing their workers, and workers that exit when
  the daemon dies;
* **a durable request lifecycle** (:mod:`.journal`) — every request is
  journaled ``accepted → running → done/failed/quarantined/cancelled``
  on the crash-safe JSONL substrate shared with the results ledger, so a
  SIGKILL'd daemon restarts, replays the journal, and resumes exactly
  the in-flight work, recording each result exactly once.

Beyond the single socket, the service scales out:

* the daemon also listens on **TCP** (with a minimal HTTP/1.1 adapter)
  behind per-connection deadlines and inflight limits;
* the **client** (:mod:`.client`) retries transient transport failures
  with full-jitter backoff behind a per-endpoint circuit breaker;
* a **shard router** (:mod:`.shards`) consistent-hashes idempotency
  keys across N daemons, down-marks dead shards, fails over provably
  unsent work, and reconciles ambiguous work on recovery — exactly
  once, end to end.

``tools/chaos.py`` is the deterministic chaos harness that proves those
properties; ``docs/service.md`` documents the protocol and the failure
semantics table.
"""

from .client import (
    CircuitBreaker,
    ClientRetryPolicy,
    NO_RETRY,
    ServiceClient,
    parse_endpoint,
)
from .daemon import ServiceConfig, ServiceDaemon
from .journal import JOURNAL_VERSION, JournalView, RequestJournal
from .pool import PoolConfig, ServicePool
from .protocol import (
    PROTOCOL_VERSION,
    decode_message,
    encode_message,
    error_response,
    ok_response,
    validate_request,
)
from .queue import AdmissionQueue
from .shards import HashRing, Routed, ShardRouter

__all__ = [
    "AdmissionQueue",
    "CircuitBreaker",
    "ClientRetryPolicy",
    "HashRing",
    "JOURNAL_VERSION",
    "JournalView",
    "NO_RETRY",
    "PROTOCOL_VERSION",
    "PoolConfig",
    "RequestJournal",
    "Routed",
    "ServiceClient",
    "ServiceConfig",
    "ServiceDaemon",
    "ServicePool",
    "ShardRouter",
    "decode_message",
    "encode_message",
    "error_response",
    "ok_response",
    "parse_endpoint",
    "validate_request",
]
