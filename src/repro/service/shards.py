"""Consistent-hash shard router with failover and exactly-once adoption.

A :class:`ShardRouter` spreads service requests across N independent
:class:`~repro.service.ServiceDaemon` endpoints ("shards") with no shared
state between them — each shard has its own journal, pool, and queue.
Three mechanisms make that a single dependable service:

* **consistent hashing** (:class:`HashRing`): every request's
  idempotency key hashes to a *preference list* of shards (the ring
  walked clockwise with virtual nodes).  Adding or removing one shard
  remaps only ~1/N of the keyspace, so a scale-out does not reshuffle
  every in-flight client's routing.
* **health tracking with down-marking**: a shard is marked down after
  ``down_after`` consecutive transport failures and skipped by routing
  until a ping (the :meth:`check` sweep, or an adoption probe) sees it
  answer again.  Down-marking composes with the per-endpoint circuit
  breaker inside each :class:`~repro.service.ServiceClient` — the
  breaker bounds connect attempts, the router steers work away.
* **exactly-once failover**: the dangerous case is an *ambiguous*
  submit — the connection died after the request may have reached the
  shard.  Blind failover would double-run it.  Instead the router holds
  the key and polls the primary for ``recover_timeout`` seconds: a
  recovered shard either knows the key (journal-backed — the request is
  **adopted**, not resubmitted) or answers 404, in which case the
  submit is resent to that *same* shard — a stalled shard may yet
  process the kernel-buffered original, and only same-shard resends are
  collapsed by its key dedup.  Only a shard that stays dead past the
  deadline forces a failover; the key is remembered and **reconciled**
  when the shard returns: any duplicate it journaled is cancelled
  (terminal 409) before its recovery re-runs it.  The chaos harness
  audits the union of all shard journals per key — exactly one ``done``,
  duplicates only ever ``cancelled``.

The router is a client-side library (and the ``repro route`` CLI): it
holds no authoritative state, so *it* can crash and restart freely —
everything it needs to reconcile is in the shards' journals.
"""

from __future__ import annotations

import bisect
import hashlib
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ServiceError, ShardError, TransientServiceError
from .client import ClientRetryPolicy, ServiceClient

#: Virtual nodes per endpoint; smooths the ring's key distribution.
DEFAULT_REPLICAS = 64


def _hash64(data: str) -> int:
    return int.from_bytes(
        hashlib.sha256(data.encode("utf-8")).digest()[:8], "big")


class HashRing:
    """Consistent-hash ring over endpoint strings, with virtual nodes."""

    def __init__(self, endpoints: List[str],
                 replicas: int = DEFAULT_REPLICAS) -> None:
        if not endpoints:
            raise ShardError("a hash ring needs at least one endpoint")
        self.endpoints = list(dict.fromkeys(endpoints))  # dedup, keep order
        self.replicas = int(replicas)
        points: List[Tuple[int, str]] = []
        for endpoint in self.endpoints:
            for replica in range(self.replicas):
                points.append((_hash64(f"{endpoint}#{replica}"), endpoint))
        points.sort()
        self._hashes = [h for h, _ in points]
        self._owners = [e for _, e in points]

    def preference(self, key: str) -> List[str]:
        """All endpoints in ring order from ``key``'s position (distinct).

        The first entry is the key's primary; the rest are its failover
        order.  Every key gets every endpoint exactly once, so routing
        can always fall all the way through.
        """
        start = bisect.bisect(self._hashes, _hash64(key)) % len(self._hashes)
        seen: Dict[str, None] = {}
        for i in range(len(self._owners)):
            owner = self._owners[(start + i) % len(self._owners)]
            if owner not in seen:
                seen[owner] = None
                if len(seen) == len(self.endpoints):
                    break
        return list(seen)

    def node(self, key: str) -> str:
        """The primary endpoint for ``key``."""
        return self.preference(key)[0]


@dataclass
class _ShardHealth:
    up: bool = True
    consecutive_failures: int = 0
    down_since: Optional[float] = None
    #: keys forcibly failed over while this shard was down; cancelled on
    #: its recovery so its journal replay cannot re-run them.
    owed_cancels: List[str] = field(default_factory=list)


@dataclass
class Routed:
    """One routed submit: where it landed and under which identity."""

    key: str
    endpoint: str
    request_id: str
    deduped: bool = False
    adopted: bool = False
    failover: bool = False


class ShardRouter:
    """Routes requests across shard endpoints; survives shard deaths."""

    def __init__(
        self,
        endpoints: List[str],
        *,
        replicas: int = DEFAULT_REPLICAS,
        down_after: int = 3,
        recover_timeout: float = 30.0,
        probe_poll: float = 0.25,
        timeout: float = 30.0,
        retry: Optional[ClientRetryPolicy] = None,
        seed: Optional[int] = None,
    ) -> None:
        self.ring = HashRing(endpoints, replicas)
        self.down_after = int(down_after)
        self.recover_timeout = float(recover_timeout)
        self.probe_poll = float(probe_poll)
        self._rng = random.Random(seed)
        self.clients: Dict[str, ServiceClient] = {
            endpoint: ServiceClient(
                endpoint, timeout=timeout, retry=retry, seed=seed)
            for endpoint in self.ring.endpoints
        }
        self._health: Dict[str, _ShardHealth] = {
            endpoint: _ShardHealth() for endpoint in self.ring.endpoints}
        # Telemetry the chaos harness and tests assert on.
        self.failovers = 0          #: submits served by a non-primary shard
        self.adoptions = 0          #: ambiguous submits resolved by key lookup
        self.forced_failovers = 0   #: ambiguous submits that outwaited recovery
        self.reconciled = 0         #: duplicate keys cancelled on recovery
        self.conflicts = 0          #: duplicates found already done (too late)

    # --- health ------------------------------------------------------------------
    def _mark_failure(self, endpoint: str) -> None:
        health = self._health[endpoint]
        health.consecutive_failures += 1
        if health.up and health.consecutive_failures >= self.down_after:
            health.up = False
            health.down_since = time.monotonic()

    def _mark_success(self, endpoint: str) -> None:
        health = self._health[endpoint]
        was_down = not health.up
        health.up = True
        health.consecutive_failures = 0
        health.down_since = None
        if was_down:
            self.reconcile(endpoint)

    def healthy(self) -> Dict[str, bool]:
        """Current health belief per endpoint (no probing)."""
        return {e: h.up for e, h in self._health.items()}

    def check(self) -> Dict[str, bool]:
        """Ping every shard once; update health, reconcile recoveries."""
        result: Dict[str, bool] = {}
        for endpoint, client in self.clients.items():
            if client.alive():
                self._mark_success(endpoint)
                result[endpoint] = True
            else:
                self._mark_failure(endpoint)
                result[endpoint] = False
        return result

    # --- routing -----------------------------------------------------------------
    def route(self, key: str) -> Dict[str, Any]:
        """Where ``key`` would go right now (pure lookup, no I/O)."""
        preference = self.ring.preference(key)
        live = [e for e in preference if self._health[e].up]
        return {"key": key, "preference": preference,
                "target": live[0] if live else None}

    def _ordered_targets(self, key: str) -> List[str]:
        """Preference order, healthy shards first (order kept within each)."""
        preference = self.ring.preference(key)
        up = [e for e in preference if self._health[e].up]
        down = [e for e in preference if not self._health[e].up]
        return up + down

    def new_key(self, prefix: str = "req") -> str:
        """A fresh idempotency key (seeded RNG → reproducible in chaos runs)."""
        return f"{prefix}-{self._rng.getrandbits(64):016x}"

    def _status_by_key(self, endpoint: str, key: str,
                       deadline: float) -> Tuple[str, Optional[Dict[str, Any]]]:
        """Poll one shard for ``key`` until ``deadline``.

        Returns ``("found", status)`` when the shard knows the key,
        ``("absent", None)`` when it answers 404 (provably never
        accepted), ``("down", None)`` when it stayed unreachable.
        """
        client = self.clients[endpoint]
        while True:
            try:
                status = client.request_once({"op": "status", "key": key})
            except ServiceError:
                pass  # still down (or mid-restart); keep polling
            else:
                if status.get("ok"):
                    self._mark_success(endpoint)
                    return "found", status
                if int(status.get("code", 0)) == 404:
                    self._mark_success(endpoint)
                    return "absent", None
            if time.monotonic() >= deadline:
                return "down", None
            time.sleep(self.probe_poll)

    def submit(self, **params: Any) -> Routed:
        """Route one submit to its shard; exactly-once under shard death.

        A missing ``idempotency_key`` is generated — sharded submits are
        always keyed, because the key *is* the routing and dedup
        identity.  Raises :class:`~repro.errors.ShardError` when no
        shard accepts.
        """
        key = params.get("idempotency_key") or self.new_key()
        params = dict(params, idempotency_key=key)
        targets = self._ordered_targets(key)
        primary = self.ring.node(key)
        failures: List[str] = []
        for endpoint in targets:
            client = self.clients[endpoint]
            resends = 0
            while True:
                try:
                    response = client.submit(**params)
                except TransientServiceError as exc:
                    self._mark_failure(endpoint)
                    if getattr(exc, "sent", False):
                        # Ambiguous: the shard may have journaled the
                        # key.  Wait out its recovery instead of
                        # double-running.
                        verdict, status = self._status_by_key(
                            endpoint, key,
                            time.monotonic() + self.recover_timeout)
                        if verdict == "found":
                            self.adoptions += 1
                            assert status is not None
                            return Routed(key=key, endpoint=endpoint,
                                          request_id=status["id"],
                                          adopted=True,
                                          failover=endpoint != primary)
                        if verdict == "absent" and resends < 2:
                            # The shard is UP and answered 404 — but a
                            # stalled shard may still process the
                            # kernel-buffered original later, so a 404
                            # is not proof of non-acceptance.  Failing
                            # over here could double-run; resending to
                            # the *same* shard cannot, because the key
                            # dedups against the buffered frame if it
                            # ever lands.
                            resends += 1
                            continue
                        if verdict == "down":
                            # Forced failover: remember the key so the
                            # shard is reconciled (duplicate cancelled)
                            # on return.
                            self._health[endpoint].owed_cancels.append(key)
                            self.forced_failovers += 1
                    failures.append(f"{endpoint}: {exc}")
                    break  # next endpoint in the preference order
                except ServiceError:
                    raise  # the shard answered (4xx/5xx): routing is done
                self._mark_success(endpoint)
                if endpoint != primary:
                    self.failovers += 1
                return Routed(key=key, endpoint=endpoint,
                              request_id=response["id"],
                              deduped=bool(response.get("deduped")),
                              failover=endpoint != primary)
        raise ShardError(
            f"no live shard for key {key!r}; "
            f"tried {len(targets)}: {'; '.join(failures)}")

    def reconcile(self, endpoint: str) -> int:
        """Cancel this shard's copies of keys that were failed over.

        Called automatically when a down shard is seen healthy again.
        For each owed key: 404 means the shard never accepted it (clean);
        a live copy is cancelled (terminal 409) before the shard's
        recovery dispatch can re-run it; a copy already ``done`` is a
        conflict — the run raced the reconciliation — counted, never
        hidden.  Returns the number of cancels issued.
        """
        health = self._health[endpoint]
        owed, health.owed_cancels = health.owed_cancels, []
        if not owed:
            return 0
        client = self.clients[endpoint]
        cancelled = 0
        for key in owed:
            try:
                status = client.status_by_key(key)
            except ServiceError as exc:
                if exc.code == 404:
                    continue  # never accepted there: nothing to reconcile
                health.owed_cancels.append(key)  # retry on next recovery
                continue
            if status.get("state") == "done":
                self.conflicts += 1
                continue
            try:
                client.cancel(
                    status["id"],
                    reason=f"reconciled: key {key} failed over while "
                           f"{endpoint} was down")
                cancelled += 1
                self.reconciled += 1
            except ServiceError:
                health.owed_cancels.append(key)
        return cancelled

    # --- request lifecycle across shards -----------------------------------------
    def wait(self, routed: Routed, timeout: float = 300.0,
             poll: float = 0.1) -> Dict[str, Any]:
        """Wait for a routed request on the shard that owns it.

        A shard restart mid-wait is survived by the client's poll loop
        (the shard recovers the request from its journal and finishes
        it); the router adds nothing here because ownership never moves
        after acceptance.
        """
        return self.clients[routed.endpoint].wait(
            routed.request_id, timeout=timeout, poll=poll)

    def wait_all(self, routed: List[Routed], timeout: float = 300.0,
                 poll: float = 0.1) -> Dict[str, Dict[str, Any]]:
        """Wait for every routed request; ``{key: terminal status}``.

        One shared deadline across the batch, mirroring
        :meth:`ServiceClient.wait_all`.
        """
        deadline = time.monotonic() + timeout
        done: Dict[str, Dict[str, Any]] = {}
        for i, item in enumerate(routed):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self._raise_pending(timeout, routed[i:])
            try:
                done[item.key] = self.wait(item, timeout=remaining, poll=poll)
            except ServiceError as exc:
                if exc.code != 408:
                    raise
                self._raise_pending(timeout, routed[i:], cause=exc)
        return done

    @staticmethod
    def _raise_pending(timeout: float, pending: List[Routed],
                       cause: Optional[BaseException] = None) -> None:
        from ..errors import ServiceTimeout
        keys = [r.key for r in pending]
        raise ServiceTimeout(
            f"sharded wait_all budget of {timeout}s exhausted with "
            f"{len(keys)} request(s) still pending: {keys}",
            pending=tuple(keys)) from cause

    def stats(self) -> Dict[str, Any]:
        """Aggregate stats across shards (down shards reported, not fatal)."""
        shards: Dict[str, Any] = {}
        for endpoint, client in self.clients.items():
            try:
                shards[endpoint] = client.stats()
            except ServiceError as exc:
                self._mark_failure(endpoint)
                shards[endpoint] = {"ok": False, "error": str(exc)}
        return {
            "shards": shards,
            "healthy": self.healthy(),
            "router": {
                "failovers": self.failovers,
                "adoptions": self.adoptions,
                "forced_failovers": self.forced_failovers,
                "reconciled": self.reconciled,
                "conflicts": self.conflicts,
            },
        }

    def shutdown_all(self, mode: str = "graceful") -> Dict[str, bool]:
        """Ask every reachable shard to shut down; ``{endpoint: acked}``."""
        acked: Dict[str, bool] = {}
        for endpoint, client in self.clients.items():
            try:
                client.shutdown(mode)
                acked[endpoint] = True
            except ServiceError:
                acked[endpoint] = False
        return acked
