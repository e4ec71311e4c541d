"""Resilient blocking client for the simulation service.

One connection per call, on purpose: the client's only state is the
endpoint, so it survives daemon restarts transparently — exactly what
the chaos harness needs when it SIGKILLs the daemon between ``submit``
and ``wait``.  On top of that stateless transport sit two failure
shields, each bounded and observable:

* **bounded retry with full-jitter backoff** (:class:`ClientRetryPolicy`)
  for *transient* transport failures — connection refused, missing
  socket file, reset before a response byte — the exact window a
  restarting daemon occupies.  Protocol violations (undecodable or
  oversized responses) are never retried: the daemon answered, just not
  in a language we share.  The taxonomy is explicit:
  :class:`~repro.errors.TransientServiceError` is retryable,
  plain :class:`~repro.errors.ServiceError` is not.
* **a per-endpoint circuit breaker** (:class:`CircuitBreaker`): after
  ``failure_threshold`` consecutive transport failures the breaker
  opens and calls fail fast (no connect attempt) for ``reset_after``
  seconds, then a single half-open probe decides between closing and
  re-opening.  A fleet of clients hammering a dead shard turns into a
  trickle of probes.

Writes are retried conservatively: a ``submit`` whose failure is
*ambiguous* (the request may have reached the daemon before the
connection died) is resent only when it carries an ``idempotency_key``,
which the daemon deduplicates against its journal — PR 6's exactly-once
property is what makes the resend safe.

Endpoints are either Unix socket paths or ``host:port`` TCP addresses
(:func:`parse_endpoint`); the wire protocol is identical on both.
"""

from __future__ import annotations

import random
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ServiceError, ServiceTimeout, TransientServiceError
from ..resilience import BackoffPolicy
from .protocol import MAX_LINE_BYTES, decode_message, encode_message

#: Errors that mean "the endpoint is briefly absent" — retry territory.
_TRANSIENT_OS_ERRORS = (
    ConnectionRefusedError,
    ConnectionResetError,
    ConnectionAbortedError,
    BrokenPipeError,
    FileNotFoundError,   # unix socket path not (re)created yet
    TimeoutError,        # socket.timeout is an alias since 3.10
)


def parse_endpoint(endpoint: str) -> Tuple[str, Any]:
    """Classify an endpoint string: ``("tcp", (host, port))`` or ``("unix", path)``.

    ``host:port`` with an integer port and no path separator is TCP
    (``[::1]:9000`` works for IPv6); everything else is a Unix socket
    path.
    """
    if "/" not in endpoint and ":" in endpoint:
        host, _, port = endpoint.rpartition(":")
        if port.isdigit():
            return "tcp", (host.strip("[]") or "127.0.0.1", int(port))
    return "unix", endpoint


@dataclass(frozen=True)
class ClientRetryPolicy:
    """Bounded retry for transient transport failures, with full jitter.

    ``attempts`` counts total tries (1 = no retry).  Each retry sleeps
    ``uniform(0, backoff.delay(attempt))`` — *full* jitter, so a
    thundering herd of clients retrying against a restarting daemon
    decorrelates instead of re-synchronising on the backoff schedule.
    """

    attempts: int = 4
    backoff: BackoffPolicy = field(
        default_factory=lambda: BackoffPolicy(
            initial=0.05, factor=2.0, max_delay=2.0))

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Jittered sleep before retry ``attempt`` (1-based)."""
        return rng.uniform(0.0, self.backoff.delay(max(attempt, 1)))


#: Retry policy that never retries (single attempt).
NO_RETRY = ClientRetryPolicy(attempts=1)


class CircuitBreaker:
    """Per-endpoint failure gate: closed → open → half-open → closed.

    Thread-safe; one instance guards one endpoint.  Only *transport*
    failures trip it — a daemon answering with an error code is a
    healthy daemon.
    """

    def __init__(self, failure_threshold: int = 5,
                 reset_after: float = 5.0) -> None:
        self.failure_threshold = int(failure_threshold)
        self.reset_after = float(reset_after)
        self._lock = threading.Lock()
        self._failures = 0
        self._opened_at: Optional[float] = None
        self._probing = False
        #: times the breaker opened (telemetry for stats/tests).
        self.opened = 0

    def allow(self) -> bool:
        """May a request proceed right now?"""
        with self._lock:
            if self._opened_at is None:
                return True
            if time.monotonic() - self._opened_at < self.reset_after:
                return False
            # Half-open: let exactly one probe through at a time.
            if self._probing:
                return False
            self._probing = True
            return True

    @property
    def state(self) -> str:
        with self._lock:
            if self._opened_at is None:
                return "closed"
            if time.monotonic() - self._opened_at < self.reset_after:
                return "open"
            return "half-open"

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._opened_at = None
            self._probing = False

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            self._probing = False
            if self._opened_at is not None or (
                    self._failures >= self.failure_threshold):
                if self._opened_at is None:
                    self.opened += 1
                self._opened_at = time.monotonic()


class ServiceClient:
    """Talks JSON-lines to a :class:`~repro.service.ServiceDaemon`.

    Parameters
    ----------
    endpoint:
        Unix socket path or ``host:port`` (see :func:`parse_endpoint`).
    timeout:
        Per-connection socket timeout (connect + one round trip).
    retry:
        Transient-failure retry policy; :data:`NO_RETRY` disables.
    breaker:
        Circuit breaker guarding this endpoint; pass a shared instance
        when several clients target the same daemon, or None for a
        private one.
    seed:
        Seeds the jitter RNG (chaos runs pin it for reproducibility).
    """

    def __init__(
        self,
        endpoint: str,
        timeout: float = 30.0,
        retry: Optional[ClientRetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        seed: Optional[int] = None,
    ) -> None:
        self.endpoint = endpoint
        self.kind, self.address = parse_endpoint(endpoint)
        self.timeout = timeout
        self.retry = retry if retry is not None else ClientRetryPolicy()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self._rng = random.Random(seed)
        #: transport-level telemetry (tests and the router read these).
        self.retries = 0

    # --- transport ---------------------------------------------------------------
    def _connect(self) -> socket.socket:
        if self.kind == "tcp":
            return socket.create_connection(self.address, timeout=self.timeout)
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        try:
            sock.connect(self.address)
        except BaseException:
            sock.close()
            raise
        return sock

    def request_once(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """One send/receive round trip, no retries, no breaker.

        Raises :class:`TransientServiceError` for transport failures
        (retryable) and plain :class:`ServiceError` (code 502) for
        protocol violations (not retryable) — the two are distinct so
        retry loops can tell "daemon briefly absent" from "daemon
        speaking garbage".
        """
        data = encode_message(message)
        sent = False
        try:
            with self._connect() as sock:
                sock.sendall(data)
                sent = True
                line = self._read_line(sock)
        except _TRANSIENT_OS_ERRORS as exc:
            err = TransientServiceError(
                f"service at {self.endpoint} unreachable: {exc}")
            err.sent = sent  # type: ignore[attr-defined]
            raise err from exc
        except OSError as exc:
            err = TransientServiceError(
                f"service at {self.endpoint} failed: {exc}")
            err.sent = sent  # type: ignore[attr-defined]
            raise err from exc
        if not line:
            # Connection closed without a response byte: the daemon died
            # (or dropped us) mid-request — transient, but the request
            # may have been processed, so mark it ambiguous.
            err = TransientServiceError(
                f"service at {self.endpoint} closed the connection "
                "before responding")
            err.sent = True  # type: ignore[attr-defined]
            raise err
        try:
            return decode_message(line)
        except ServiceError as exc:
            # The daemon answered, but not in protocol: NOT retryable.
            raise ServiceError(
                f"protocol error from {self.endpoint}: {exc}",
                code=502) from exc

    def request(self, message: Dict[str, Any], *,
                retry: Optional[ClientRetryPolicy] = None,
                idempotent: bool = True) -> Dict[str, Any]:
        """Send one message through breaker + retry; returns the response.

        ``idempotent=False`` (used by key-less submits) restricts
        retries to failures where the request provably never reached
        the daemon (connect-phase); ambiguous failures propagate so the
        caller can decide.
        """
        policy = retry if retry is not None else self.retry
        last: Optional[TransientServiceError] = None
        for attempt in range(1, max(policy.attempts, 1) + 1):
            if not self.breaker.allow():
                raise TransientServiceError(
                    f"circuit open for {self.endpoint} "
                    f"(threshold {self.breaker.failure_threshold} transport "
                    "failures); backing off")
            try:
                response = self.request_once(message)
            except TransientServiceError as exc:
                self.breaker.record_failure()
                last = exc
                ambiguous = bool(getattr(exc, "sent", False))
                if ambiguous and not idempotent:
                    raise
                if attempt < policy.attempts:
                    self.retries += 1
                    time.sleep(policy.delay(attempt, self._rng))
                continue
            self.breaker.record_success()
            return response
        assert last is not None
        raise last

    @staticmethod
    def _read_line(sock: socket.socket) -> bytes:
        chunks: List[bytes] = []
        total = 0
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
            total += len(chunk)
            if chunk.endswith(b"\n") or total > MAX_LINE_BYTES:
                break
        return b"".join(chunks)

    def _checked(self, message: Dict[str, Any], *,
                 idempotent: bool = True) -> Dict[str, Any]:
        response = self.request(message, idempotent=idempotent)
        if not response.get("ok"):
            raise ServiceError(
                response.get("error", "unknown service error"),
                code=int(response.get("code", 500)))
        return response

    # --- operations --------------------------------------------------------------
    def ping(self) -> Dict[str, Any]:
        return self._checked({"op": "ping"})

    def alive(self) -> bool:
        """True when the daemon answers a ping right now (single attempt)."""
        try:
            response = self.request_once({"op": "ping"})
        except ServiceError:
            return False
        return bool(response.get("pong"))

    def submit(self, **params: Any) -> Dict[str, Any]:
        """Submit a simulation request; returns the acceptance response.

        Keyword arguments are the protocol's submit params: ``workload``
        and ``method`` (required), plus ``scale``, ``seed``,
        ``generations``, ``watchdog_budget``, ``nodes_hint``,
        ``walltime_hint``, ``chaos``, and ``idempotency_key``.

        With an ``idempotency_key`` the submit is fully retryable: a
        resend after an ambiguous failure is deduplicated by the daemon
        against its journal, so the request runs exactly once no matter
        how many times the connection died mid-ack.  Without a key,
        only provably-unsent submits are retried.
        """
        idempotent = params.get("idempotency_key") is not None
        return self._checked({"op": "submit", "params": params},
                             idempotent=idempotent)

    def status(self, request_id: str) -> Dict[str, Any]:
        return self._checked({"op": "status", "id": request_id})

    def cancel(self, request_id: str,
               reason: Optional[str] = None) -> Dict[str, Any]:
        """Withdraw a queued request (409-terminal); no-op if terminal."""
        message: Dict[str, Any] = {"op": "cancel", "id": request_id}
        if reason is not None:
            message["reason"] = reason
        return self._checked(message)

    def status_by_key(self, key: str) -> Dict[str, Any]:
        """Look a request up by its idempotency key (404 when unknown)."""
        return self._checked({"op": "status", "key": key})

    def stats(self) -> Dict[str, Any]:
        return self._checked({"op": "stats"})

    def shutdown(self, mode: str = "graceful") -> Dict[str, Any]:
        return self._checked({"op": "shutdown", "mode": mode})

    # --- polling helpers ---------------------------------------------------------
    TERMINAL = frozenset({"done", "failed", "quarantined", "cancelled"})

    def wait(self, request_id: str, timeout: float = 300.0,
             poll: float = 0.1) -> Dict[str, Any]:
        """Poll until ``request_id`` reaches a terminal state.

        Daemon restarts mid-wait are survived: an unreachable daemon just
        extends the poll loop (until ``timeout``), and a restarted daemon
        answers from its recovered journal.  Raises
        :class:`~repro.errors.ServiceTimeout` when the budget runs out.
        """
        deadline = time.monotonic() + timeout
        last: Optional[ServiceError] = None
        while time.monotonic() < deadline:
            try:
                status = self.status(request_id)
            except ServiceError as exc:
                if exc.code == 404:
                    raise  # the daemon is up and has never heard of it
                last = exc  # unreachable: daemon may be restarting
            else:
                if status.get("state") in self.TERMINAL:
                    return status
            time.sleep(poll)
        raise ServiceTimeout(
            f"request {request_id} not terminal within {timeout}s"
            + (f" (last error: {last})" if last else ""),
            pending=(request_id,))

    def wait_all(self, request_ids: List[str], timeout: float = 300.0,
                 poll: float = 0.1) -> Dict[str, Dict[str, Any]]:
        """Wait for every id; returns ``{id: terminal status}``.

        ``timeout`` bounds the *whole batch*: each wait gets exactly the
        time left on the shared deadline (never a negative or garbage
        remainder), and exhaustion raises one
        :class:`~repro.errors.ServiceTimeout` naming every id still
        pending — not just the one whose wait happened to hit the wall.
        """
        deadline = time.monotonic() + timeout
        done: Dict[str, Dict[str, Any]] = {}
        ids = list(request_ids)
        for i, rid in enumerate(ids):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self._raise_wait_all_timeout(timeout, ids[i:])
            try:
                done[rid] = self.wait(rid, timeout=remaining, poll=poll)
            except ServiceTimeout as exc:
                self._raise_wait_all_timeout(timeout, ids[i:], cause=exc)
        return done

    @staticmethod
    def _raise_wait_all_timeout(timeout: float, pending: List[str],
                                cause: Optional[BaseException] = None) -> None:
        err = ServiceTimeout(
            f"wait_all budget of {timeout}s exhausted with "
            f"{len(pending)} request(s) still pending: {pending}",
            pending=tuple(pending))
        raise err from cause
