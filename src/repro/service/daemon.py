"""The simulation service daemon: socket server + dispatcher + recovery.

:class:`ServiceDaemon` ties the pieces together around an asyncio event
loop listening on a Unix socket and, optionally, a TCP port:

* connections speak the JSON-lines protocol (:mod:`.protocol`); every
  request is validated, admitted through the :class:`.AdmissionQueue`
  (shedding with 429 past high water), journaled, and dispatched to the
  :class:`.ServicePool` when a worker slot frees up.  The TCP listener
  additionally sniffs HTTP request lines and answers one-shot HTTP/1.1
  exchanges, so ``curl`` can drive the service;
* **connection hardening**: at most ``max_connections`` concurrent
  connections (excess sheds with 503 before reading a byte), per-read
  and per-write deadlines of ``io_deadline`` seconds (a slow-loris
  client is disconnected, never blocks the loop), a hard per-line byte
  ceiling (overlong frames answer 400 and close — framing cannot be
  resynchronized), and torn final frames (EOF with no newline) are
  still parsed and answered;
* **idempotent resubmission**: a submit carrying an ``idempotency_key``
  the daemon has seen returns the original request's status (flagged
  ``deduped``) instead of running twice.  The key→id map is rebuilt
  from the journal on recovery, so dedup survives a SIGKILL — this is
  the primitive the shard router builds exactly-once on;
* the **degradation ladder** engages at dispatch time: queue pressure
  ≥ 50% halves the GA generation budget and arms a solver watchdog,
  ≥ 85% quarters it and tightens the watchdog — the service keeps
  answering under load, trading fidelity the way §3.2.2's window-size
  knob trades solve quality for tractability.  Degradations are recorded
  in the journal's ``running`` records and the response's ``degrade``
  field, never silently;
* **recovery**: on startup with an existing journal the daemon replays
  it (:meth:`.RequestJournal.load` — which also audits exactly-once),
  serves finished results from the journal, and re-enqueues every
  accepted-but-unfinished request, exempt from admission control.  A
  SIGKILL'd daemon therefore resumes its backlog with no client action,
  and a result computed before the kill is never recomputed.

The daemon is deliberately single-loop: all state mutation happens on
the event loop thread, except the pool's ``on_dispatch`` journal append
(crash-safe by the journal's atomic line writes).
"""

from __future__ import annotations

import asyncio
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..errors import PoisonRequestError, ServiceError
from ..telemetry import MetricsRegistry
from . import protocol
from .journal import RequestJournal
from .pool import PoolConfig, ServicePool
from .queue import AdmissionQueue, make_policy
from .tasks import result_summary

#: (generations divisor, watchdog seconds) per degradation level.
DEGRADE_LADDER = {1: (2, 5.0), 2: (4, 1.0)}

#: Request states that will never change again.
TERMINAL_STATES = frozenset({"done", "failed", "quarantined", "cancelled"})


@dataclass
class ServiceConfig:
    """Everything ``repro serve`` needs to stand up a daemon."""

    socket_path: str
    journal_path: Optional[str] = None
    workers: int = 2
    high_water: int = 16
    policy: str = "fcfs"
    deadline: Optional[float] = None
    retries: int = 2
    quarantine_after: int = 2
    allow_chaos: bool = False
    degrade: bool = True
    #: also listen on TCP ``host:port`` ("127.0.0.1:0" picks a free port).
    tcp: Optional[str] = None
    #: concurrent-connection ceiling across both listeners.
    max_connections: int = 128
    #: per-read/per-write deadline (seconds) on every connection.
    io_deadline: float = 30.0
    #: shard identity "i/N" echoed by ping/stats (set by ``serve --shard``).
    shard: Optional[str] = None


class ServiceDaemon:
    """One long-lived simulation service instance."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.metrics = MetricsRegistry()
        self.journal = (RequestJournal(config.journal_path)
                        if config.journal_path else None)
        self.queue = AdmissionQueue(
            make_policy(config.policy), high_water=config.high_water)
        self.pool = ServicePool(
            PoolConfig(
                workers=config.workers,
                deadline=config.deadline,
                retries=config.retries,
                quarantine_after=config.quarantine_after,
                allow_chaos=config.allow_chaos,
            ),
            metrics=self.metrics,
            on_dispatch=self._on_dispatch,
        )
        #: request id → {"state", "params", and terminal details}.
        self._status: Dict[str, Dict[str, Any]] = {}
        #: idempotency key → request id (journal-backed, rebuilt on boot).
        self._keys: Dict[str, str] = {}
        self._terminal_events: Dict[str, asyncio.Event] = {}
        self._seq = 0
        self._connections = 0
        self._draining = False
        self._stopped: Optional[asyncio.Event] = None
        self._kick: Optional[asyncio.Event] = None
        self._started_at = time.monotonic()
        self.recovered = 0
        #: actual (host, port) of the TCP listener once bound.
        self.tcp_address: Optional[tuple] = None

    # --- lifecycle ---------------------------------------------------------------
    def _recover(self) -> None:
        """Replay the journal: serve old results, re-enqueue unfinished work."""
        if self.journal is None or not self.journal.exists():
            return
        view = self.journal.load()
        self._seq = view.seq_max
        if view.dropped_tail:
            # Replay skipped a torn final record; cut it off before we
            # append again, or the damage would end up mid-file where
            # later loads must treat it as real corruption.
            self.journal.repair()
            self.metrics.inc("service.journal_tail_dropped")
        for rid, record in view.requests.items():
            key = (record["params"] or {}).get("idempotency_key")
            if key:
                self._keys[key] = rid
            terminal = view.terminal.get(rid)
            if terminal is None:
                try:
                    # A journal from an older build may name a method
                    # (or other value) this build no longer accepts.
                    protocol.validate_submit(record["params"])
                except ServiceError as exc:
                    self._status[rid] = {"state": "failed",
                                         "params": record["params"],
                                         "error": str(exc), "code": exc.code}
                    self.journal.append_failed(rid, str(exc), exc.code, 0)
                    continue
                self._status[rid] = {"state": "queued",
                                     "params": record["params"],
                                     "recovered": True}
                self.queue.offer(rid, record["params"], exempt=True)
                self.recovered += 1
                self.metrics.inc("service.recovered")
                continue
            kind = terminal["kind"].replace("service-", "")
            entry: Dict[str, Any] = {"state": kind,
                                     "params": record["params"]}
            if kind == "done":
                entry["summary"] = terminal.get("summary")
                entry["elapsed"] = terminal.get("elapsed")
            else:
                entry["error"] = terminal.get("error")
                entry["code"] = terminal.get("code", 500)
            self._status[rid] = entry

    @staticmethod
    def _parse_tcp(spec: str) -> tuple:
        host, _, port = spec.rpartition(":")
        host = host.strip("[]") or "127.0.0.1"
        try:
            return host, int(port)
        except ValueError:
            raise ServiceError(
                f"invalid tcp listen address {spec!r}; want host:port",
                code=400) from None

    async def serve(self, ready: Optional[asyncio.Event] = None) -> None:
        """Run the daemon until a shutdown request (or cancellation)."""
        loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        self._kick = asyncio.Event()
        self._recover()
        self.pool.start()
        if os.path.exists(self.config.socket_path):
            os.unlink(self.config.socket_path)  # stale socket from a kill
        server = await asyncio.start_unix_server(
            self._handle_connection, path=self.config.socket_path,
            limit=protocol.MAX_LINE_BYTES)
        tcp_server = None
        if self.config.tcp:
            host, port = self._parse_tcp(self.config.tcp)
            tcp_server = await asyncio.start_server(
                self._handle_connection, host=host, port=port,
                limit=protocol.MAX_LINE_BYTES)
            self.tcp_address = tcp_server.sockets[0].getsockname()[:2]
        dispatcher = loop.create_task(self._dispatch_loop())
        if ready is not None:
            ready.set()
        try:
            await self._stopped.wait()
        finally:
            dispatcher.cancel()
            server.close()
            await server.wait_closed()
            if tcp_server is not None:
                tcp_server.close()
                await tcp_server.wait_closed()
            self.pool.shutdown(wait=False)
            if os.path.exists(self.config.socket_path):
                os.unlink(self.config.socket_path)

    # --- dispatch ----------------------------------------------------------------
    def _on_dispatch(self, request_id: str, attempt: int) -> None:
        """Pool callback (supervisor thread): journal each dispatch."""
        status = self._status.get(request_id, {})
        if self.journal is not None:
            self.journal.append_running(
                request_id, attempt, degrade=status.get("degrade", 0),
                overrides=status.get("overrides"))

    def _degrade(self, params: Dict[str, Any]) -> tuple:
        """Apply the pressure ladder; returns (params, level, overrides)."""
        level = self.queue.degrade_level() if self.config.degrade else 0
        if level == 0:
            return params, 0, {}
        divisor, watchdog = DEGRADE_LADDER[min(level, 2)]
        overrides: Dict[str, Any] = {}
        effective = dict(params)
        from ..experiments.config import get_scale  # local: cheap, cycle-free
        base = params.get("generations") or get_scale(params.get("scale")).generations
        capped = max(1, base // divisor)
        if capped < base:
            effective["generations"] = overrides["generations"] = capped
        if params.get("watchdog_budget") is None:
            effective["watchdog_budget"] = overrides["watchdog_budget"] = watchdog
        return effective, level, overrides

    async def _dispatch_loop(self) -> None:
        assert self._kick is not None
        while True:
            while self.queue and self.pool.active() < self.config.workers:
                rid, params = self.queue.take()
                effective, level, overrides = self._degrade(params)
                status = self._status[rid]
                status.update(state="running", degrade=level,
                              overrides=overrides or None)
                if level:
                    self.metrics.inc("service.degraded")
                future = self.pool.submit(rid, effective)
                wrapped = asyncio.wrap_future(future)
                asyncio.get_running_loop().create_task(
                    self._finish(rid, wrapped))
            self.metrics.set_gauge("service.queue_depth", self.queue.depth)
            self._kick.clear()
            try:
                await asyncio.wait_for(self._kick.wait(), timeout=0.1)
            except asyncio.TimeoutError:
                pass

    async def _finish(self, rid: str, wrapped: "asyncio.Future") -> None:
        """Await one request's outcome; journal its terminal record."""
        status = self._status[rid]
        started = time.monotonic()
        try:
            result = await wrapped
        except PoisonRequestError as exc:
            status.update(state="quarantined", error=str(exc), code=exc.code,
                          crashes=exc.crashes)
            if self.journal is not None:
                self.journal.append_quarantined(rid, str(exc), exc.crashes)
        except ServiceError as exc:
            if exc.code == 409:
                # The pool honoured a cancel(): terminal, charges nothing.
                status.update(state="cancelled", error=str(exc), code=409)
                if self.journal is not None:
                    self.journal.append_cancelled(rid, str(exc))
            else:
                attempts = getattr(exc, "attempts", 0)
                status.update(state="failed", error=str(exc), code=exc.code,
                              attempts=attempts)
                if self.journal is not None:
                    self.journal.append_failed(rid, str(exc), exc.code, attempts)
        except Exception as exc:  # pragma: no cover - pool always wraps
            status.update(state="failed", error=str(exc), code=500)
            if self.journal is not None:
                self.journal.append_failed(rid, str(exc), 500, 0)
        else:
            summary = result_summary(result)
            elapsed = time.monotonic() - started
            status.update(state="done", summary=summary, elapsed=elapsed)
            if self.journal is not None:
                self.journal.append_done(rid, result, summary, elapsed)
        event = self._terminal_events.pop(rid, None)
        if event is not None:
            event.set()
        assert self._kick is not None
        self._kick.set()
        if self._draining and not self._outstanding():
            assert self._stopped is not None
            self._stopped.set()

    def _outstanding(self) -> bool:
        return bool(self.queue) or self.pool.active() > 0

    # --- protocol handlers -------------------------------------------------------
    def _public_status(self, rid: str) -> Dict[str, Any]:
        status = self._status[rid]
        public = {k: v for k, v in status.items()
                  if k not in {"params", "overrides"} and v is not None}
        public["id"] = rid
        return public

    def _handle_submit(self, message: Dict[str, Any]) -> Dict[str, Any]:
        if self._draining:
            raise ServiceError("service is shutting down", code=503)
        params = message["params"]
        key = params.get("idempotency_key")
        if key is not None:
            existing = self._keys.get(key)
            if existing is not None:
                # Exactly-once under resend: the retry (or a failed-over
                # router) gets the original request, never a second run.
                self.metrics.inc("service.deduped")
                response = protocol.ok_response(**self._public_status(existing))
                response["deduped"] = True
                return response
        self._seq += 1
        rid = f"r{self._seq:06d}"
        try:
            self.queue.offer(rid, params)
        except ServiceError:
            self._seq -= 1
            self.metrics.inc("service.shed")
            raise
        self.metrics.inc("service.accepted")
        if self.journal is not None:
            self.journal.append_request(rid, self._seq, params)
        self._status[rid] = {"state": "queued", "params": params}
        if key is not None:
            self._keys[key] = rid
        assert self._kick is not None
        self._kick.set()
        return protocol.ok_response(
            id=rid, state="queued", depth=self.queue.depth,
            degrade=self.queue.degrade_level())

    async def _handle_wait(self, message: Dict[str, Any]) -> Dict[str, Any]:
        rid = message["id"]
        if rid not in self._status:
            raise ServiceError(f"unknown request id {rid!r}", code=404)
        timeout = message.get("timeout")
        if self._status[rid]["state"] in TERMINAL_STATES:
            return protocol.ok_response(**self._public_status(rid))
        event = self._terminal_events.setdefault(rid, asyncio.Event())
        try:
            await asyncio.wait_for(event.wait(), timeout=timeout)
        except asyncio.TimeoutError:
            raise ServiceError(
                f"request {rid} not finished within {timeout}s", code=408)
        return protocol.ok_response(**self._public_status(rid))

    def _handle_cancel(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Withdraw a request: terminal for queued, best-effort in flight.

        Cancelling an already-terminal request is a no-op returning its
        status — so shard reconciliation can blindly cancel work that was
        failed over to a peer, without re-checking state first.
        """
        rid = message["id"]
        status = self._status.get(rid)
        if status is None:
            raise ServiceError(f"unknown request id {rid!r}", code=404)
        reason = message.get("reason") or "cancelled by client"
        if status["state"] in TERMINAL_STATES:
            return protocol.ok_response(**self._public_status(rid))
        if status["state"] == "queued" and self.queue.remove(rid) is not None:
            status.update(state="cancelled", error=str(reason), code=409)
            self.metrics.inc("service.cancelled")
            if self.journal is not None:
                self.journal.append_cancelled(rid, str(reason))
            event = self._terminal_events.pop(rid, None)
            if event is not None:
                event.set()
            return protocol.ok_response(**self._public_status(rid))
        # In flight (or racing dispatch): ask the pool; _finish journals
        # the terminal record if the cancel wins the race.
        self.pool.cancel(rid)
        return protocol.ok_response(id=rid, state="cancelling")

    def _handle_status_by_key(self, message: Dict[str, Any]) -> Dict[str, Any]:
        rid = self._keys.get(message["key"])
        if rid is None:
            raise ServiceError(
                f"no request with idempotency key {message['key']!r}",
                code=404)
        response = protocol.ok_response(**self._public_status(rid))
        response["key"] = message["key"]
        return response

    def _identity(self) -> Dict[str, Any]:
        identity: Dict[str, Any] = {}
        if self.config.shard is not None:
            identity["shard"] = self.config.shard
        if self.tcp_address is not None:
            identity["tcp"] = list(self.tcp_address)
        return identity

    def _handle_stats(self) -> Dict[str, Any]:
        states: Dict[str, int] = {}
        for status in self._status.values():
            states[status["state"]] = states.get(status["state"], 0) + 1
        return protocol.ok_response(
            uptime=time.monotonic() - self._started_at,
            queue_depth=self.queue.depth,
            queue_order=self.queue.peek_order(),
            inflight=self.pool.active(),
            pressure=self.queue.pressure(),
            degrade=self.queue.degrade_level(),
            policy=self.queue.policy.name,
            recovered=self.recovered,
            connections=self._connections,
            states=states,
            metrics=self.metrics.snapshot(),
            **self._identity(),
        )

    def request_shutdown(self, mode: str = "graceful") -> None:
        """Begin shutdown: stop admitting; ``now`` abandons the backlog.

        Safe to call from a signal handler on the event-loop thread.
        Graceful mode finishes everything queued and in flight first
        (the last :meth:`_finish` sets the stop event).
        """
        self._draining = True
        if self._stopped is not None and (
                mode == "now" or not self._outstanding()):
            self._stopped.set()

    async def _handle_shutdown(self, message: Dict[str, Any]) -> Dict[str, Any]:
        mode = message.get("mode", "graceful")
        draining = self._outstanding() and mode != "now"
        self.request_shutdown(mode)
        return protocol.ok_response(
            state="draining" if draining else "stopping")

    async def _handle_message(self, message: Dict[str, Any]) -> Dict[str, Any]:
        message = protocol.validate_request(message)
        op = message["op"]
        if op == "ping":
            return protocol.ok_response(
                pong=True, version=protocol.PROTOCOL_VERSION,
                pid=os.getpid(), **self._identity())
        if op == "submit":
            return self._handle_submit(message)
        if op == "status":
            if message.get("key") is not None:
                return self._handle_status_by_key(message)
            rid = message["id"]
            if rid not in self._status:
                raise ServiceError(f"unknown request id {rid!r}", code=404)
            return protocol.ok_response(**self._public_status(rid))
        if op == "wait":
            return await self._handle_wait(message)
        if op == "cancel":
            return self._handle_cancel(message)
        if op == "stats":
            return self._handle_stats()
        return await self._handle_shutdown(message)  # op == "shutdown"

    # --- connection handling -----------------------------------------------------
    async def _read_line(self, reader: asyncio.StreamReader) -> bytes:
        """One deadline-bounded line read (the slow-loris guard)."""
        return await asyncio.wait_for(
            reader.readline(), timeout=self.config.io_deadline)

    async def _respond(self, writer: asyncio.StreamWriter,
                       payload: bytes) -> bool:
        """Deadline-bounded write; False when the client stalled or reset."""
        writer.write(payload)
        try:
            await asyncio.wait_for(
                writer.drain(), timeout=self.config.io_deadline)
        except (ConnectionResetError, BrokenPipeError, asyncio.TimeoutError):
            return False
        return True

    async def _handle_http(self, first_line: bytes,
                           reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        """One-shot HTTP/1.1 exchange (the listener sniffed a method)."""
        try:
            head_bytes = len(first_line)
            headers: Dict[str, str] = {}
            while True:
                line = await self._read_line(reader)
                head_bytes += len(line)
                if head_bytes > protocol.MAX_HTTP_HEAD_BYTES:
                    raise ServiceError("HTTP request head too large", code=400)
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            parts = first_line.decode("latin-1").split()
            if len(parts) < 2:
                raise ServiceError("malformed HTTP request line", code=400)
            method, target = parts[0], parts[1]
            length = int(headers.get("content-length") or 0)
            if length > protocol.MAX_LINE_BYTES:
                raise ServiceError("HTTP body exceeds the line limit", code=400)
            body = b""
            if length:
                body = await asyncio.wait_for(
                    reader.readexactly(length), timeout=self.config.io_deadline)
            message = protocol.http_request_to_message(method, target, body)
            response = await self._handle_message(message)
        except ServiceError as exc:
            response = protocol.error_response(exc)
        except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                ConnectionResetError, ValueError):
            return  # torn or stalled mid-request: nothing to answer
        except Exception as exc:  # defensive: never drop the exchange
            response = protocol.error_response(str(exc), code=500)
        await self._respond(writer, protocol.encode_http_response(response))

    async def _serve_lines(self, first_line: bytes,
                           reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        """JSON-lines request loop (Unix socket, or TCP without HTTP)."""
        line: Optional[bytes] = first_line
        while True:
            if line is None:
                try:
                    line = await self._read_line(reader)
                except (asyncio.TimeoutError, ConnectionResetError,
                        asyncio.IncompleteReadError):
                    break  # stalled (slow-loris) or reset: disconnect
                except ValueError:
                    # Line past the StreamReader limit: answer 400 and
                    # close — framing cannot be recovered past this.
                    await self._respond(writer, protocol.encode_message(
                        protocol.error_response(
                            "message exceeds the line limit", code=400)))
                    break
            if not line:
                break
            # A torn final frame (EOF with no newline) still parses:
            # the bytes are all there, only the terminator is missing.
            try:
                message = protocol.decode_message(line)
                response = await self._handle_message(message)
            except ServiceError as exc:
                response = protocol.error_response(exc)
            except Exception as exc:  # defensive: never drop the line
                response = protocol.error_response(str(exc), code=500)
            if not await self._respond(writer, protocol.encode_message(response)):
                break
            line = None

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        if self._connections >= self.config.max_connections:
            # Shed before reading a byte; one honest 503, then close.
            self.metrics.inc("service.connections_shed")
            try:
                writer.write(protocol.encode_message(protocol.error_response(
                    "connection limit reached", code=503)))
                await asyncio.wait_for(writer.drain(), timeout=1.0)
            except Exception:
                pass
            writer.close()
            try:
                await writer.wait_closed()
            except BaseException:
                pass
            return
        self._connections += 1
        self.metrics.inc("service.connections")
        try:
            try:
                first = await self._read_line(reader)
            except ValueError:
                # First line already past the StreamReader limit: the 400
                # must come from here — _serve_lines never sees this line.
                await self._respond(writer, protocol.encode_message(
                    protocol.error_response(
                        "message exceeds the line limit", code=400)))
                first = b""
            except (asyncio.TimeoutError, ConnectionResetError,
                    asyncio.IncompleteReadError):
                first = b""
            if first:
                if protocol.looks_like_http(first):
                    await self._handle_http(first, reader, writer)
                else:
                    await self._serve_lines(first, reader, writer)
        except asyncio.CancelledError:
            pass  # event loop tearing down mid-read; just close below
        finally:
            self._connections -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except BaseException:  # incl. CancelledError at shutdown
                pass
