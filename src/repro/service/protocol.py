"""JSON-lines wire protocol for the simulation service.

One message per line, UTF-8, newline-terminated.  Requests carry an
``op`` plus op-specific fields; responses carry ``ok`` (bool) plus either
result fields or ``code``/``error`` mirroring
:class:`~repro.errors.ServiceError`'s HTTP-style codes.  The framing is
deliberately trivial — any language (or ``socat``) can speak it — and
every message is a self-contained JSON object, so a connection dropped
mid-conversation never leaves ambiguous state on either side.

Validation lives here, so a submit at the door and a journaled request
replayed on recovery are checked by the same :func:`validate_submit`.
The offline journal audit (``tools/validate_checkpoint.py --kind
journal``) is stdlib-only and checks the journal's structure, not submit
params.  :func:`submit_spec` turns validated params into the
:class:`~repro.experiments.spec.RunSpec` a request runs; its digest is
what an idempotency key is bound to.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from ..errors import ServiceError
from ..experiments.config import SCALES
from ..experiments.spec import RunSpec
from ..experiments.workloads import ALL_WORKLOADS
from ..methods import available_methods

#: Bumped on incompatible wire changes; echoed by ``ping``.
PROTOCOL_VERSION = 1

#: Ceiling on one encoded line; a client exceeding it is malformed.
MAX_LINE_BYTES = 1 << 20

#: Operations the daemon understands.
OPS = frozenset({"ping", "submit", "status", "wait", "cancel", "stats",
                 "shutdown"})

#: Ceiling on one HTTP request head (request line + headers).
MAX_HTTP_HEAD_BYTES = 8192

#: Upper bound on a client-supplied idempotency key.
MAX_KEY_LENGTH = 128

#: Chaos directive keys a submit may carry (honoured only when the daemon
#: runs with ``allow_chaos``; silently ignored otherwise).
CHAOS_KEYS = frozenset({"crash_attempts", "hang_attempts", "hang_seconds"})


def encode_message(message: Dict[str, Any]) -> bytes:
    """Serialize one message to its wire form (newline included)."""
    data = json.dumps(message, sort_keys=True).encode("utf-8") + b"\n"
    if len(data) > MAX_LINE_BYTES:
        raise ServiceError(
            f"message of {len(data)} bytes exceeds the {MAX_LINE_BYTES}-byte "
            "line limit", code=400)
    return data


def decode_message(line: bytes | str) -> Dict[str, Any]:
    """Parse one wire line into a message dict (400 on malformed input)."""
    if isinstance(line, bytes):
        if len(line) > MAX_LINE_BYTES:
            raise ServiceError("message exceeds the line limit", code=400)
        line = line.decode("utf-8", errors="replace")
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ServiceError(f"malformed JSON message: {exc}", code=400) from exc
    if not isinstance(message, dict):
        raise ServiceError("message must be a JSON object", code=400)
    return message


def ok_response(**fields: Any) -> Dict[str, Any]:
    """A success response with ``ok: true`` plus result fields."""
    response = {"ok": True}
    response.update(fields)
    return response


def error_response(error: ServiceError | str, *, code: Optional[int] = None) -> Dict[str, Any]:
    """A failure response mirroring :class:`ServiceError`."""
    if isinstance(error, ServiceError):
        return {"ok": False, "code": error.code, "error": str(error)}
    return {"ok": False, "code": int(code or 500), "error": str(error)}


def _require(value: Any, name: str, kind: type, *, positive: bool = False) -> Any:
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ServiceError(
            f"field {name!r} must be {kind.__name__}, got {type(value).__name__}",
            code=400)
    if positive and value <= 0:
        raise ServiceError(f"field {name!r} must be positive, got {value}", code=400)
    return value


def validate_chaos(chaos: Any) -> Dict[str, Any]:
    """Validate a submit's chaos directive (fault-injection knobs)."""
    if not isinstance(chaos, dict):
        raise ServiceError("field 'chaos' must be an object", code=400)
    unknown = set(chaos) - CHAOS_KEYS
    if unknown:
        raise ServiceError(
            f"unknown chaos keys {sorted(unknown)}; known: {sorted(CHAOS_KEYS)}",
            code=400)
    out: Dict[str, Any] = {}
    for key in ("crash_attempts", "hang_attempts"):
        if key in chaos:
            value = chaos[key]
            if not isinstance(value, int) or isinstance(value, bool) or value < -1:
                raise ServiceError(
                    f"chaos.{key} must be an int >= -1 (-1 = every attempt)",
                    code=400)
            out[key] = value
    if "hang_seconds" in chaos:
        out["hang_seconds"] = float(
            _require(chaos["hang_seconds"], "chaos.hang_seconds", (int, float)))
    return out


def validate_submit(params: Dict[str, Any]) -> Dict[str, Any]:
    """Normalize and validate a submit's simulation parameters.

    Returns a new dict containing only recognized fields, with hints
    defaulted — this is exactly what gets journaled, so the journal's
    ``params`` records are replayable as-is after a daemon restart.
    """
    if not isinstance(params, dict):
        raise ServiceError("field 'params' must be an object", code=400)
    workload = _require(params.get("workload"), "workload", str)
    if workload not in ALL_WORKLOADS:
        raise ServiceError(
            f"unknown workload {workload!r}; known: {list(ALL_WORKLOADS)}",
            code=400)
    method = _require(params.get("method"), "method", str)
    methods = available_methods()
    if method not in methods:
        raise ServiceError(
            f"unknown method {method!r}; known: {methods}", code=400)
    out: Dict[str, Any] = {"workload": workload, "method": method}
    if params.get("scale") is not None:
        scale = _require(params["scale"], "scale", str)
        if scale not in SCALES:
            raise ServiceError(
                f"unknown scale {scale!r}; known: {sorted(SCALES)}", code=400)
        out["scale"] = scale
    if params.get("seed") is not None:
        out["seed"] = _require(params["seed"], "seed", int)
    if params.get("generations") is not None:
        out["generations"] = _require(
            params["generations"], "generations", int, positive=True)
    if params.get("watchdog_budget") is not None:
        out["watchdog_budget"] = float(_require(
            params["watchdog_budget"], "watchdog_budget", (int, float),
            positive=True))
    # Admission-control hints: how "big" this request is to the priority
    # policy.  They shape queue order only, never the simulation itself.
    out["nodes_hint"] = _require(
        params.get("nodes_hint", 1), "nodes_hint", int, positive=True)
    out["walltime_hint"] = float(_require(
        params.get("walltime_hint", 3600.0), "walltime_hint", (int, float),
        positive=True))
    if params.get("chaos") is not None:
        out["chaos"] = validate_chaos(params["chaos"])
    if params.get("idempotency_key") is not None:
        key = _require(params["idempotency_key"], "idempotency_key", str)
        if not key or len(key) > MAX_KEY_LENGTH:
            raise ServiceError(
                f"idempotency_key must be 1..{MAX_KEY_LENGTH} chars", code=400)
        out["idempotency_key"] = key
    return out


def submit_spec(params: Dict[str, Any]) -> RunSpec:
    """The :class:`RunSpec` of validated submit params.

    The admission hints, the chaos directive and the idempotency key are
    not run fields.  The daemon binds a key to the digest of the params
    as submitted; the worker runs the spec of the params as dispatched,
    which carry any degradation overrides.  A missing scale resolves
    through ``REPRO_SCALE``.
    """
    return RunSpec.create(
        params["workload"], params["method"], params.get("scale"),
        seed=params.get("seed"), generations=params.get("generations"),
        watchdog_budget=params.get("watchdog_budget"),
    )


# --- HTTP/1.1 adapter ----------------------------------------------------------
# The TCP listener also speaks just enough HTTP/1.1 that ``curl`` (or any
# HTTP client) can drive the service: the daemon sniffs the first line of
# a connection, and when it is an HTTP request line the JSON-lines message
# is carried as the request body (``POST /``) or derived from the path
# (``GET /ping``, ``GET /stats``, ``GET /status/<id>``).  Parsing is pure
# and lives here; the async framing stays in the daemon.

#: HTTP methods whose request line identifies a connection as HTTP.
HTTP_METHODS = (b"GET ", b"POST ", b"PUT ", b"HEAD ", b"DELETE ", b"OPTIONS ")

#: HTTP status text for the ServiceError codes the daemon emits.
HTTP_STATUS_TEXT = {
    200: "OK", 400: "Bad Request", 404: "Not Found", 408: "Request Timeout",
    409: "Conflict", 429: "Too Many Requests", 500: "Internal Server Error",
    502: "Bad Gateway", 503: "Service Unavailable",
}


def looks_like_http(first_line: bytes) -> bool:
    """True when a connection's first line is an HTTP request line."""
    return first_line.startswith(HTTP_METHODS)


def http_request_to_message(method: str, target: str,
                            body: bytes) -> Dict[str, Any]:
    """Map one parsed HTTP request onto a protocol message (400 on abuse)."""
    if method == "POST":
        if not body:
            raise ServiceError("POST requires a JSON message body", code=400)
        return decode_message(body)
    if method != "GET":
        raise ServiceError(f"unsupported HTTP method {method}", code=400)
    path, _, query = target.partition("?")
    if path in {"/", "/ping"}:
        return {"op": "ping"}
    if path == "/stats":
        return {"op": "stats"}
    if path.startswith("/status/"):
        return {"op": "status", "id": path[len("/status/"):]}
    raise ServiceError(
        f"unknown HTTP path {path!r}; use POST / with a JSON body, or "
        "GET /ping | /stats | /status/<id>", code=404)


def encode_http_response(response: Dict[str, Any]) -> bytes:
    """Serialize a protocol response as one HTTP/1.1 response."""
    status = 200 if response.get("ok") else int(response.get("code", 500))
    text = HTTP_STATUS_TEXT.get(status, "Error")
    body = json.dumps(response, sort_keys=True).encode("utf-8") + b"\n"
    head = (f"HTTP/1.1 {status} {text}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n")
    return head.encode("ascii") + body


def validate_request(message: Dict[str, Any]) -> Dict[str, Any]:
    """Check a decoded message is a well-formed request (400 otherwise)."""
    op = message.get("op")
    if op not in OPS:
        raise ServiceError(
            f"unknown op {op!r}; known: {sorted(OPS)}", code=400)
    if op == "submit":
        message = dict(message)
        message["params"] = validate_submit(message.get("params") or {})
    if op == "status" and message.get("key") is not None:
        # Status by idempotency key: how a router rediscovers a request
        # it is no longer sure it submitted (ambiguous send + failover).
        key = _require(message["key"], "key", str)
        if not key or len(key) > MAX_KEY_LENGTH:
            raise ServiceError(
                f"key must be 1..{MAX_KEY_LENGTH} chars", code=400)
    elif op in {"status", "wait", "cancel"}:
        _require(message.get("id"), "id", str)
    if op == "wait" and message.get("timeout") is not None:
        _require(message["timeout"], "timeout", (int, float), positive=True)
    if op == "shutdown":
        mode = message.get("mode", "graceful")
        if mode not in {"graceful", "now"}:
            raise ServiceError(
                f"shutdown mode must be 'graceful' or 'now', got {mode!r}",
                code=400)
    return message
