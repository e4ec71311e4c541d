"""Simulation service: protocol, admission, journal, pool self-healing."""

import asyncio
import os
import threading
import time

import pytest

from repro.errors import CheckpointError, ServiceError
from repro.methods import available_methods
from repro.service import (
    AdmissionQueue,
    RequestJournal,
    ServiceClient,
    ServiceConfig,
    ServiceDaemon,
    decode_message,
    encode_message,
    validate_request,
)
from repro.service.journal import KIND_DONE
from repro.parallel.supervisor import deterministic_jitter
from repro.service.queue import make_policy

SMOKE = {"workload": "Cori-S1", "method": "Baseline", "scale": "smoke"}


# --- protocol ------------------------------------------------------------------
class TestProtocol:
    def test_roundtrip(self):
        msg = {"op": "ping", "n": 1}
        assert decode_message(encode_message(msg)) == msg

    def test_malformed_json_is_400(self):
        with pytest.raises(ServiceError) as excinfo:
            decode_message(b"{nope\n")
        assert excinfo.value.code == 400

    def test_non_object_is_400(self):
        with pytest.raises(ServiceError):
            decode_message(b"[1, 2]\n")

    def test_unknown_op(self):
        with pytest.raises(ServiceError) as excinfo:
            validate_request({"op": "launch_missiles"})
        assert excinfo.value.code == 400

    def test_submit_requires_known_workload(self):
        with pytest.raises(ServiceError) as excinfo:
            validate_request({"op": "submit",
                              "params": {"workload": "nope", "method": "Baseline"}})
        assert "workload" in str(excinfo.value)

    def test_submit_requires_known_method(self):
        with pytest.raises(ServiceError):
            validate_request({"op": "submit",
                              "params": {"workload": "Cori-S1", "method": "nope"}})

    def test_submit_normalizes_hints(self):
        out = validate_request({"op": "submit", "params": dict(SMOKE)})
        assert out["params"]["nodes_hint"] == 1
        assert out["params"]["walltime_hint"] == 3600.0

    def test_submit_rejects_bad_chaos(self):
        with pytest.raises(ServiceError):
            validate_request({"op": "submit",
                              "params": {**SMOKE, "chaos": {"explode": True}}})

    def test_submit_accepts_chaos(self):
        out = validate_request({"op": "submit",
                                "params": {**SMOKE,
                                           "chaos": {"crash_attempts": 1}}})
        assert out["params"]["chaos"] == {"crash_attempts": 1}

    def test_status_requires_id(self):
        with pytest.raises(ServiceError):
            validate_request({"op": "status"})


# --- admission queue -----------------------------------------------------------
class TestAdmissionQueue:
    def test_fcfs_order(self):
        q = AdmissionQueue(make_policy("fcfs"), high_water=8)
        for i in range(3):
            q.offer(f"r{i}", {"nodes_hint": 1, "walltime_hint": 60.0})
        assert [q.take()[0] for _ in range(3)] == ["r0", "r1", "r2"]

    def test_wfp_prefers_large_requests(self):
        clock = [0.0]
        q = AdmissionQueue(make_policy("wfp"), high_water=8,
                           clock=lambda: clock[0])
        q.offer("small", {"nodes_hint": 1, "walltime_hint": 60.0})
        q.offer("big", {"nodes_hint": 64, "walltime_hint": 60.0})
        clock[0] = 30.0  # both waited; WFP's nodes factor dominates
        assert q.take()[0] == "big"

    def test_shed_past_high_water(self):
        q = AdmissionQueue(make_policy("fcfs"), high_water=2)
        q.offer("a", {})
        q.offer("b", {})
        with pytest.raises(ServiceError) as excinfo:
            q.offer("c", {})
        assert excinfo.value.code == 429
        assert q.shed == 1

    def test_exempt_bypasses_high_water(self):
        q = AdmissionQueue(make_policy("fcfs"), high_water=1)
        q.offer("a", {})
        q.offer("recovered", {}, exempt=True)  # no raise
        assert q.depth == 2

    def test_degrade_ladder(self):
        q = AdmissionQueue(make_policy("fcfs"), high_water=10)
        assert q.degrade_level() == 0
        for i in range(5):
            q.offer(f"r{i}", {})
        assert q.degrade_level() == 1
        for i in range(4):
            q.offer(f"s{i}", {})
        assert q.degrade_level() == 2

    def test_take_empty_raises(self):
        q = AdmissionQueue(make_policy("fcfs"), high_water=2)
        with pytest.raises(ServiceError):
            q.take()


# --- request journal -----------------------------------------------------------
class TestRequestJournal:
    def test_lifecycle_replay(self, tmp_path):
        j = RequestJournal(tmp_path / "svc.jsonl")
        j.append_request("r1", 1, dict(SMOKE))
        j.append_request("r2", 2, dict(SMOKE))
        j.append_running("r1", 1)
        j.append_done("r1", {"fake": "result"}, {"makespan": 1.0}, 0.5)
        view = j.load(verify_payloads=True)
        assert view.state("r1") == "done"
        assert view.state("r2") == "queued"
        assert [r["id"] for r in view.pending()] == ["r2"]
        assert view.seq_max == 2
        assert view.result("r1") == {"fake": "result"}

    def test_duplicate_terminal_is_exactly_once_violation(self, tmp_path):
        j = RequestJournal(tmp_path / "svc.jsonl")
        j.append_request("r1", 1, {})
        j.append_done("r1", 1, {}, 0.1)
        j.append_failed("r1", "late loser", 500, 3)
        with pytest.raises(CheckpointError, match="exactly-once"):
            j.load()

    def test_duplicate_accept_raises(self, tmp_path):
        j = RequestJournal(tmp_path / "svc.jsonl")
        j.append_request("r1", 1, {})
        j.append_request("r1", 2, {})
        with pytest.raises(CheckpointError, match="accepted twice"):
            j.load()

    def test_orphan_lifecycle_record_raises(self, tmp_path):
        j = RequestJournal(tmp_path / "svc.jsonl")
        j.append_running("ghost", 1)
        j.append_request("r1", 1, {})  # ghost is now an interior record
        with pytest.raises(CheckpointError, match="never accepted"):
            j.load()

    def test_torn_tail_is_dropped(self, tmp_path):
        path = tmp_path / "svc.jsonl"
        j = RequestJournal(path)
        j.append_request("r1", 1, {})
        j.append_done("r1", 42, {}, 0.1)
        data = path.read_bytes()
        path.write_bytes(data[:-25])  # SIGKILL mid-append
        view = j.load()
        assert view.dropped_tail == 1
        assert view.state("r1") == "queued"  # the done record was torn

    def test_attempts_tracked(self, tmp_path):
        j = RequestJournal(tmp_path / "svc.jsonl")
        j.append_request("r1", 1, {})
        j.append_running("r1", 1)
        j.append_running("r1", 2)
        view = j.load()
        assert view.attempts["r1"] == 2
        assert view.state("r1") == "running"

    def test_quarantine_is_terminal(self, tmp_path):
        j = RequestJournal(tmp_path / "svc.jsonl")
        j.append_request("r1", 1, {})
        j.append_quarantined("r1", "poison", 2)
        view = j.load()
        assert view.state("r1") == "quarantined"
        assert view.pending() == []


class TestDeterministicJitter:
    def test_stable_and_bounded(self):
        a = deterministic_jitter("r000001", 1)
        assert a == deterministic_jitter("r000001", 1)
        assert 0.0 <= a < 1.0
        assert a != deterministic_jitter("r000001", 2)


# --- daemon end-to-end ---------------------------------------------------------
class DaemonHarness:
    """Runs a ServiceDaemon on a background thread for one test."""

    def __init__(self, tmp_path, **overrides):
        self.socket_path = str(tmp_path / "svc.sock")
        self.journal_path = str(tmp_path / "svc.jsonl")
        kwargs = dict(socket_path=self.socket_path,
                      journal_path=self.journal_path,
                      workers=1, high_water=8, retries=2,
                      quarantine_after=2)
        kwargs.update(overrides)
        self.daemon = ServiceDaemon(ServiceConfig(**kwargs))
        self.client = ServiceClient(self.socket_path, timeout=10.0)
        self._thread = None

    def __enter__(self):
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self.daemon.serve()), daemon=True)
        self._thread.start()
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if os.path.exists(self.socket_path) and self.client.alive():
                return self
            time.sleep(0.02)
        raise RuntimeError("daemon did not come up")

    def __exit__(self, *exc):
        try:
            self.client.shutdown(mode="now")
        except ServiceError:
            pass
        self._thread.join(15.0)


@pytest.fixture(autouse=True)
def _smoke_scale(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "smoke")


class TestDaemonEndToEnd:
    def test_submit_wait_done(self, tmp_path):
        with DaemonHarness(tmp_path) as h:
            accepted = h.client.submit(**SMOKE)
            assert accepted["state"] == "queued"
            status = h.client.wait(accepted["id"], timeout=120.0)
            assert status["state"] == "done"
            assert status["summary"]["metrics"]["node_usage"] > 0
            # The journal recorded exactly one terminal record, payload intact.
            view = RequestJournal(h.journal_path).load(verify_payloads=True)
            assert view.terminal[accepted["id"]]["kind"] == KIND_DONE

    def test_unknown_id_is_404(self, tmp_path):
        with DaemonHarness(tmp_path) as h:
            with pytest.raises(ServiceError) as excinfo:
                h.client.status("r999999")
            assert excinfo.value.code == 404

    def test_stats_reports_states(self, tmp_path):
        with DaemonHarness(tmp_path) as h:
            accepted = h.client.submit(**SMOKE)
            h.client.wait(accepted["id"], timeout=120.0)
            stats = h.client.stats()
            assert stats["states"].get("done") == 1
            assert stats["policy"] == "fcfs"
            assert "service.accepted" in stats["metrics"]["counters"]

    def test_malformed_line_gets_400_not_disconnect(self, tmp_path):
        import socket as socketlib
        with DaemonHarness(tmp_path) as h:
            with socketlib.socket(socketlib.AF_UNIX,
                                  socketlib.SOCK_STREAM) as sock:
                sock.settimeout(5.0)
                sock.connect(h.socket_path)
                sock.sendall(b"not json\n")
                first = sock.makefile("rb").readline()
                assert b'"code": 400' in first or b'"code":400' in first

    def test_crash_once_recovers_and_completes(self, tmp_path):
        # A worker SIGKILL mid-task breaks the pool; the request is
        # requeued for free, re-run, and completes — with the crash
        # visible in the metrics, not in the outcome.
        with DaemonHarness(tmp_path, allow_chaos=True) as h:
            accepted = h.client.submit(chaos={"crash_attempts": 1}, **SMOKE)
            status = h.client.wait(accepted["id"], timeout=120.0)
            assert status["state"] == "done"
            counters = h.client.stats()["metrics"]["counters"]
            assert counters.get("service.pool_rebuilds", 0) >= 1

    def test_poison_request_is_quarantined(self, tmp_path):
        # A request that crashes its worker on *every* attempt must be
        # quarantined after `quarantine_after` isolated convictions, and
        # must not poison a healthy request sharing the service.
        with DaemonHarness(tmp_path, allow_chaos=True, workers=2,
                           quarantine_after=2) as h:
            poison = h.client.submit(chaos={"crash_attempts": -1}, **SMOKE)
            healthy = h.client.submit(**SMOKE)
            outcomes = h.client.wait_all(
                [poison["id"], healthy["id"]], timeout=180.0)
            assert outcomes[poison["id"]]["state"] == "quarantined"
            assert outcomes[healthy["id"]]["state"] == "done"
            view = RequestJournal(h.journal_path).load()
            assert view.state(poison["id"]) == "quarantined"

    def test_hung_worker_is_killed_and_retried(self, tmp_path):
        # The request hangs (sleeps far past the deadline) on attempt 1;
        # the supervisor SIGKILLs the claimed worker and the retry
        # completes clean.
        with DaemonHarness(tmp_path, allow_chaos=True,
                           deadline=2.0, retries=2) as h:
            accepted = h.client.submit(
                chaos={"hang_attempts": 1, "hang_seconds": 120.0}, **SMOKE)
            status = h.client.wait(accepted["id"], timeout=120.0)
            assert status["state"] == "done"
            counters = h.client.stats()["metrics"]["counters"]
            assert counters.get("service.hangs", 0) >= 1

    def test_shed_past_high_water(self, tmp_path):
        # One worker wedged on a hang + high_water=2 → the third submit
        # is shed with a 429 while the queue is full.
        with DaemonHarness(tmp_path, allow_chaos=True, workers=1,
                           high_water=2, deadline=None) as h:
            h.client.submit(
                chaos={"hang_attempts": -1, "hang_seconds": 600.0}, **SMOKE)
            time.sleep(0.3)  # let the hang occupy the only worker
            h.client.submit(**SMOKE)
            h.client.submit(**SMOKE)
            with pytest.raises(ServiceError) as excinfo:
                h.client.submit(**SMOKE)
            assert excinfo.value.code == 429
            assert h.client.stats()["metrics"]["counters"]["service.shed"] == 1

    def test_draining_daemon_rejects_submits(self, tmp_path):
        with DaemonHarness(tmp_path) as h:
            accepted = h.client.submit(**SMOKE)
            h.client.wait(accepted["id"], timeout=120.0)
            h.client.shutdown(mode="graceful")
            with pytest.raises(ServiceError) as excinfo:
                h.client.submit(**SMOKE)
            assert excinfo.value.code == 503


class TestRecovery:
    def test_unfinished_requests_resume_on_restart(self, tmp_path):
        # Simulate a daemon that accepted work and was SIGKILL'd before
        # running it: the journal holds accepted records with no terminal
        # records.  A fresh daemon must replay and finish them unasked.
        journal = RequestJournal(tmp_path / "svc.jsonl")
        journal.append_request("r000001", 1, dict(SMOKE))
        journal.append_request("r000002", 2, dict(SMOKE))
        with DaemonHarness(tmp_path, workers=2) as h:
            assert h.daemon.recovered == 2
            outcomes = h.client.wait_all(["r000001", "r000002"], timeout=180.0)
            assert {s["state"] for s in outcomes.values()} == {"done"}
        view = journal.load(verify_payloads=True)
        assert set(view.terminal) == {"r000001", "r000002"}
        assert view.pending() == []

    def test_finished_requests_are_not_recomputed(self, tmp_path):
        # A result journaled before the kill is served from the journal;
        # restart must not produce a second terminal record for it.
        journal = RequestJournal(tmp_path / "svc.jsonl")
        journal.append_request("r000001", 1, dict(SMOKE))
        journal.append_done("r000001", {"sentinel": 7}, {"metrics": {}}, 0.1)
        with DaemonHarness(tmp_path) as h:
            assert h.daemon.recovered == 0
            status = h.client.status("r000001")
            assert status["state"] == "done"
        view = journal.load()
        assert view.terminal["r000001"]["kind"] == KIND_DONE
        assert view.result("r000001") == {"sentinel": 7}

    def test_new_ids_continue_after_recovered_sequence(self, tmp_path):
        journal = RequestJournal(tmp_path / "svc.jsonl")
        journal.append_request("r000007", 7, dict(SMOKE))
        journal.append_failed("r000007", "old failure", 500, 3)
        with DaemonHarness(tmp_path) as h:
            accepted = h.client.submit(**SMOKE)
            assert accepted["id"] == "r000008"
            h.client.wait(accepted["id"], timeout=120.0)

    def test_unfinished_request_for_an_unknown_method_fails(self, tmp_path):
        # A journal written by an older build can hold an accepted request
        # for a method this build no longer has.  Recovery must fail it at
        # once, with an error naming the method, and keep serving.
        gone = "Plan_Based"
        assert gone not in available_methods()
        journal = RequestJournal(tmp_path / "svc.jsonl")
        journal.append_request("r000001", 1, {**SMOKE, "method": gone})
        with DaemonHarness(tmp_path) as h:
            status = h.client.wait("r000001", timeout=60.0)
            assert status["state"] == "failed"
            assert gone in status["error"]
            accepted = h.client.submit(**SMOKE)
            assert h.client.wait(accepted["id"], timeout=120.0)["state"] == "done"
        view = journal.load()
        assert view.state("r000001") == "failed"
        assert view.attempts.get("r000001", 0) == 0


class TestDegradation:
    def test_pressure_caps_generations(self, tmp_path):
        daemon = ServiceDaemon(ServiceConfig(
            socket_path=str(tmp_path / "s.sock"), high_water=4))
        for i in range(4):
            daemon.queue.offer(f"r{i}", {})
        assert daemon.queue.degrade_level() == 2
        effective, level, overrides = daemon._degrade(dict(SMOKE))
        assert level == 2
        assert effective["generations"] == overrides["generations"]
        assert effective["generations"] >= 1
        assert effective["watchdog_budget"] == 1.0

    def test_no_pressure_no_overrides(self, tmp_path):
        daemon = ServiceDaemon(ServiceConfig(
            socket_path=str(tmp_path / "s.sock"), high_water=4))
        effective, level, overrides = daemon._degrade(dict(SMOKE))
        assert (effective, level, overrides) == (dict(SMOKE), 0, {})

    def test_degrade_disabled(self, tmp_path):
        daemon = ServiceDaemon(ServiceConfig(
            socket_path=str(tmp_path / "s.sock"), high_water=4,
            degrade=False))
        for i in range(4):
            daemon.queue.offer(f"r{i}", {})
        _, level, _ = daemon._degrade(dict(SMOKE))
        assert level == 0


# --- client resilience ----------------------------------------------------------
class TestClientRetry:
    def test_dead_endpoint_is_transient_and_retried(self, tmp_path):
        from repro.errors import TransientServiceError
        from repro.service.client import ClientRetryPolicy
        from repro.resilience import BackoffPolicy

        client = ServiceClient(
            str(tmp_path / "nothing.sock"), timeout=0.5,
            retry=ClientRetryPolicy(
                attempts=3,
                backoff=BackoffPolicy(initial=0.01, max_delay=0.02)))
        with pytest.raises(TransientServiceError) as excinfo:
            client.ping()
        assert client.retries == 2  # 3 attempts = 2 retries
        assert excinfo.value.sent is False  # never connected: unambiguous

    def test_no_retry_policy_is_single_attempt(self, tmp_path):
        from repro.errors import TransientServiceError
        from repro.service.client import NO_RETRY

        client = ServiceClient(str(tmp_path / "nothing.sock"),
                               timeout=0.5, retry=NO_RETRY)
        with pytest.raises(TransientServiceError):
            client.ping()
        assert client.retries == 0

    def test_protocol_garbage_is_not_retried(self, tmp_path):
        """A daemon speaking garbage is answered-but-wrong: plain 502."""
        import socket as socketlib
        from repro.errors import TransientServiceError
        from repro.service.client import ClientRetryPolicy

        path = str(tmp_path / "garbage.sock")
        server = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
        server.bind(path)
        server.listen(4)
        served = {"n": 0}

        def speak_garbage():
            while True:
                try:
                    conn, _ = server.accept()
                except OSError:
                    return
                with conn:
                    conn.recv(65536)
                    # Count before replying: the client may assert on the
                    # count as soon as it has read the reply.
                    served["n"] += 1
                    conn.sendall(b"}{ not json\n")

        thread = threading.Thread(target=speak_garbage, daemon=True)
        thread.start()
        try:
            client = ServiceClient(path, timeout=2.0,
                                   retry=ClientRetryPolicy(attempts=4))
            with pytest.raises(ServiceError) as excinfo:
                client.ping()
            assert not isinstance(excinfo.value, TransientServiceError)
            assert excinfo.value.code == 502
            assert served["n"] == 1  # exactly one attempt: no retry
        finally:
            server.close()

    def test_ambiguous_failure_not_retried_when_not_idempotent(self, tmp_path):
        """A connection that dies after send must not be blindly resent."""
        import socket as socketlib
        from repro.errors import TransientServiceError
        from repro.service.client import ClientRetryPolicy

        path = str(tmp_path / "dropper.sock")
        server = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
        server.bind(path)
        server.listen(4)
        accepted = {"n": 0}

        def drop_after_read():
            while True:
                try:
                    conn, _ = server.accept()
                except OSError:
                    return
                with conn:
                    accepted["n"] += 1
                    conn.recv(65536)  # read the frame, answer nothing

        thread = threading.Thread(target=drop_after_read, daemon=True)
        thread.start()
        try:
            client = ServiceClient(path, timeout=2.0,
                                   retry=ClientRetryPolicy(attempts=3))
            with pytest.raises(TransientServiceError) as excinfo:
                client.request({"op": "ping"}, idempotent=False)
            assert excinfo.value.sent is True
            assert accepted["n"] == 1  # ambiguity propagated, no resend
        finally:
            server.close()

    def test_wait_all_shares_one_deadline(self, tmp_path, monkeypatch):
        """The batch deadline is honest: no per-id restart of the budget."""
        from repro.errors import ServiceTimeout

        client = ServiceClient(str(tmp_path / "nothing.sock"), timeout=0.5)
        monkeypatch.setattr(
            client, "status", lambda rid: {"state": "queued"})
        t0 = time.monotonic()
        with pytest.raises(ServiceTimeout) as excinfo:
            client.wait_all(["r1", "r2", "r3"], timeout=0.4, poll=0.01)
        elapsed = time.monotonic() - t0
        assert elapsed < 2.0  # not 3 x 0.4 each
        assert set(excinfo.value.pending) == {"r1", "r2", "r3"}

    def test_wait_all_zero_budget_raises_immediately(self, tmp_path):
        from repro.errors import ServiceTimeout

        client = ServiceClient(str(tmp_path / "nothing.sock"), timeout=0.5)
        with pytest.raises(ServiceTimeout) as excinfo:
            client.wait_all(["r1", "r2"], timeout=0.0)
        assert excinfo.value.pending == ("r1", "r2")


class TestCircuitBreaker:
    def test_opens_after_threshold_and_fails_fast(self, tmp_path):
        from repro.errors import TransientServiceError
        from repro.service.client import CircuitBreaker, NO_RETRY

        breaker = CircuitBreaker(failure_threshold=2, reset_after=60.0)
        client = ServiceClient(str(tmp_path / "nothing.sock"), timeout=0.5,
                               retry=NO_RETRY, breaker=breaker)
        for _ in range(2):
            with pytest.raises(TransientServiceError):
                client.ping()
        assert breaker.state == "open"
        assert breaker.opened == 1
        t0 = time.monotonic()
        with pytest.raises(TransientServiceError) as excinfo:
            client.ping()
        assert time.monotonic() - t0 < 0.2  # no connect attempt
        assert "circuit open" in str(excinfo.value)

    def test_half_open_single_probe_then_close(self):
        from repro.service.client import CircuitBreaker

        breaker = CircuitBreaker(failure_threshold=1, reset_after=0.05)
        breaker.record_failure()
        assert not breaker.allow()
        time.sleep(0.06)
        assert breaker.state == "half-open"
        assert breaker.allow()       # the single probe
        assert not breaker.allow()   # concurrent calls held back
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_half_open_failure_reopens(self):
        from repro.service.client import CircuitBreaker

        breaker = CircuitBreaker(failure_threshold=1, reset_after=0.05)
        breaker.record_failure()
        time.sleep(0.06)
        assert breaker.allow()
        breaker.record_failure()  # probe failed
        assert breaker.state == "open"
        assert breaker.opened == 1  # re-arm, not a new open event


# --- TCP + HTTP front-end -------------------------------------------------------
class TestNetworkFrontend:
    def tcp_harness(self, tmp_path, **overrides):
        overrides.setdefault("tcp", "127.0.0.1:0")
        return DaemonHarness(tmp_path, **overrides)

    def tcp_port(self, h, deadline=10.0):
        end = time.monotonic() + deadline
        while time.monotonic() < end:
            if h.daemon.tcp_address is not None:
                return h.daemon.tcp_address[1]
            time.sleep(0.02)
        raise RuntimeError("tcp listener never came up")

    def test_tcp_submit_wait_done(self, tmp_path):
        with self.tcp_harness(tmp_path) as h:
            port = self.tcp_port(h)
            tcp_client = ServiceClient(f"127.0.0.1:{port}", timeout=10.0)
            assert tcp_client.ping()["pong"]
            accepted = tcp_client.submit(**SMOKE)
            status = tcp_client.wait(accepted["id"], timeout=120.0)
            assert status["state"] == "done"

    def test_tcp_and_unix_share_one_daemon(self, tmp_path):
        with self.tcp_harness(tmp_path) as h:
            port = self.tcp_port(h)
            accepted = h.client.submit(**SMOKE)  # via unix
            tcp_client = ServiceClient(f"127.0.0.1:{port}", timeout=10.0)
            status = tcp_client.wait(accepted["id"], timeout=120.0)  # via tcp
            assert status["state"] == "done"

    def _http(self, port, request: bytes) -> bytes:
        import socket as socketlib
        with socketlib.create_connection(("127.0.0.1", port),
                                         timeout=10.0) as sock:
            sock.sendall(request)
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        return b"".join(chunks)

    def test_http_get_ping(self, tmp_path):
        import json as jsonlib
        with self.tcp_harness(tmp_path) as h:
            port = self.tcp_port(h)
            raw = self._http(
                port, b"GET /ping HTTP/1.1\r\nHost: x\r\n\r\n")
            head, _, body = raw.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 200")
            assert b"application/json" in head
            assert jsonlib.loads(body)["pong"]

    def test_http_post_submit_roundtrip(self, tmp_path):
        import json as jsonlib
        with self.tcp_harness(tmp_path) as h:
            port = self.tcp_port(h)
            message = jsonlib.dumps(
                {"op": "submit", "params": SMOKE}).encode()
            raw = self._http(
                port,
                b"POST / HTTP/1.1\r\nHost: x\r\n"
                + f"Content-Length: {len(message)}\r\n\r\n".encode()
                + message)
            head, _, body = raw.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 200")
            accepted = jsonlib.loads(body)
            assert accepted["state"] == "queued"
            h.client.wait(accepted["id"], timeout=120.0)

    def test_http_unknown_path_is_404_not_disconnect_crash(self, tmp_path):
        with self.tcp_harness(tmp_path) as h:
            port = self.tcp_port(h)
            raw = self._http(
                port, b"GET /launch_missiles HTTP/1.1\r\nHost: x\r\n\r\n")
            assert raw.startswith(b"HTTP/1.1 404")
            assert h.client.alive()  # daemon unbothered


class TestConnectionHardening:
    def _connect(self, path):
        import socket as socketlib
        sock = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
        sock.settimeout(10.0)
        sock.connect(path)
        return sock

    def test_slow_loris_disconnected_by_io_deadline(self, tmp_path):
        with DaemonHarness(tmp_path, io_deadline=0.5) as h:
            sock = self._connect(h.socket_path)
            try:
                sock.sendall(b'{"op": "pi')  # half a frame, forever
                t0 = time.monotonic()
                assert sock.recv(4096) == b""  # EOF: daemon cut us off
                assert time.monotonic() - t0 < 5.0
            finally:
                sock.close()
            assert h.client.alive()

    def test_torn_frame_disconnect_tolerated(self, tmp_path):
        with DaemonHarness(tmp_path) as h:
            sock = self._connect(h.socket_path)
            sock.sendall(b'{"op": "status", "id": "r0')
            sock.close()  # dropped mid-frame
            assert h.client.alive()

    def test_torn_final_frame_without_newline_still_answered(self, tmp_path):
        """EOF can terminate the last frame in place of the newline."""
        import json as jsonlib
        import socket as socketlib
        with DaemonHarness(tmp_path) as h:
            sock = self._connect(h.socket_path)
            try:
                sock.sendall(b'{"op": "ping"}')  # no trailing newline
                sock.shutdown(socketlib.SHUT_WR)
                line = sock.makefile("rb").readline()
                assert jsonlib.loads(line)["pong"]
            finally:
                sock.close()

    def test_overlong_line_gets_400_and_close(self, tmp_path):
        from repro.service.protocol import MAX_LINE_BYTES
        with DaemonHarness(tmp_path) as h:
            sock = self._connect(h.socket_path)
            try:
                sock.sendall(b'{"op": "ping", "pad": "'
                             + b"x" * (MAX_LINE_BYTES + 1024) + b'"}\n')
                reader = sock.makefile("rb")
                response = reader.readline()
                assert b'"code": 400' in response
                assert reader.readline() == b""  # then disconnected
            finally:
                sock.close()
            assert h.client.alive()

    def test_loris_dropped_even_when_workers_spawn_midstream(self, tmp_path):
        """Forked workers must not inherit (and hold open) client fds.

        Worker processes spawn lazily on the first dispatch.  If they
        fork from the daemon while a connection is open, they inherit
        its fd and the daemon's io-deadline close never reaches the
        client — the connection stays established for the worker's
        lifetime.  The pool's forkserver context prevents this.
        """
        with DaemonHarness(tmp_path, io_deadline=0.5, workers=1) as h:
            sock = self._connect(h.socket_path)
            try:
                sock.sendall(b'{"op": "pi')  # half a frame, held open
                # Force worker spawn while the loris connection exists.
                accepted = h.client.submit(**SMOKE)
                h.client.wait(accepted["id"], timeout=120.0)
                sock.settimeout(10.0)
                assert sock.recv(4096) == b""  # EOF despite live workers
            finally:
                sock.close()

    def test_connection_limit_sheds_with_503(self, tmp_path):
        import json as jsonlib

        def ping_on(sock):
            sock.sendall(b'{"op": "ping"}\n')
            return jsonlib.loads(sock.makefile("rb").readline())

        with DaemonHarness(tmp_path, max_connections=1,
                           io_deadline=2.0) as h:
            # Claim the only slot with a completed ping on a persistent
            # connection — a transient straggler (e.g. the harness's
            # alive() probe) may shed us instead, so retry until owned.
            held = None
            deadline = time.monotonic() + 10.0
            while held is None and time.monotonic() < deadline:
                sock = self._connect(h.socket_path)
                if ping_on(sock).get("pong"):
                    held = sock  # our handler answered: we are counted
                else:
                    sock.close()
                    time.sleep(0.05)
            assert held is not None, "could not claim the connection slot"
            try:
                # The daemon sheds before reading a byte: it writes the
                # 503 and closes, so a ping sent first can hit EPIPE.
                # Read the reply without sending.
                second = self._connect(h.socket_path)
                shed = jsonlib.loads(second.makefile("rb").readline())
                second.close()
                assert shed["code"] == 503
                assert not shed["ok"]
            finally:
                held.close()
            # Slot freed: normal service resumes.  (Probe sparingly — with
            # a one-connection budget, each probe's handler briefly holds
            # the slot after the client hangs up, shedding a too-eager
            # follow-up probe.)
            up = False
            deadline = time.monotonic() + 10.0
            while not up and time.monotonic() < deadline:
                up = h.client.alive()
                time.sleep(0.25)
            assert up


# --- cancel + idempotency -------------------------------------------------------
class TestCancelAndIdempotency:
    def test_duplicate_key_is_deduped(self, tmp_path):
        with DaemonHarness(tmp_path) as h:
            first = h.client.submit(idempotency_key="job-1", **SMOKE)
            second = h.client.submit(idempotency_key="job-1", **SMOKE)
            assert second["id"] == first["id"]
            assert second.get("deduped") is True
            assert first.get("deduped") is None
            stats = h.client.stats()
            assert stats["metrics"]["counters"].get("service.deduped") == 1

    def test_dedup_survives_restart(self, tmp_path):
        with DaemonHarness(tmp_path) as h:
            first = h.client.submit(idempotency_key="job-1", **SMOKE)
            h.client.wait(first["id"], timeout=120.0)
        with DaemonHarness(tmp_path) as h:  # same journal: keys recovered
            again = h.client.submit(idempotency_key="job-1", **SMOKE)
            assert again["id"] == first["id"]
            assert again.get("deduped") is True

    def test_reused_key_with_other_run_fields_is_409(self, tmp_path):
        with DaemonHarness(tmp_path) as h:
            first = h.client.submit(idempotency_key="job-1", seed=1, **SMOKE)
            with pytest.raises(ServiceError) as excinfo:
                h.client.submit(idempotency_key="job-1", seed=2, **SMOKE)
            assert excinfo.value.code == 409
            assert "job-1" in str(excinfo.value)
            # Admission hints and chaos are not run fields: still a resend.
            again = h.client.submit(idempotency_key="job-1", seed=1,
                                    nodes_hint=8, walltime_hint=60.0,
                                    chaos={"crash_attempts": 0}, **SMOKE)
            assert again["id"] == first["id"] and again.get("deduped") is True
            h.client.wait(first["id"], timeout=120.0)
            counters = h.client.stats()["metrics"]["counters"]
            assert counters.get("service.key_conflicts") == 1
        with DaemonHarness(tmp_path) as h:  # same journal: digests recomputed
            with pytest.raises(ServiceError) as excinfo:
                h.client.submit(idempotency_key="job-1", seed=2, **SMOKE)
            assert excinfo.value.code == 409
            again = h.client.submit(idempotency_key="job-1", seed=1, **SMOKE)
            assert again["id"] == first["id"] and again.get("deduped") is True
        view = RequestJournal(h.journal_path).load()
        assert len(view.requests) == 1

    def test_digest_is_taken_before_degradation(self, tmp_path):
        # A journal whose request ran degraded (fewer generations and a
        # watchdog): the key stays bound to what the client asked for.
        journal = RequestJournal(tmp_path / "svc.jsonl")
        params = {**SMOKE, "method": "BBSched", "idempotency_key": "deg"}
        journal.append_request("r000001", 1, params)
        journal.append_running("r000001", 1, degrade=2, overrides={
            "generations": 5, "watchdog_budget": 1.0})
        journal.append_done("r000001", {"sentinel": 1}, {"metrics": {}}, 0.1)
        with DaemonHarness(tmp_path) as h:
            again = h.client.submit(**params)
            assert again["id"] == "r000001" and again.get("deduped") is True
            with pytest.raises(ServiceError) as excinfo:
                h.client.submit(**params, generations=5, watchdog_budget=1.0)
            assert excinfo.value.code == 409

    def test_status_by_key(self, tmp_path):
        with DaemonHarness(tmp_path) as h:
            accepted = h.client.submit(idempotency_key="job-1", **SMOKE)
            status = h.client.status_by_key("job-1")
            assert status["id"] == accepted["id"]
            with pytest.raises(ServiceError) as excinfo:
                h.client.status_by_key("nobody")
            assert excinfo.value.code == 404

    def test_cancel_queued_request(self, tmp_path):
        with DaemonHarness(tmp_path, workers=1) as h:
            first = h.client.submit(**SMOKE)
            second = h.client.submit(**SMOKE)  # stuck behind first
            response = h.client.cancel(second["id"], reason="test")
            assert response["state"] in ("cancelled", "cancelling", "done")
            final = h.client.wait(second["id"], timeout=120.0)
            h.client.wait(first["id"], timeout=120.0)
            if response["state"] != "done":
                assert final["state"] == "cancelled"
                view = RequestJournal(h.journal_path).load()
                assert view.terminal[second["id"]]["kind"] == \
                    "service-cancelled"

    def test_cancel_unknown_is_404(self, tmp_path):
        with DaemonHarness(tmp_path) as h:
            with pytest.raises(ServiceError) as excinfo:
                h.client.cancel("r999999")
            assert excinfo.value.code == 404

    def test_cancel_done_request_is_noop(self, tmp_path):
        with DaemonHarness(tmp_path) as h:
            accepted = h.client.submit(**SMOKE)
            h.client.wait(accepted["id"], timeout=120.0)
            response = h.client.cancel(accepted["id"])
            assert response["state"] == "done"  # too late, honestly reported

    def test_cancelled_state_is_terminal_for_wait(self, tmp_path):
        with DaemonHarness(tmp_path, workers=1) as h:
            first = h.client.submit(**SMOKE)
            second = h.client.submit(**SMOKE)
            h.client.cancel(second["id"])
            status = h.client.wait(second["id"], timeout=120.0)
            assert status["state"] in ("cancelled", "done")
            h.client.wait(first["id"], timeout=120.0)
