#!/usr/bin/env python3
"""Deterministic chaos harness for the simulation service.

Drives a real ``repro serve`` daemon (subprocess, own process group)
through a *seeded* chaos plan and asserts the service's crash-tolerance
contract end to end:

* worker SIGKILLs mid-task (via per-request chaos directives, keyed to
  the attempt ordinal so every run replays identically);
* artificial hangs that the supervisor's deadline must convert into a
  worker kill + clean retry;
* daemon SIGKILLs (``kill -9`` of the whole process group, workers
  included) at seeded points mid-backlog, followed by a restart that
  must recover the journal and finish every outstanding request;
* torn journal tails (the file truncated mid-record before a restart),
  which recovery must tolerate exactly like a SIGKILL mid-append.

``--network`` switches to the *sharded network* plan: N shard daemons
behind a consistent-hash :class:`~repro.service.shards.ShardRouter`, hit
with network faults instead of worker faults — a shard SIGKILLed and
restarted mid-workload (failover + journal recovery + reconciliation),
a shard black-holed with SIGSTOP (stalled socket: the ambiguous-submit
adoption path), slow-loris connections that must be disconnected by the
io deadline, and frames torn mid-JSON.  The audit is key-level across the
union of all shard journals (``tools/validate_checkpoint.py`` ``--kind
shards``): every request exactly one effective outcome, duplicates only
ever ``cancelled``.

After the plan runs, the harness audits the journal with
``RequestJournal.load(verify_payloads=True)`` — which itself raises on
any exactly-once violation — and cross-checks that every submitted
request has exactly one terminal record.  The report (JSON) carries the
outcome histogram and per-restart recovery times.  ``tests/test_chaos.py``
runs pinned plans of both kinds; service speed is perfbench's
``service-burst`` workload, not this harness's.

Usage::

    python tools/chaos.py --seed 0 --requests 6 --daemon-kills 1 \
        --scale smoke --report chaos_report.json
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

REPO_SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(REPO_SRC))

from repro.errors import CheckpointError, ServiceError, ShardError  # noqa: E402
from repro.service import RequestJournal, ServiceClient  # noqa: E402

TERMINAL = frozenset({"done", "failed", "quarantined"})


@dataclass
class ChaosPlan:
    """One reproducible chaos scenario (everything derives from seed)."""

    seed: int = 0
    requests: int = 6
    #: fraction of requests that SIGKILL their worker on attempt 1.
    crash_fraction: float = 0.34
    #: fraction of requests that hang past the deadline on attempt 1.
    hang_fraction: float = 0.17
    #: requests that crash on *every* attempt (must end quarantined).
    poison_requests: int = 0
    #: times the daemon itself is SIGKILL'd mid-backlog and restarted.
    daemon_kills: int = 1
    #: tear the journal's final line before each restart.
    truncate_tail: bool = False
    scale: str = "smoke"
    workers: int = 2
    deadline: float = 20.0
    retries: int = 3
    quarantine_after: int = 2
    high_water: int = 64
    workloads: tuple = ("Cori-S1", "Theta-S1")
    methods: tuple = ("Baseline",)
    #: overall wall-clock budget for the whole plan.
    timeout: float = 600.0


class ChaosHarness:
    """Runs one :class:`ChaosPlan` against a live daemon subprocess."""

    def __init__(self, plan: ChaosPlan, workdir: str) -> None:
        self.plan = plan
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.socket_path = str(self.workdir / "chaos.sock")
        self.journal_path = str(self.workdir / "chaos.jsonl")
        self.log_path = self.workdir / "daemon.log"
        self.client = ServiceClient(self.socket_path, timeout=10.0)
        self.rng = random.Random(plan.seed)
        self.proc: Optional[subprocess.Popen] = None
        self.recoveries: List[Dict[str, float]] = []
        self.kills_done = 0
        self.tails_torn = 0

    # --- daemon lifecycle --------------------------------------------------------
    def start_daemon(self) -> float:
        """Launch (or relaunch) the daemon; returns seconds until ready."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_SRC)
        env["REPRO_SCALE"] = self.plan.scale
        argv = [
            sys.executable, "-m", "repro.cli", "serve",
            "--socket", self.socket_path,
            "--journal", self.journal_path,
            "--workers", str(self.plan.workers),
            "--deadline", str(self.plan.deadline),
            "--retries", str(self.plan.retries),
            "--quarantine-after", str(self.plan.quarantine_after),
            "--high-water", str(self.plan.high_water),
            "--allow-chaos",
        ]
        t0 = time.monotonic()
        with open(self.log_path, "a") as log:
            # Own process group, so SIGKILLing the daemon takes its
            # forked workers down too — a whole-node crash, not a tidy one.
            self.proc = subprocess.Popen(
                argv, stdout=log, stderr=subprocess.STDOUT, env=env,
                start_new_session=True)
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited during startup (rc={self.proc.returncode}); "
                    f"see {self.log_path}")
            if self.client.alive():
                return time.monotonic() - t0
            time.sleep(0.05)
        raise RuntimeError(f"daemon not ready within 60s; see {self.log_path}")

    def kill_daemon(self) -> None:
        """SIGKILL the daemon's whole process group (workers included)."""
        assert self.proc is not None
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:  # pragma: no cover - already gone
            pass
        self.proc.wait(30)
        self.kills_done += 1

    def tear_journal_tail(self) -> None:
        """Truncate the journal mid-final-record (torn append)."""
        path = Path(self.journal_path)
        if not path.exists():
            return
        data = path.read_bytes()
        if len(data) < 40:
            return
        # Cut inside the final line: recovery must drop exactly that line.
        cut = self.rng.randrange(10, 30)
        path.write_bytes(data[:-cut])
        self.tails_torn += 1

    def shutdown_daemon(self) -> None:
        try:
            self.client.shutdown(mode="now")
            if self.proc is not None:
                self.proc.wait(30)
        except (ServiceError, subprocess.TimeoutExpired):
            if self.proc is not None and self.proc.poll() is None:
                self.kill_daemon()

    # --- the plan ----------------------------------------------------------------
    def build_requests(self) -> List[Dict[str, Any]]:
        """The seeded request list: params + intended chaos per request."""
        plan = self.plan
        specs: List[Dict[str, Any]] = []
        for i in range(plan.requests):
            spec: Dict[str, Any] = {
                "workload": self.rng.choice(plan.workloads),
                "method": self.rng.choice(plan.methods),
                "scale": plan.scale,
                "seed": 1000 + i,
            }
            roll = self.rng.random()
            if i < plan.poison_requests:
                spec["chaos"] = {"crash_attempts": -1}
                spec["expect"] = "quarantined"
            elif roll < plan.crash_fraction:
                spec["chaos"] = {"crash_attempts": 1}
                spec["expect"] = "done"
            elif roll < plan.crash_fraction + plan.hang_fraction:
                spec["chaos"] = {"hang_attempts": 1,
                                 "hang_seconds": plan.deadline * 10}
                spec["expect"] = "done"
            else:
                spec["expect"] = "done"
            specs.append(spec)
        return specs

    def submit_all(self, specs: List[Dict[str, Any]]) -> Dict[str, Dict]:
        """Submit every spec (retrying 429 shed); returns id → spec."""
        by_id: Dict[str, Dict] = {}
        for spec in specs:
            params = {k: v for k, v in spec.items() if k != "expect"}
            while True:
                try:
                    accepted = self.client.submit(**params)
                    break
                except ServiceError as exc:
                    if exc.code != 429:
                        raise
                    time.sleep(0.2)  # shed: back off and retry
            by_id[accepted["id"]] = spec
        return by_id

    def run(self) -> Dict[str, Any]:
        plan = self.plan
        t_start = time.monotonic()
        ready = self.start_daemon()
        self.recoveries.append({"ready_s": ready, "drain_s": 0.0})
        specs = self.build_requests()
        by_id = self.submit_all(specs)
        pending = set(by_id)
        outcomes: Dict[str, str] = {}

        # Seeded kill points: after the k-th terminal outcome is observed.
        kill_points = sorted(
            self.rng.sample(range(1, max(plan.requests, 2)),
                            min(plan.daemon_kills, plan.requests - 1)))
        deadline = time.monotonic() + plan.timeout
        while pending:
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"chaos plan not finished within {plan.timeout}s; "
                    f"pending: {sorted(pending)}")
            for rid in sorted(pending):
                try:
                    status = self.client.status(rid)
                except ServiceError:
                    break  # daemon unreachable (restarting) — re-poll
                if status["state"] in TERMINAL:
                    outcomes[rid] = status["state"]
                    pending.discard(rid)
                    if kill_points and len(outcomes) >= kill_points[0]:
                        # Kill now: a fast backlog can drain completely
                        # between two polls, and the kill point is missed.
                        break
            if kill_points and len(outcomes) >= kill_points[0] and pending:
                kill_points.pop(0)
                self.kill_daemon()
                if plan.truncate_tail:
                    self.tear_journal_tail()
                t_restart = time.monotonic()
                ready = self.start_daemon()
                # The restarted daemon's journal view is the truth now: a
                # torn tail may have reverted a result we already counted
                # (the daemon recomputes it), so re-track those too.
                backlog = set()
                for rid in by_id:
                    if self.client.status(rid)["state"] not in TERMINAL:
                        backlog.add(rid)
                        outcomes.pop(rid, None)
                pending |= backlog
                # Recovery drain: the whole recovered backlog terminal.
                drained = dict(self._drain(backlog, deadline))
                outcomes.update(drained)
                pending.difference_update(drained)
                self.recoveries.append({
                    "ready_s": ready,
                    "drain_s": time.monotonic() - t_restart - ready,
                })
                continue
            time.sleep(0.1)
        self.shutdown_daemon()
        return self.report(by_id, outcomes, time.monotonic() - t_start)

    def _drain(self, pending: set, deadline: float):
        for rid in sorted(pending):
            remaining = max(deadline - time.monotonic(), 1.0)
            status = self.client.wait(rid, timeout=remaining, poll=0.1)
            yield rid, status["state"]

    # --- audit + report ----------------------------------------------------------
    def audit(self, by_id: Dict[str, Dict]) -> Dict[str, Any]:
        """Exactly-once audit over the journal (raises on violations)."""
        journal = RequestJournal(self.journal_path)
        view = journal.load(verify_payloads=True)  # raises on duplicates
        missing = sorted(set(by_id) - set(view.terminal))
        extra = sorted(set(view.terminal) - set(by_id))
        if missing:
            raise CheckpointError(
                f"requests lost (no terminal record): {missing}")
        if extra:
            raise CheckpointError(
                f"terminal records for never-submitted ids: {extra}")
        mismatches = {
            rid: (spec["expect"], view.state(rid))
            for rid, spec in by_id.items()
            if view.state(rid) != spec["expect"]
        }
        return {
            "exactly_once": True,
            "records_audited": len(view.terminal),
            "dropped_tail": view.dropped_tail,
            "expectation_mismatches": mismatches,
        }

    def report(self, by_id: Dict[str, Dict], outcomes: Dict[str, str],
               elapsed: float) -> Dict[str, Any]:
        histogram: Dict[str, int] = {}
        for state in outcomes.values():
            histogram[state] = histogram.get(state, 0) + 1
        return {
            "plan": asdict(self.plan),
            "outcomes": histogram,
            "per_request": {rid: {"outcome": outcomes[rid],
                                  "expected": by_id[rid]["expect"],
                                  "chaos": by_id[rid].get("chaos")}
                            for rid in sorted(by_id)},
            "daemon_kills": self.kills_done,
            "tails_torn": self.tails_torn,
            "recoveries": self.recoveries,
            "audit": self.audit(by_id),
            "elapsed_s": elapsed,
        }


# --- sharded network chaos -----------------------------------------------------
@dataclass
class NetworkChaosPlan:
    """One reproducible sharded-network chaos scenario."""

    seed: int = 0
    requests: int = 40
    shards: int = 2
    scale: str = "smoke"
    workers: int = 1
    #: shards SIGKILLed (whole process group) and restarted mid-workload.
    shard_kills: int = 1
    #: submits to run between a shard kill and its restart (failover window).
    restart_after_submits: int = 4
    #: SIGSTOP/SIGCONT black-holes (stalled socket → ambiguous adoption).
    blackholes: int = 1
    blackhole_seconds: float = 2.0
    #: connections opened with a partial frame and held (slow loris).
    slow_loris: int = 2
    #: connections closed mid-JSON-frame (torn frames).
    torn_frames: int = 2
    io_deadline: float = 4.0
    client_timeout: float = 5.0
    recover_timeout: float = 60.0
    high_water: int = 512
    workloads: tuple = ("Cori-S1", "Theta-S1")
    methods: tuple = ("Baseline",)
    timeout: float = 900.0


class NetworkChaosHarness:
    """Runs one :class:`NetworkChaosPlan` against N shard daemons."""

    def __init__(self, plan: NetworkChaosPlan, workdir: str) -> None:
        from repro.service.client import ClientRetryPolicy
        from repro.service.shards import ShardRouter

        self.plan = plan
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.rng = random.Random(plan.seed)
        self.endpoints = [str(self.workdir / f"shard{i}.sock")
                          for i in range(plan.shards)]
        self.journals = [str(self.workdir / f"shard{i}.jsonl")
                         for i in range(plan.shards)]
        self.procs: List[Optional[subprocess.Popen]] = [None] * plan.shards
        self.router = ShardRouter(
            self.endpoints, seed=plan.seed, down_after=2,
            recover_timeout=plan.recover_timeout,
            timeout=plan.client_timeout,
            retry=ClientRetryPolicy(attempts=3))
        self.faults: List[Dict[str, Any]] = []
        self._loris_socks: List[Any] = []

    # --- shard lifecycle ---------------------------------------------------------
    def start_shard(self, i: int) -> float:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_SRC)
        env["REPRO_SCALE"] = self.plan.scale
        argv = [
            sys.executable, "-m", "repro.cli", "serve",
            "--socket", self.endpoints[i],
            "--journal", self.journals[i],
            "--workers", str(self.plan.workers),
            "--high-water", str(self.plan.high_water),
            "--shard", f"{i}/{self.plan.shards}",
            "--io-deadline", str(self.plan.io_deadline),
        ]
        t0 = time.monotonic()
        with open(self.workdir / f"shard{i}.log", "a") as log:
            self.procs[i] = subprocess.Popen(
                argv, stdout=log, stderr=subprocess.STDOUT, env=env,
                start_new_session=True)
        client = self.router.clients[self.endpoints[i]]
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            proc = self.procs[i]
            assert proc is not None
            if proc.poll() is not None:
                raise RuntimeError(
                    f"shard {i} exited during startup (rc={proc.returncode}); "
                    f"see {self.workdir / f'shard{i}.log'}")
            if client.alive():
                return time.monotonic() - t0
            time.sleep(0.05)
        raise RuntimeError(f"shard {i} not ready within 60s")

    def kill_shard(self, i: int) -> None:
        proc = self.procs[i]
        assert proc is not None
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:  # pragma: no cover
            pass
        proc.wait(30)
        self.faults.append({"fault": "shard_kill", "shard": i})

    def stop_shard(self, i: int, seconds: float) -> None:
        """SIGSTOP a shard (black hole: accepts bytes, answers nothing)."""
        proc = self.procs[i]
        assert proc is not None
        os.killpg(proc.pid, signal.SIGSTOP)
        self.faults.append({"fault": "blackhole", "shard": i,
                            "seconds": seconds})
        import threading

        def resume() -> None:
            try:
                os.killpg(proc.pid, signal.SIGCONT)
            except ProcessLookupError:  # pragma: no cover
                pass

        timer = threading.Timer(seconds, resume)
        timer.daemon = True
        timer.start()

    # --- raw-socket network faults -------------------------------------------------
    def _raw_connect(self, i: int):
        import socket as socket_mod

        sock = socket_mod.socket(socket_mod.AF_UNIX, socket_mod.SOCK_STREAM)
        sock.settimeout(self.plan.client_timeout)
        sock.connect(self.endpoints[i])
        return sock

    def inject_slow_loris(self, i: int) -> None:
        """Open a connection, send half a frame, and hold it open.

        The daemon's io deadline must disconnect it; the held socket is
        checked for EOF at the end of the run.
        """
        sock = self._raw_connect(i)
        sock.sendall(b'{"op": "pi')  # never finished, never newline
        self._loris_socks.append((i, sock, time.monotonic()))
        self.faults.append({"fault": "slow_loris", "shard": i})

    def inject_torn_frame(self, i: int) -> None:
        """Send a frame cut mid-JSON and disconnect (mid-frame drop)."""
        sock = self._raw_connect(i)
        try:
            sock.sendall(b'{"op": "status", "id": "r0')
        finally:
            sock.close()
        self.faults.append({"fault": "torn_frame", "shard": i})

    def check_loris_disconnected(self) -> int:
        """Every held slow-loris socket must have been dropped by now."""
        dropped = 0
        for i, sock, opened in self._loris_socks:
            # SIGSTOP blackholes freeze the target's event loop, so the
            # io deadline can land late by up to the stall time.
            budget = (self.plan.io_deadline * 3 + 2.0
                      + self.plan.blackhole_seconds * self.plan.blackholes)
            remaining = max(0.1, opened + budget - time.monotonic())
            sock.settimeout(remaining)
            try:
                data = sock.recv(4096)
            except (TimeoutError, OSError):
                # Name the holder: a worker fork()ed while the
                # connection was open would inherit (and hold) the fd.
                try:
                    diag = subprocess.run(
                        ["ss", "-xp"], capture_output=True, text=True
                    ).stdout
                    held = "\n".join(line for line in diag.splitlines()
                                     if f"shard{i}" in line)
                except OSError:
                    held = "(ss unavailable)"
                alive = self.router.clients[self.endpoints[i]].alive()
                raise RuntimeError(
                    f"slow-loris connection to shard {i} still open after "
                    f"{budget:.0f}s — io deadline not enforced; "
                    f"daemon alive={alive}; ss:\n{held}")
            finally:
                sock.close()
            if data == b"":
                dropped += 1
            else:
                raise RuntimeError(
                    f"slow-loris connection got unexpected data {data[:40]!r}")
        self._loris_socks.clear()
        return dropped

    # --- the plan ------------------------------------------------------------------
    def _key_for_shard(self, i: int) -> str:
        """A fresh key whose primary is shard i (seeded, deterministic)."""
        endpoint = self.endpoints[i]
        while True:
            key = self.router.new_key("bh")
            if self.router.ring.node(key) == endpoint:
                return key

    def _submit_resilient(self, params: Dict[str, Any],
                          pending_restart: List[tuple]) -> Any:
        """One keyed submit that survives shed *and* total outage.

        A 429 is an honest shed: back off and retry.  A
        :class:`ShardError` means every shard was unreachable at once —
        a kill overlapping a blackhole.  Restarts pending on submit
        progress are brought forward (the loop cannot advance to
        trigger them while nothing accepts), and the *same* key is
        retried, which the journals dedup to exactly-once.
        """
        params = dict(params)
        params.setdefault("idempotency_key", self.router.new_key())
        deadline = time.monotonic() + 120.0
        while True:
            try:
                return self.router.submit(**params)
            except ShardError:
                if time.monotonic() > deadline:
                    raise
                if not (self.faults
                        and self.faults[-1].get("fault") == "total_outage"):
                    self.faults.append({"fault": "total_outage"})
                for shard, at in list(pending_restart):
                    pending_restart.remove((shard, at))
                    self.start_shard(shard)
                time.sleep(0.5)
            except ServiceError as exc:
                if exc.code != 429 or time.monotonic() > deadline:
                    raise
                time.sleep(0.2)  # honest shed: back off and retry

    def run(self) -> Dict[str, Any]:
        plan = self.plan
        t_start = time.monotonic()
        for i in range(plan.shards):
            self.start_shard(i)
        # Seeded fault schedule: submit indices at which faults fire.
        fault_indices = sorted(
            self.rng.sample(range(2, max(plan.requests - plan.restart_after_submits - 1, 3)),
                            min(plan.shard_kills + plan.blackholes,
                                plan.requests // 4)))
        kill_schedule = fault_indices[:plan.shard_kills]
        blackhole_schedule = fault_indices[plan.shard_kills:]
        loris_at = {self.rng.randrange(1, plan.requests)
                    for _ in range(plan.slow_loris)}
        torn_at = {self.rng.randrange(1, plan.requests)
                   for _ in range(plan.torn_frames)}

        routed = []
        pending_restart: List[tuple] = []  # (shard, restart_at_index)
        for n in range(plan.requests):
            for shard, at in list(pending_restart):
                if n >= at:
                    pending_restart.remove((shard, at))
                    self.start_shard(shard)
            if n in loris_at:
                target = self.rng.randrange(plan.shards)
                if self._shard_running(target):
                    self.inject_slow_loris(target)
            if n in torn_at:
                target = self.rng.randrange(plan.shards)
                if self._shard_running(target):
                    self.inject_torn_frame(target)
            if kill_schedule and n == kill_schedule[0]:
                kill_schedule.pop(0)
                victim = self.rng.randrange(plan.shards)
                self.kill_shard(victim)
                pending_restart.append(
                    (victim, n + plan.restart_after_submits))
            if blackhole_schedule and n == blackhole_schedule[0]:
                blackhole_schedule.pop(0)
                victim = self.rng.randrange(plan.shards)
                if self._shard_running(victim):
                    key = self._key_for_shard(victim)
                    self.stop_shard(victim, plan.blackhole_seconds)
                    routed.append(self._submit_resilient({
                        "workload": self.rng.choice(plan.workloads),
                        "method": self.rng.choice(plan.methods),
                        "scale": plan.scale, "seed": 5000 + n,
                        "idempotency_key": key,
                    }, pending_restart))
            spec = {
                "workload": self.rng.choice(plan.workloads),
                "method": self.rng.choice(plan.methods),
                "scale": plan.scale,
                "seed": 1000 + n,
            }
            routed.append(self._submit_resilient(spec, pending_restart))
        # Everyone home: restart anything still down, then drain.
        for shard, _ in pending_restart:
            self.start_shard(shard)
        self.router.check()  # final health sweep (triggers reconciliation)
        remaining = max(plan.timeout - (time.monotonic() - t_start), 30.0)
        results = self.router.wait_all(routed, timeout=remaining, poll=0.1)
        states = {key: status["state"] for key, status in results.items()}
        not_done = {k: s for k, s in states.items() if s != "done"}
        if not_done:
            raise RuntimeError(
                f"{len(not_done)} request(s) not done: {not_done}")
        loris_dropped = self.check_loris_disconnected()
        for i in range(plan.shards):
            try:
                self.router.clients[self.endpoints[i]].shutdown(mode="now")
                proc = self.procs[i]
                if proc is not None:
                    proc.wait(30)
            except (ServiceError, subprocess.TimeoutExpired):
                if self._shard_running(i):
                    self.kill_shard(i)
        return self.report(routed, states, loris_dropped,
                           time.monotonic() - t_start)

    def _shard_running(self, i: int) -> bool:
        proc = self.procs[i]
        return proc is not None and proc.poll() is None

    # --- audit + report ------------------------------------------------------------
    def audit(self, routed: List[Any]) -> Dict[str, Any]:
        """Key-level exactly-once across the union of all shard journals."""
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from validate_checkpoint import ValidationFailure, validate_shards

        existing = [p for p in self.journals if Path(p).exists()]
        try:
            summary = validate_shards(existing)
        except ValidationFailure as exc:
            raise RuntimeError(f"sharded journal audit failed: {exc}") from exc
        submitted = {r.key for r in routed}
        return {
            "exactly_once": True,
            "keys_submitted": len(submitted),
            "keys_audited": summary["keys"],
            "outcomes": summary["outcomes"],
            "pending_keys": summary["pending_keys"],
            "per_shard": summary["per_shard"],
        }

    def report(self, routed: List[Any], states: Dict[str, str],
               loris_dropped: int, elapsed: float) -> Dict[str, Any]:
        audit = self.audit(routed)
        if audit["pending_keys"]:
            raise RuntimeError(
                f"keys without an effective outcome: {audit['pending_keys']}")
        if audit["keys_audited"] < len(routed):
            raise RuntimeError(
                f"journals hold {audit['keys_audited']} keys but "
                f"{len(routed)} were submitted — requests lost")
        histogram: Dict[str, int] = {}
        for state in states.values():
            histogram[state] = histogram.get(state, 0) + 1
        return {
            "plan": asdict(self.plan),
            "outcomes": histogram,
            "faults": self.faults,
            "router": {
                "failovers": self.router.failovers,
                "adoptions": self.router.adoptions,
                "forced_failovers": self.router.forced_failovers,
                "reconciled": self.router.reconciled,
                "conflicts": self.router.conflicts,
            },
            "slow_loris_dropped": loris_dropped,
            "audit": audit,
            "elapsed_s": elapsed,
        }


def run_network_chaos(plan: NetworkChaosPlan,
                      workdir: Optional[str] = None) -> Dict[str, Any]:
    """Run one sharded network plan end to end; returns the report dict."""
    def _run(directory: str) -> Dict[str, Any]:
        harness = NetworkChaosHarness(plan, directory)
        try:
            return harness.run()
        finally:
            for i in range(plan.shards):
                proc = harness.procs[i]
                if proc is not None and proc.poll() is None:
                    try:
                        os.killpg(proc.pid, signal.SIGCONT)
                    except ProcessLookupError:
                        pass
                    harness.kill_shard(i)

    if workdir is not None:
        return _run(workdir)
    with tempfile.TemporaryDirectory(prefix="repro-netchaos-") as tmp:
        return _run(tmp)


def run_chaos(plan: ChaosPlan, workdir: Optional[str] = None) -> Dict[str, Any]:
    """Run one plan end to end; returns the report dict."""
    if workdir is None:
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
            return run_chaos(plan, tmp)
    harness = ChaosHarness(plan, workdir)
    try:
        return harness.run()
    finally:
        # A plan that raised (e.g. timed out) must not leave its daemon.
        if harness.proc is not None and harness.proc.poll() is None:
            harness.kill_daemon()


def _network_main(args: argparse.Namespace) -> int:
    plan = NetworkChaosPlan(
        seed=args.seed, requests=args.requests, shards=args.shards,
        scale=args.scale, workers=args.workers,
        shard_kills=args.daemon_kills, blackholes=args.blackholes,
        blackhole_seconds=args.blackhole_seconds,
        slow_loris=args.slow_loris, torn_frames=args.torn_frames,
        io_deadline=args.io_deadline, timeout=args.timeout,
    )
    report = run_network_chaos(plan, workdir=args.workdir)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.report:
        Path(args.report).write_text(text + "\n")
        print(f"wrote network chaos report to {args.report}")
    audit = report["audit"]
    router = report["router"]
    print(f"network chaos seed={plan.seed}: {plan.shards} shard(s), "
          f"{audit['keys_audited']} key(s) audited exactly-once, "
          f"outcomes {report['outcomes']}, "
          f"failovers={router['failovers']} "
          f"adoptions={router['adoptions']} "
          f"reconciled={router['reconciled']} "
          f"loris_dropped={report['slow_loris_dropped']}")
    return 0 if audit["exactly_once"] and not audit["pending_keys"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Deterministic chaos harness for the simulation service")
    parser.add_argument("--network", action="store_true",
                        help="run the sharded network plan instead of the "
                             "single-daemon worker plan")
    parser.add_argument("--shards", type=int, default=2,
                        help="shard count for --network")
    parser.add_argument("--blackholes", type=int, default=1,
                        help="SIGSTOP black-holes for --network")
    parser.add_argument("--blackhole-seconds", type=float, default=2.0)
    parser.add_argument("--slow-loris", type=int, default=2,
                        help="held half-frame connections for --network")
    parser.add_argument("--torn-frames", type=int, default=2,
                        help="mid-JSON disconnects for --network")
    parser.add_argument("--io-deadline", type=float, default=4.0,
                        help="per-connection io deadline for --network")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--requests", type=int, default=6)
    parser.add_argument("--crash-fraction", type=float, default=0.34)
    parser.add_argument("--hang-fraction", type=float, default=0.17)
    parser.add_argument("--poison-requests", type=int, default=0)
    parser.add_argument("--daemon-kills", type=int, default=1)
    parser.add_argument("--truncate-tail", action="store_true")
    parser.add_argument("--scale", default="smoke")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--deadline", type=float, default=20.0)
    parser.add_argument("--retries", type=int, default=3)
    parser.add_argument("--timeout", type=float, default=600.0)
    parser.add_argument("--workdir", default=None,
                        help="keep artifacts here instead of a temp dir")
    parser.add_argument("--report", default=None, metavar="PATH",
                        help="write the JSON report to PATH")
    args = parser.parse_args(argv)
    if args.network:
        return _network_main(args)
    plan = ChaosPlan(
        seed=args.seed, requests=args.requests,
        crash_fraction=args.crash_fraction, hang_fraction=args.hang_fraction,
        poison_requests=args.poison_requests, daemon_kills=args.daemon_kills,
        truncate_tail=args.truncate_tail, scale=args.scale,
        workers=args.workers, deadline=args.deadline, retries=args.retries,
        timeout=args.timeout,
    )
    report = run_chaos(plan, workdir=args.workdir)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.report:
        Path(args.report).write_text(text + "\n")
        print(f"wrote chaos report to {args.report}")
    summary = report["outcomes"]
    audit = report["audit"]
    print(f"chaos seed={plan.seed}: {report['daemon_kills']} daemon kill(s), "
          f"outcomes {summary}, exactly_once={audit['exactly_once']}, "
          f"mismatches={len(audit['expectation_mismatches'])}")
    return 0 if not audit["expectation_mismatches"] else 1


if __name__ == "__main__":
    sys.exit(main())
