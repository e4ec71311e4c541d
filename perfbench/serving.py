"""Service workload: service-burst.

Two ``repro serve --shard i/2`` daemons (one worker and a journal each)
behind a ``ShardRouter``.  Bursts of keyed light requests (``Baseline``
on one of Cori/Theta S1-S4 at smoke scale, ~20 ms of simulation each)
are submitted back to back and then drained.  A light request is mostly
service overhead: protocol, router, admission, journal fsync, pool IPC.

Every request's life is split at boundaries that are stamped by someone:
the client stamps when the burst began, when the request was sent and
when it was observed terminal; the daemon's journal stamps admission,
dispatch and completion.  The layer times are the differences, so they
add up to the request's latency.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Tuple

from common import (ROOT, WORK, CleanupGuard, Outcome, Probe, TreeMemory, beyond,
                    child_env, median, percentile, run_for)

SCALE = "smoke"
LIGHT = tuple(f"{machine}-S{i}" for machine in ("Cori", "Theta") for i in range(1, 5))
LIGHT_METHOD = "Baseline"
SETUP_REPEATS = 3
#: ``latency_tail_s`` percentile; a run completes over 1000 requests, so
#: at least ten lie beyond it.
TAIL_PERCENTILE = 99

#: Each burst sends every light workload this often to each shard.
BURST_PER_WORKLOAD_PER_SHARD = 6
SHARDS = 2
#: Twice a burst's backlog on one shard, so admission never sheds (429)
#: and queue pressure stays below the degradation ladder's 50%.
BURST_HIGH_WATER = 4 * BURST_PER_WORKLOAD_PER_SHARD * len(LIGHT)


# --- daemons ------------------------------------------------------------------------
class Daemon:
    """One ``repro serve`` subprocess in a session of its own."""

    def __init__(self, workdir: str, name: str, *, high_water: int, shard: str) -> None:
        # Relative to the checkout root (both processes' working directory):
        # a Unix socket path must stay under ~100 bytes.
        self.socket = os.path.relpath(os.path.join(workdir, f"{name}.sock"), ROOT)
        self.journal = os.path.join(workdir, f"{name}.jsonl")
        self.log = os.path.join(workdir, f"{name}.log")
        argv = [sys.executable, "-m", "repro.cli", "serve", "--socket", self.socket,
                "--journal", self.journal, "--workers", "1",
                "--high-water", str(high_water), "--shard", shard]
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=log,
                                         stderr=subprocess.STDOUT, start_new_session=True)

    def ready(self, timeout: float = 60.0) -> str:
        """Block until the daemon answers a ping; returns its endpoint."""
        from repro.service import NO_RETRY, ServiceClient

        client = ServiceClient(self.socket, retry=NO_RETRY, timeout=5)
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited during start-up; see {self.log}")
            if client.alive():
                return self.socket
            time.sleep(0.01)
        raise RuntimeError(f"daemon not ready within {timeout}s; see {self.log}")

    def stop(self) -> None:
        """Graceful shutdown; the whole session is killed if that fails."""
        from repro.errors import ServiceError
        from repro.service import NO_RETRY, ServiceClient

        try:
            ServiceClient(self.socket, retry=NO_RETRY, timeout=10).shutdown("graceful")
            self.proc.wait(30)
        except (ServiceError, subprocess.TimeoutExpired):
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.proc.wait(30)


# --- requests -----------------------------------------------------------------------
def burst_plan(rng: random.Random, burst: int, ring) -> List[Dict[str, Any]]:
    """One burst: every light workload ``BURST_PER_WORKLOAD_PER_SHARD`` times
    on each shard, in seeded order.  Keys are drawn from the seed and kept
    when they hash to the wanted shard, so each burst splits evenly and its
    throughput measures the service rather than the luck of the hash."""
    plan = []
    for endpoint in ring.endpoints:
        for workload in LIGHT:
            for _ in range(BURST_PER_WORKLOAD_PER_SHARD):
                while True:
                    key = f"b{burst}-{rng.getrandbits(64):016x}"
                    if ring.node(key) == endpoint:
                        break
                plan.append({"params": dict(workload=workload, method=LIGHT_METHOD,
                                            scale=SCALE, idempotency_key=key)})
    rng.shuffle(plan)
    return plan


def send(record: Dict[str, Any], router) -> bool:
    """Route one submit; stamps its send time and round trip."""
    from repro.errors import ServiceError

    record["send"] = time.time()
    try:
        routed = router.submit(**record["params"])
    except ServiceError as exc:
        record["error"] = f"submit refused ({exc.code}): {exc}"
        return False
    record["rtt"] = time.time() - record["send"]
    record["id"], record["endpoint"] = routed.request_id, routed.endpoint
    return True


def observe(record: Dict[str, Any], router) -> None:
    """Block in the owning daemon's ``wait`` op until the request is terminal."""
    from repro.errors import ServiceError

    try:
        record["status"] = router.clients[record["endpoint"]].request(
            {"op": "wait", "id": record["id"], "timeout": 20.0})
    except ServiceError as exc:
        record["error"] = f"wait failed ({exc.code}): {exc}"
    record["observe"] = time.time()


def run_burst(plan: List[Dict[str, Any]], router) -> float:
    """Submit a burst back to back, wait for all of it; returns its wall time."""
    start = time.time()
    with ThreadPoolExecutor(len(plan)) as waiters:
        for record in plan:
            record["due"] = start
            if send(record, router):
                waiters.submit(observe, record, router)
    return max(r.get("observe", start) for r in plan) - start


def check_results(out: Outcome, records: List[Dict[str, Any]]) -> None:
    """Count every request that failed, was refused, timed out, or whose
    status summary differs from an in-process ``run_one`` of its params
    (with the service's default seed rule)."""
    from repro.experiments.config import get_scale
    from repro.experiments.grid import cell_seed
    from repro.experiments.runner import run_one
    from repro.experiments.workloads import get_workload
    from repro.service.tasks import result_summary

    scale = get_scale(SCALE)
    expected = {}
    for workload in LIGHT:
        result = run_one(get_workload(workload, scale), LIGHT_METHOD, scale,
                         seed=cell_seed(workload, LIGHT_METHOD))
        expected[workload] = json.loads(json.dumps(result_summary(result)))
    for r in records:
        out.attempted += 1
        status = r.get("status")
        if status is None:
            out.fail(f"{r['params']['workload']}: {r.get('error', 'no status')}")
        elif status.get("state") != "done":
            out.fail(f"{r['id']}: state {status.get('state')}: {status.get('error')}")
        elif status.get("summary") != expected[r["params"]["workload"]]:
            out.fail(f"{r['id']}: summary differs from in-process run_one of {r['params']}")


class DepthSampler:
    """Samples the daemons' summed admission-queue depth from ``stats``."""

    def __init__(self, clients, period: float = 0.25) -> None:
        self.clients = clients
        self.period = period
        self.samples: List[int] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        from repro.errors import ServiceError

        while not self._stop.wait(self.period):
            try:
                self.samples.append(sum(c.stats()["queue_depth"] for c in self.clients))
            except ServiceError:
                continue

    def __enter__(self) -> "DepthSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join()


def daemon_counters(clients) -> Dict[str, float]:
    """Counters and the worker-run histogram's count/total, summed over daemons."""
    total: Dict[str, float] = {}
    for client in clients:
        metrics = client.stats()["metrics"]
        hist = metrics["histograms"].get("service.run_seconds", {"count": 0, "total": 0.0})
        values = dict(metrics["counters"], run_count=hist["count"], run_total=hist["total"])
        for name, value in values.items():
            total[name] = total.get(name, 0.0) + float(value)
    return total


def service_layers(records: List[Dict[str, Any]], journals: Dict[str, str],
                   before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    """Per-request boundaries from the journals, then per-layer values."""
    from repro.checkpoint.journal import JsonlJournal

    stamps: Dict[Tuple[str, str], Dict[str, float]] = {}
    for endpoint, path in journals.items():
        for _, rec in JsonlJournal(path).replay():
            entry = stamps.setdefault((endpoint, rec["id"]), {})
            entry.setdefault(rec["kind"].replace("service-", ""), rec["t"])
    parts: Dict[str, List[float]] = {k: [] for k in
                                     ("wait", "admit", "queue", "pool", "observe", "lat")}
    for r in records:
        s = stamps[(r["endpoint"], r["id"])]
        parts["wait"].append(r["send"] - r["due"])
        parts["admit"].append(s["request"] - r["send"])
        parts["queue"].append(s["running"] - s["request"])
        parts["pool"].append(s["done"] - s["running"])
        parts["observe"].append(r["observe"] - s["done"])
        parts["lat"].append(r["observe"] - r["due"])
    runs = after["run_count"] - before["run_count"]
    run_mean = (after["run_total"] - before["run_total"]) / runs
    # Requests whose latency sits around the median, for the coverage check.
    lo, hi = percentile(parts["lat"], 40), percentile(parts["lat"], 60)
    mid = [i for i, v in enumerate(parts["lat"]) if lo <= v <= hi]
    named = sum(parts[k][i] for i in mid for k in ("wait", "admit", "queue", "pool", "observe"))
    rtts = [r["rtt"] for r in records]
    n = len(records)
    return {
        "service.shards.submit_p50_s": median(rtts),
        "service.shards.submit_p95_s": percentile(rtts, 95),
        "service.client.send_wait_s": median(parts["wait"]),
        "service.admission_s": median(parts["admit"]),
        "service.queue_wait_s": median(parts["queue"]),
        "service.pool.run_s": run_mean,
        "service.pool.overhead_s": sum(parts["pool"]) / n - run_mean,
        "service.observe_s": median(parts["observe"]),
        "service.daemon.retries": after.get("service.retries", 0) - before.get("service.retries", 0),
        "service.daemon.crashes": after.get("service.crashes", 0) - before.get("service.crashes", 0),
        "service.daemon.shed": after.get("service.shed", 0) - before.get("service.shed", 0),
        "service.daemon.degraded": (after.get("service.degraded", 0)
                                    - before.get("service.degraded", 0)),
        "telemetry.coverage_frac": named / sum(parts["lat"][i] for i in mid),
        # The service is measured from outside; a traced run adds nothing
        # to the request path, only the journal reading above.
        "telemetry.overhead_frac": 0.0,
    }


def _journal_bytes(daemons: List[Daemon]) -> int:
    return sum(os.path.getsize(d.journal) for d in daemons if os.path.exists(d.journal))


def _finish(out: Outcome, guard: CleanupGuard, daemons: List[Daemon], workdir: str) -> None:
    """Stop every daemon, audit its journal, then assert nothing survived."""
    from repro.errors import CheckpointError
    from repro.service import RequestJournal

    for d in daemons:
        if d.proc.poll() is None:
            d.stop()
    for d in daemons:
        try:
            pending = RequestJournal(d.journal).load().pending()
        except CheckpointError as exc:  # exactly-once audit failed
            out.problems.append(f"{d.journal}: {exc}")
            continue
        if pending:
            out.problems.append(f"{d.journal}: {len(pending)} request(s) never finished")
    sockets = [os.path.join(ROOT, d.socket) for d in daemons]
    out.problems += guard.check([d.proc.pid for d in daemons], sockets)
    shutil.rmtree(workdir, ignore_errors=True)


# --- service-burst ------------------------------------------------------------------
def service_burst(seed: int, seconds: float, trace_mode: bool) -> Outcome:
    from repro.service import NO_RETRY, ServiceClient, ShardRouter

    out = Outcome()
    guard = CleanupGuard()
    workdir = os.path.join(WORK, f"burst-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    daemons: List[Daemon] = []
    rng = random.Random(seed)
    try:
        setups, ready_s = [], []
        for i in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            shards = [Daemon(workdir, f"burst{i}-{s}", high_water=BURST_HIGH_WATER,
                             shard=f"{s}/{SHARDS}") for s in range(SHARDS)]
            daemons += shards
            router = ShardRouter([d.ready() for d in shards], retry=NO_RETRY, seed=seed)
            if not all(router.check().values()):
                raise RuntimeError("a shard is not healthy after start-up")
            ready_s.append(time.perf_counter() - t0)
            # Warm-up: spawn each shard's worker and let it build its traces.
            warm = burst_plan(rng, -1 - i, router.ring)[:4 * SHARDS]
            run_burst(warm, router)
            if any(r.get("status", {}).get("state") != "done" for r in warm):
                raise RuntimeError("a warm-up request failed")
            setups.append(time.perf_counter() - t0)
            if i < SETUP_REPEATS - 1:
                for d in shards:
                    d.stop()
        clients = list(router.clients.values())
        before = daemon_counters(clients)
        bytes_before = _journal_bytes(shards)
        records: List[Dict[str, Any]] = []

        def one_burst(b: int) -> float:
            plan = burst_plan(rng, b, router.ring)
            records.extend(plan)
            return run_burst(plan, router)

        # The router's submit wraps one client submit per shard tried.
        inner = Probe()
        inner.wrap(ServiceClient, "submit", "client.submit", stamp=True)
        try:
            with TreeMemory(lambda: [d.proc.pid for d in daemons]) as memory, \
                    DepthSampler(clients) as depth:
                walls = run_for(seconds, one_burst)
        finally:
            inner.remove()
        after = daemon_counters(clients)
        latencies = [r["observe"] - r["due"] for r in records if "observe" in r]
        out.metrics.update({
            "setup_s": median(setups),
            "run_wall_s": median(walls),
            "latency_p50_s": median(latencies),
            "latency_tail_s": percentile(latencies, TAIL_PERCENTILE),
            "throughput_rps": len(latencies) / sum(walls),
            "peak_rss_mb": memory.peak_mb,
        })
        out.notes.update({"bursts": len(walls), "requests": len(records),
                          "burst_wall_min_max_s": [min(walls), max(walls)],
                          "setup_samples": len(setups),
                          "latency_tail_percentile": TAIL_PERCENTILE,
                          "latency_tail_samples_beyond": beyond(len(latencies),
                                                                TAIL_PERCENTILE)})
        check_results(out, records)
        if out.failed == 0:
            out.metrics.update(service_layers(
                records, {d.socket: d.journal for d in shards}, before, after))
            submits = inner.durations["client.submit"]
            out.metrics.update({
                "service.client.submit_p50_s": median(submits),
                "service.client.submit_p95_s": percentile(submits, 95),
                "service.journal.bytes_per_request": ((_journal_bytes(shards) - bytes_before)
                                                      / len(records)),
                "service.queue_depth_max": max(depth.samples, default=0),
                "service.shards.failovers": router.failovers,
                "service.shards.ready_s": median(ready_s),
            })
    finally:
        _finish(out, guard, daemons, workdir)
    return out
