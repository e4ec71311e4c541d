"""Service throughput and crash-recovery latency under the chaos harness.

Two seeded plans against a real ``repro serve`` daemon subprocess:

* **healthy** — no injected faults; measures sustained request
  throughput through the full admission → pool → journal path, plus
  cold-start time.
* **chaos** — worker crashes, a deadline-tripping hang, one daemon
  SIGKILL mid-backlog with a torn journal tail; measures recovery
  readiness and backlog-drain time, and asserts the exactly-once
  contract held.

A second test scales the same workload *out*: 200+ keyed requests
submitted concurrently through the consistent-hash ``ShardRouter``
across 1, 2, and 4 shard daemons, each fleet size measured healthy and
again with one shard SIGKILLed a quarter of the way in and recovered at
the halfway mark (failover + journal replay on the critical path).

Both distill into ``results/BENCH_service.json`` so resilience
regressions diff as JSON, like the checkpoint and perf benches.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from chaos import (  # noqa: E402
    ChaosPlan,
    NetworkChaosHarness,
    NetworkChaosPlan,
    run_chaos,
)

from conftest import RESULTS_DIR  # noqa: E402


def test_service_throughput_and_recovery(scale, tmp_path, save_result):
    healthy_plan = ChaosPlan(
        seed=0, requests=8, crash_fraction=0.0, hang_fraction=0.0,
        daemon_kills=0, scale=scale.name, workers=2, deadline=120.0,
        timeout=600.0,
    )
    healthy = run_chaos(healthy_plan, workdir=str(tmp_path / "healthy"))
    assert healthy["outcomes"] == {"done": healthy_plan.requests}
    assert healthy["audit"]["exactly_once"]
    assert not healthy["audit"]["expectation_mismatches"]

    # The hang deadline bounds how long an injected hang can sit before
    # its worker is SIGKILLed; at smoke scale no honest request runs
    # anywhere near it, so keep it tight or a replayed hang dominates
    # the drain measurement.
    hang_deadline = 15.0 if scale.name == "smoke" else 120.0
    chaos_plan = ChaosPlan(
        seed=0, requests=6, crash_fraction=0.34, hang_fraction=0.17,
        daemon_kills=1, truncate_tail=True, scale=scale.name, workers=2,
        deadline=hang_deadline, retries=3, timeout=600.0,
    )
    chaos = run_chaos(chaos_plan, workdir=str(tmp_path / "chaos"))
    assert chaos["outcomes"] == {"done": chaos_plan.requests}
    assert chaos["daemon_kills"] == 1
    assert chaos["audit"]["exactly_once"]
    assert not chaos["audit"]["expectation_mismatches"]

    startup = healthy["recoveries"][0]["ready_s"]
    throughput = healthy_plan.requests / (healthy["elapsed_s"] - startup)
    restarts = chaos["recoveries"][1:]  # [0] is the cold start
    ready = [r["ready_s"] for r in restarts]
    drain = [r["drain_s"] for r in restarts]
    injected = sum(1 for r in chaos["per_request"].values() if r["chaos"])
    doc = {
        "scale": scale.name,
        "workloads": list(healthy_plan.workloads),
        "method": healthy_plan.methods[0],
        "workers": healthy_plan.workers,
        "healthy_requests": healthy_plan.requests,
        "healthy_elapsed_s": round(healthy["elapsed_s"], 3),
        "startup_ready_s": round(startup, 3),
        "throughput_rps": round(throughput, 3),
        "chaos_requests": chaos_plan.requests,
        "chaos_injected_faults": injected,
        "chaos_outcomes": chaos["outcomes"],
        "chaos_elapsed_s": round(chaos["elapsed_s"], 3),
        "daemon_kills": chaos["daemon_kills"],
        "tails_torn": chaos["tails_torn"],
        "recovery_ready_s": [round(v, 3) for v in ready],
        "recovery_drain_s": [round(v, 3) for v in drain],
        "recovery_ready_max_s": round(max(ready), 3),
        "recovery_ready_p99_s": round(
            sorted(ready)[min(len(ready) - 1, int(0.99 * len(ready)))], 3),
        "exactly_once": True,
        "journal_tail_dropped": chaos["audit"]["dropped_tail"],
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_service.json"
    if out.exists():  # keep the sharded section from a previous run
        previous = json.loads(out.read_text())
        if "sharded" in previous:
            doc["sharded"] = previous["sharded"]
    out.write_text(json.dumps(doc, indent=2) + "\n")
    save_result(
        "service_resilience",
        "simulation service under the deterministic chaos harness "
        "(seed 0, scale %s)\n"
        "healthy throughput : %.2f req/s (%d requests, %d workers, "
        "%.2fs cold start)\n"
        "chaos plan         : %d requests, %d injected fault(s), "
        "1 daemon SIGKILL, torn tail\n"
        "outcomes           : %s (exactly-once audit passed)\n"
        "recovery readiness : %s s\n"
        "recovery drain     : %s s"
        % (scale.name, throughput, healthy_plan.requests,
           healthy_plan.workers, startup,
           chaos_plan.requests, injected, chaos["outcomes"],
           ", ".join(f"{v:.2f}" for v in ready),
           ", ".join(f"{v:.2f}" for v in drain)),
    )


def _run_sharded(n_shards, requests, workdir, scale_name, kill_recover):
    """One sharded configuration: submit everything, then drain.

    All ``requests`` submits are keyed and in flight concurrently (the
    admission queue holds them; ``high_water`` is sized above the
    batch).  With ``kill_recover`` shard 0 is SIGKILLed (whole process
    group) a quarter of the way through submission and restarted at the
    halfway mark — submits keyed to it fail over meanwhile, and its
    accepted backlog is replayed from the journal on restart.
    """
    plan = NetworkChaosPlan(
        seed=0, requests=requests, shards=n_shards, scale=scale_name,
        workers=2, shard_kills=0, blackholes=0, slow_loris=0,
        torn_frames=0, high_water=max(512, 4 * requests),
        client_timeout=30.0, timeout=900.0)
    harness = NetworkChaosHarness(plan, workdir=str(workdir))
    workloads = list(plan.workloads)
    kill_at, restart_at = requests // 4, requests // 2
    try:
        ready = [harness.start_shard(i) for i in range(n_shards)]
        pending_restart = []
        t0 = time.monotonic()
        routed = []
        for n in range(requests):
            for shard, at in list(pending_restart):
                if n >= at:
                    pending_restart.remove((shard, at))
                    harness.start_shard(shard)
            if kill_recover and n == kill_at:
                harness.kill_shard(0)
                pending_restart.append((0, restart_at))
            routed.append(harness._submit_resilient({
                "workload": workloads[n % len(workloads)],
                "method": "Baseline",
                "scale": scale_name,
                "seed": 1000 + n,
            }, pending_restart))
        submit_s = time.monotonic() - t0
        for shard, _ in pending_restart:
            harness.start_shard(shard)
        results = harness.router.wait_all(routed, timeout=600.0, poll=0.1)
        elapsed = time.monotonic() - t0
        states = {key: status["state"] for key, status in results.items()}
        assert set(states.values()) == {"done"}, states
        audit = harness.audit(routed)
        assert audit["exactly_once"]
        assert not audit["pending_keys"]
        assert audit["keys_audited"] >= len(routed)
        for i in range(n_shards):
            client = harness.router.clients[harness.endpoints[i]]
            try:
                client.shutdown(mode="now")
                proc = harness.procs[i]
                if proc is not None:
                    proc.wait(30)
            except Exception:
                pass
        return {
            "shards": n_shards,
            "requests": requests,
            "kill_recover": kill_recover,
            "startup_ready_max_s": round(max(ready), 3),
            "submit_s": round(submit_s, 3),
            "elapsed_s": round(elapsed, 3),
            "throughput_rps": round(requests / elapsed, 3),
            "failovers": harness.router.failovers,
            "adoptions": harness.router.adoptions,
            "exactly_once": True,
        }
    finally:
        for i in range(n_shards):
            proc = harness.procs[i]
            if proc is not None and proc.poll() is None:
                harness.kill_shard(i)


def test_sharded_throughput(scale, tmp_path, save_result):
    requests = 200
    configs = [(1, False), (2, False), (4, False),
               (1, True), (2, True), (4, True)]
    rows = []
    for index, (n_shards, kill_recover) in enumerate(configs):
        rows.append(_run_sharded(
            n_shards, requests, tmp_path / f"cfg{index}", scale.name,
            kill_recover))

    out = RESULTS_DIR / "BENCH_service.json"
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["sharded"] = {
        "requests": requests,
        "method": "Baseline",
        "workers_per_shard": 2,
        "configs": rows,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    out.write_text(json.dumps(doc, indent=2) + "\n")

    lines = [
        "sharded service throughput (seed 0, scale %s, %d keyed requests, "
        "2 workers/shard)" % (scale.name, requests),
        "shards  killed  elapsed_s  throughput_rps  failovers",
    ]
    for row in rows:
        lines.append("%6d  %6s  %9.2f  %14.2f  %9d" % (
            row["shards"], "yes" if row["kill_recover"] else "no",
            row["elapsed_s"], row["throughput_rps"], row["failovers"]))
    lines.append("every configuration audited exactly-once across its "
                 "shard journals")
    save_result("service_sharded", "\n".join(lines))
