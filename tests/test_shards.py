"""Shard router: consistent hashing, failover, adoption, reconciliation."""

import asyncio
import os
import threading
import time

import pytest

from repro.errors import ServiceError, ShardError, TransientServiceError
from repro.service import (
    HashRing,
    Routed,
    ServiceClient,
    ServiceConfig,
    ServiceDaemon,
    ShardRouter,
)
from repro.service.client import NO_RETRY, ClientRetryPolicy

SMOKE = {"workload": "Cori-S1", "method": "Baseline", "scale": "smoke"}


@pytest.fixture(autouse=True)
def _smoke_scale(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "smoke")


# --- the ring ------------------------------------------------------------------
class TestHashRing:
    ENDPOINTS = [f"/tmp/shard{i}.sock" for i in range(4)]

    def test_needs_endpoints(self):
        with pytest.raises(ShardError):
            HashRing([])

    def test_deterministic(self):
        a = HashRing(self.ENDPOINTS)
        b = HashRing(self.ENDPOINTS)
        for key in ("k1", "k2", "k3"):
            assert a.preference(key) == b.preference(key)

    def test_preference_covers_every_endpoint_once(self):
        ring = HashRing(self.ENDPOINTS)
        pref = ring.preference("some-key")
        assert sorted(pref) == sorted(self.ENDPOINTS)
        assert pref[0] == ring.node("some-key")

    def test_distribution_is_roughly_balanced(self):
        ring = HashRing(self.ENDPOINTS)
        counts = {e: 0 for e in self.ENDPOINTS}
        for i in range(2000):
            counts[ring.node(f"key-{i}")] += 1
        # With 64 vnodes each shard should land within a loose band of
        # the fair share (500): no shard starved, none dominating.
        for endpoint, n in counts.items():
            assert 200 < n < 900, (endpoint, counts)

    def test_adding_endpoint_remaps_a_minority(self):
        before = HashRing(self.ENDPOINTS)
        after = HashRing(self.ENDPOINTS + ["/tmp/shard4.sock"])
        keys = [f"key-{i}" for i in range(2000)]
        moved = sum(before.node(k) != after.node(k) for k in keys)
        # Consistent hashing: ~1/5 of keys move to the new shard; plain
        # modulo hashing would reshuffle ~4/5.
        assert moved < len(keys) * 0.45

    def test_duplicate_endpoints_deduped(self):
        ring = HashRing([self.ENDPOINTS[0], self.ENDPOINTS[0],
                         self.ENDPOINTS[1]])
        assert len(ring.endpoints) == 2


# --- routing decisions (no I/O) ------------------------------------------------
class TestRouting:
    def make_router(self):
        return ShardRouter(
            [f"/tmp/nope{i}.sock" for i in range(3)],
            seed=7, retry=NO_RETRY, timeout=0.2, recover_timeout=0.2,
            probe_poll=0.01)

    def test_route_prefers_primary_when_all_up(self):
        router = self.make_router()
        info = router.route("k")
        assert info["target"] == info["preference"][0]

    def test_route_skips_down_shards(self):
        router = self.make_router()
        info = router.route("k")
        router._health[info["preference"][0]].up = False
        rerouted = router.route("k")
        assert rerouted["target"] == info["preference"][1]

    def test_route_with_everything_down(self):
        router = self.make_router()
        for health in router._health.values():
            health.up = False
        assert router.route("k")["target"] is None

    def test_check_marks_dead_endpoints_down(self):
        router = self.make_router()
        router.down_after = 1
        result = router.check()
        assert set(result.values()) == {False}
        assert all(not up for up in router.healthy().values())

    def test_new_key_is_seeded(self):
        a = self.make_router().new_key()
        b = self.make_router().new_key()
        assert a == b
        assert a.startswith("req-")

    def test_ordered_targets_put_healthy_first(self):
        router = self.make_router()
        pref = router.ring.preference("k")
        router._health[pref[0]].up = False
        ordered = router._ordered_targets("k")
        assert ordered[-1] == pref[0]
        assert ordered[:2] == [e for e in pref if e != pref[0]]


# --- reconciliation (stub shards) ----------------------------------------------
class _StubShard:
    """Stands in for a ServiceClient during reconcile() tests."""

    def __init__(self, statuses):
        self.statuses = dict(statuses)  # key -> status dict, or None for 404
        self.cancelled = []

    def status_by_key(self, key):
        status = self.statuses.get(key)
        if status is None:
            raise ServiceError(f"no request with key {key}", code=404)
        return status

    def cancel(self, request_id, reason=None):
        self.cancelled.append((request_id, reason))
        return {"ok": True, "id": request_id, "state": "cancelled"}


class TestReconcile:
    def make_router(self):
        return ShardRouter(["/tmp/a.sock", "/tmp/b.sock"], seed=0,
                           retry=NO_RETRY, timeout=0.2)

    def test_live_duplicate_is_cancelled(self):
        router = self.make_router()
        stub = _StubShard({"k1": {"ok": True, "id": "r7", "state": "queued"}})
        router.clients["/tmp/a.sock"] = stub
        router._health["/tmp/a.sock"].owed_cancels.append("k1")
        assert router.reconcile("/tmp/a.sock") == 1
        assert stub.cancelled[0][0] == "r7"
        assert router.reconciled == 1
        assert router._health["/tmp/a.sock"].owed_cancels == []

    def test_done_duplicate_is_a_conflict(self):
        router = self.make_router()
        stub = _StubShard({"k1": {"ok": True, "id": "r7", "state": "done"}})
        router.clients["/tmp/a.sock"] = stub
        router._health["/tmp/a.sock"].owed_cancels.append("k1")
        assert router.reconcile("/tmp/a.sock") == 0
        assert stub.cancelled == []
        assert router.conflicts == 1

    def test_unknown_key_is_clean(self):
        router = self.make_router()
        stub = _StubShard({})
        router.clients["/tmp/a.sock"] = stub
        router._health["/tmp/a.sock"].owed_cancels.append("k1")
        assert router.reconcile("/tmp/a.sock") == 0
        assert router.reconciled == 0
        assert router._health["/tmp/a.sock"].owed_cancels == []

    def test_recovery_transition_triggers_reconcile(self):
        router = self.make_router()
        stub = _StubShard({"k1": {"ok": True, "id": "r7", "state": "queued"}})
        router.clients["/tmp/a.sock"] = stub
        health = router._health["/tmp/a.sock"]
        health.up = False
        health.owed_cancels.append("k1")
        router._mark_success("/tmp/a.sock")  # down -> up edge
        assert router.reconciled == 1


# --- live shards ---------------------------------------------------------------
class ShardFixture:
    """Two in-thread daemons behind one router."""

    def __init__(self, tmp_path, start=(True, True)):
        self.endpoints = [str(tmp_path / f"shard{i}.sock") for i in range(2)]
        self.daemons = []
        self.threads = []
        self.start_mask = start
        self.router = ShardRouter(
            self.endpoints, seed=11, timeout=5.0,
            retry=ClientRetryPolicy(attempts=2), recover_timeout=1.0,
            probe_poll=0.05)
        for i, endpoint in enumerate(self.endpoints):
            if not start[i]:
                self.daemons.append(None)
                continue
            daemon = ServiceDaemon(ServiceConfig(
                socket_path=endpoint,
                journal_path=str(tmp_path / f"shard{i}.jsonl"),
                workers=1, high_water=16, shard=f"{i}/2"))
            thread = threading.Thread(
                target=lambda d=daemon: asyncio.run(d.serve()), daemon=True)
            thread.start()
            self.daemons.append(daemon)
            self.threads.append(thread)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if all(self.router.clients[e].alive()
                   for i, e in enumerate(self.endpoints) if start[i]):
                return
            time.sleep(0.02)
        raise RuntimeError("shards did not come up")

    def key_for(self, endpoint_index):
        """A key whose primary is shard ``endpoint_index``."""
        target = self.endpoints[endpoint_index]
        for i in range(10_000):
            key = f"pin-{i}"
            if self.router.ring.node(key) == target:
                return key
        raise AssertionError("no key found")

    def close(self):
        for endpoint in self.endpoints:
            try:
                ServiceClient(endpoint, timeout=2.0,
                              retry=NO_RETRY).shutdown(mode="now")
            except ServiceError:
                pass
        for thread in self.threads:
            thread.join(10.0)


@pytest.fixture()
def shards(tmp_path):
    fixture = ShardFixture(tmp_path)
    yield fixture
    fixture.close()


class TestShardedSubmit:
    def test_submit_routes_to_primary(self, shards):
        key = shards.key_for(0)
        routed = shards.router.submit(idempotency_key=key, **SMOKE)
        assert routed.endpoint == shards.endpoints[0]
        assert not routed.failover and not routed.deduped
        status = shards.router.wait(routed, timeout=120.0)
        assert status["state"] == "done"

    def test_resubmit_same_key_is_deduped(self, shards):
        key = shards.key_for(0)
        first = shards.router.submit(idempotency_key=key, **SMOKE)
        second = shards.router.submit(idempotency_key=key, **SMOKE)
        assert second.deduped
        assert second.request_id == first.request_id

    def test_reused_key_with_another_seed_is_409_without_failover(self, shards):
        key = shards.key_for(0)
        first = shards.router.submit(idempotency_key=key, seed=1, **SMOKE)
        with pytest.raises(ServiceError) as excinfo:
            shards.router.submit(idempotency_key=key, seed=2, **SMOKE)
        assert excinfo.value.code == 409
        assert not isinstance(excinfo.value, ShardError)
        assert key in str(excinfo.value)
        assert shards.router.failovers == 0
        shards.router.wait(first, timeout=120.0)

    def test_dead_primary_fails_over(self, tmp_path):
        fixture = ShardFixture(tmp_path, start=(False, True))
        try:
            key = fixture.key_for(0)  # primary is the never-started shard
            routed = fixture.router.submit(idempotency_key=key, **SMOKE)
            assert routed.endpoint == fixture.endpoints[1]
            assert routed.failover
            assert fixture.router.failovers == 1
            status = fixture.router.wait(routed, timeout=120.0)
            assert status["state"] == "done"
        finally:
            fixture.close()

    def test_ambiguous_submit_adopts_existing_request(self, shards):
        key = shards.key_for(0)
        accepted = shards.router.clients[shards.endpoints[0]].submit(
            idempotency_key=key, **SMOKE)
        client = shards.router.clients[shards.endpoints[0]]
        original_submit = client.submit
        calls = {"n": 0}

        def ambiguous_once(**params):
            if calls["n"] == 0:
                calls["n"] += 1
                err = TransientServiceError("connection reset mid-ack")
                err.sent = True
                raise err
            return original_submit(**params)

        client.submit = ambiguous_once
        try:
            routed = shards.router.submit(idempotency_key=key, **SMOKE)
        finally:
            client.submit = original_submit
        assert routed.adopted
        assert routed.request_id == accepted["id"]
        assert shards.router.adoptions == 1

    def test_wait_all_names_all_pending_keys(self, shards):
        key = shards.key_for(0)
        routed = shards.router.submit(idempotency_key=key, **SMOKE)
        phantom = Routed(key="never-ran", endpoint=routed.endpoint,
                         request_id="r999999")
        from repro.errors import ServiceTimeout
        with pytest.raises(ServiceError) as excinfo:
            try:
                shards.router.wait_all([routed, phantom], timeout=120.0)
            except ServiceTimeout:
                raise
        # The phantom id draws a 404 from a live shard, not a timeout.
        assert excinfo.value.code == 404

    def test_stats_aggregates_and_flags_down_shards(self, tmp_path):
        fixture = ShardFixture(tmp_path, start=(True, False))
        try:
            stats = fixture.router.stats()
            up, down = fixture.endpoints
            assert stats["shards"][up]["ok"]
            assert stats["shards"][down]["ok"] is False
            assert "router" in stats
        finally:
            fixture.close()
