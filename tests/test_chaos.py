"""End-to-end chaos tests: the service's crash-tolerance contract.

These drive the real harness in ``tools/chaos.py`` — a ``repro serve``
daemon subprocess in its own process group, a seeded chaos plan, and the
journal audit — at smoke scale, small enough for the regular suite.  The
plans here are the same ones validated by hand; their seeds pin the
request mix, the kill points, and the torn-tail cuts, so a failure is
replayable with ``python tools/chaos.py --seed <seed> ...``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from chaos import (  # noqa: E402
    ChaosHarness,
    ChaosPlan,
    NetworkChaosPlan,
    run_chaos,
    run_network_chaos,
)

from repro.checkpoint.journal import JsonlJournal
from repro.errors import CheckpointError
from repro.service.journal import RequestJournal


@pytest.fixture(autouse=True)
def _smoke_scale(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "smoke")


class TestPlanDeterminism:
    def test_same_seed_same_requests(self, tmp_path):
        a = ChaosHarness(ChaosPlan(seed=3, requests=5), str(tmp_path / "a"))
        b = ChaosHarness(ChaosPlan(seed=3, requests=5), str(tmp_path / "b"))
        assert a.build_requests() == b.build_requests()

    def test_different_seeds_differ(self, tmp_path):
        a = ChaosHarness(ChaosPlan(seed=3, requests=8), str(tmp_path / "a"))
        b = ChaosHarness(ChaosPlan(seed=4, requests=8), str(tmp_path / "b"))
        assert a.build_requests() != b.build_requests()

    def test_poison_requests_expect_quarantine(self, tmp_path):
        harness = ChaosHarness(
            ChaosPlan(seed=0, requests=4, poison_requests=2),
            str(tmp_path / "p"))
        specs = harness.build_requests()
        assert [s["expect"] for s in specs[:2]] == ["quarantined"] * 2
        assert all(s["chaos"] == {"crash_attempts": -1} for s in specs[:2])


class TestTailRepair:
    """The torn-tail repair that daemon recovery relies on."""

    def _journal_with_records(self, path, n=2):
        journal = JsonlJournal(path)
        for i in range(n):
            journal.append({"k": i})
        return journal

    def test_intact_journal_untouched(self, tmp_path):
        journal = self._journal_with_records(tmp_path / "j.jsonl")
        before = journal.path.read_bytes()
        assert journal.repair_tail() == 0
        assert journal.path.read_bytes() == before

    def test_torn_final_line_truncated(self, tmp_path):
        journal = self._journal_with_records(tmp_path / "j.jsonl")
        raw = journal.path.read_bytes()
        journal.path.write_bytes(raw[:-7])  # cut inside the last record
        removed = journal.repair_tail()
        assert removed > 0
        assert list(journal.replay()) == [(1, {"k": 0})]
        assert journal.dropped_tail == 0
        # And the journal is appendable again without stranding damage.
        journal.append({"k": 9})
        assert [r for _, r in journal.replay()] == [{"k": 0}, {"k": 9}]

    def test_missing_newline_reterminated(self, tmp_path):
        journal = self._journal_with_records(tmp_path / "j.jsonl")
        raw = journal.path.read_bytes()
        journal.path.write_bytes(raw[:-1])  # tear off only the "\n"
        assert journal.repair_tail() == 0
        journal.append({"k": 9})
        assert [r["k"] for _, r in journal.replay()] == [0, 1, 9]

    def test_request_journal_repair(self, tmp_path):
        path = tmp_path / "svc.jsonl"
        journal = RequestJournal(path)
        journal.append_request("r000001", 1, {"workload": "Cori-S1"})
        journal.append_request("r000002", 2, {"workload": "Theta-S1"})
        raw = path.read_bytes()
        path.write_bytes(raw[:-11])
        assert journal.load().dropped_tail == 1
        assert journal.repair() > 0
        view = journal.load()
        assert view.dropped_tail == 0
        assert list(view.requests) == ["r000001"]
        # Post-repair appends must never trip the interior-damage check.
        journal.append_failed("r000001", "boom", 500, 1)
        journal.load()

    def test_interior_damage_still_raises(self, tmp_path):
        journal = self._journal_with_records(tmp_path / "j.jsonl", n=3)
        lines = journal.path.read_bytes().splitlines(keepends=True)
        lines[1] = b'{"torn\n'
        journal.path.write_bytes(b"".join(lines))
        assert journal.repair_tail() == 0  # final line is fine
        with pytest.raises(CheckpointError, match="line 2"):
            list(journal.replay())


class TestChaosEndToEnd:
    """Full plans against a real daemon subprocess (smoke scale)."""

    def test_daemon_kill_and_torn_tail(self, tmp_path):
        plan = ChaosPlan(seed=0, requests=6, daemon_kills=1,
                         truncate_tail=True, deadline=10.0, retries=3,
                         scale="smoke", timeout=240.0)
        report = run_chaos(plan, workdir=str(tmp_path))
        audit = report["audit"]
        assert audit["exactly_once"] is True
        assert audit["expectation_mismatches"] == {}
        assert audit["records_audited"] == 6
        assert sum(report["outcomes"].values()) == 6
        assert report["outcomes"] == {"done": 6}
        # Seed 0 is pinned to fire its kill point mid-backlog.
        assert report["daemon_kills"] == 1
        assert len(report["recoveries"]) == 2  # initial start + 1 restart
        for recovery in report["recoveries"]:
            assert recovery["ready_s"] < 30.0
        # The journal is independently auditable after the fact.
        view = RequestJournal(tmp_path / "chaos.jsonl").load(
            verify_payloads=True)
        assert len(view.terminal) == 6
        assert not view.pending()

    @pytest.mark.parametrize("shards", [1, 4])
    def test_shard_kill_and_recover(self, tmp_path, shards):
        """One shard SIGKILLed mid-submission and restarted, behind the
        router; the two-shard fleet runs in CI's network-chaos job."""
        plan = NetworkChaosPlan(seed=0, requests=8, shards=shards,
                                shard_kills=1, blackholes=0, slow_loris=0,
                                torn_frames=0, scale="smoke", timeout=240.0)
        report = run_network_chaos(plan, workdir=str(tmp_path))
        assert report["faults"][0]["fault"] == "shard_kill"
        assert report["outcomes"] == {"done": 8}
        audit = report["audit"]
        assert audit["exactly_once"] is True
        assert not audit["pending_keys"]
        assert audit["keys_audited"] >= audit["keys_submitted"] == 8

    def test_poison_request_quarantined(self, tmp_path):
        plan = ChaosPlan(seed=7, requests=5, poison_requests=1,
                         daemon_kills=0, deadline=10.0, retries=3,
                         scale="smoke", timeout=240.0)
        report = run_chaos(plan, workdir=str(tmp_path))
        assert report["audit"]["expectation_mismatches"] == {}
        assert report["outcomes"] == {"done": 4, "quarantined": 1}
