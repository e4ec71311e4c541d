"""Signal-path behavior of the CLI, pinned end to end in subprocesses.

Operators script against these contracts: an un-checkpointed ``simulate``
turns SIGTERM into an orderly exit 130 with flushed telemetry; a
checkpointed one saves a resumable snapshot and exits ``128 + signum``
with a resume hint; ``serve`` drains on SIGTERM and abandons on SIGINT,
removing its socket either way.  The validator's journal mode is
exercised through the same subprocess surface CI uses.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.service.journal import RequestJournal

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
VALIDATOR = ROOT / "tools" / "validate_checkpoint.py"


def _env(scale):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_SCALE"] = scale
    return env


def _spawn(argv, scale):
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=_env(scale), cwd=str(ROOT))


def _wait_for(predicate, timeout, what):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    pytest.fail(f"timed out after {timeout}s waiting for {what}")


class TestSimulateSignals:
    def test_sigterm_uncheckpointed_exits_130(self):
        """No checkpoint config: SIGTERM ⇒ KeyboardInterrupt path, 130.

        There is no externally observable "handlers installed" marker for
        an un-checkpointed run, so the delay before signalling is a
        ladder: a SIGTERM that lands before the handler (child killed,
        ``-SIGTERM``) retries with a longer wait, one that lands after
        the run finished retries with a shorter one.  The run is a
        paper-scale simulation (minutes long), so the signal lands
        inside it however fast the simulator gets.
        """
        for delay in (3.0, 1.5, 6.0):
            proc = _spawn(["simulate", "Theta-S4", "BBSched",
                           "--scale", "paper"], scale="paper")
            time.sleep(delay)
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=300)
            if proc.returncode == 130:
                assert "interrupted (no checkpoint written)" in err, err
                return
            assert proc.returncode in (-signal.SIGTERM, 0), (out, err)
        pytest.fail("SIGTERM never landed inside the handled window")

    def test_sigterm_checkpointed_saves_and_exits_143(self, tmp_path):
        """Checkpointed run: SIGTERM ⇒ snapshot on disk, exit 128+15.

        Deterministic: the first periodic checkpoint file doubles as the
        "handlers are installed, run is in flight" marker, so the signal
        always lands inside the graceful window.
        """
        ckpt = tmp_path / "sig.ckpt"
        proc = _spawn(["simulate", "Theta-S4", "BBSched", "--scale", "default",
                       "--checkpoint", str(ckpt), "--checkpoint-every", "0.25"],
                      scale="default")
        _wait_for(ckpt.exists, 120.0, "first periodic checkpoint")
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 128 + signal.SIGTERM, (out, err)
        assert "interrupted at sim-time" in err
        assert "--resume-from" in err
        check = subprocess.run(
            [sys.executable, str(VALIDATOR), str(ckpt),
             "--expect-workload", "Theta-S4", "--expect-method", "BBSched"],
            capture_output=True, text=True)
        assert check.returncode == 0, check.stderr

    def test_double_sigint_checkpointed_always_terminates(self, tmp_path):
        """Two rapid SIGINTs never leave a checkpointed run alive.

        Which exit message appears is a race the contract leaves open —
        a batch boundary between the two signals saves and exits
        orderly, otherwise the second signal force-quits — but both
        paths exit 130 promptly, which is what operators rely on.
        """
        ckpt = tmp_path / "dbl.ckpt"
        proc = _spawn(["simulate", "Theta-S4", "BBSched", "--scale", "default",
                       "--checkpoint", str(ckpt), "--checkpoint-every", "0.25"],
                      scale="default")
        _wait_for(ckpt.exists, 120.0, "first periodic checkpoint")
        proc.send_signal(signal.SIGINT)
        time.sleep(0.2)
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 130, (out, err)
        assert "interrupted" in err


class TestServeSignals:
    def _serve(self, tmp_path, extra=()):
        sock = tmp_path / "svc.sock"
        journal = tmp_path / "svc.jsonl"
        proc = _spawn(["serve", "--socket", str(sock),
                       "--journal", str(journal), "--workers", "1", *extra],
                      scale="smoke")
        _wait_for(sock.exists, 60.0, "daemon socket")
        return proc, sock

    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        proc, sock = self._serve(tmp_path)
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, (out, err)
        assert not sock.exists()

    def test_sigint_abandons_and_exits_zero(self, tmp_path):
        proc, sock = self._serve(tmp_path)
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, (out, err)
        assert not sock.exists()


class TestValidatorJournalMode:
    def validate(self, *argv):
        return subprocess.run(
            [sys.executable, str(VALIDATOR), *map(str, argv)],
            capture_output=True, text=True)

    def make_journal(self, tmp_path):
        """One finished request, one accepted-but-pending."""
        journal = RequestJournal(tmp_path / "svc.jsonl")
        journal.append_request("r1", 1, {"workload": "Theta-S4"})
        journal.append_running("r1", 1)
        journal.append_done("r1", {"makespan": 1.0}, {"metrics": {}}, 0.5)
        journal.append_request("r2", 2, {"workload": "Theta-S4"})
        return journal

    def test_valid_journal_autodetected(self, tmp_path):
        journal = self.make_journal(tmp_path)
        proc = self.validate(journal.path)
        assert proc.returncode == 0, proc.stderr
        assert "(journal)" in proc.stdout
        assert "2 accepted" in proc.stdout
        assert "1 done" in proc.stdout
        assert "1 pending" in proc.stdout

    def test_require_complete_fails_on_pending(self, tmp_path):
        journal = self.make_journal(tmp_path)
        proc = self.validate(journal.path, "--require-complete")
        assert proc.returncode == 1
        assert "without a terminal record" in proc.stderr
        assert "r2" in proc.stderr

    def test_duplicate_accept_fails_even_on_tail(self, tmp_path):
        journal = self.make_journal(tmp_path)
        journal.append_request("r1", 3, {"workload": "Theta-S4"})
        proc = self.validate(journal.path)
        assert proc.returncode == 1
        assert "accepted twice" in proc.stderr

    def test_second_terminal_fails(self, tmp_path):
        journal = self.make_journal(tmp_path)
        journal.append_failed("r1", "late duplicate", code=500, attempts=1)
        proc = self.validate(journal.path)
        assert proc.returncode == 1
        assert "second terminal record" in proc.stderr

    def test_torn_tail_tolerated(self, tmp_path):
        journal = self.make_journal(tmp_path)
        path = Path(journal.path)
        path.write_bytes(path.read_bytes()[:-10])
        proc = self.validate(path)
        assert proc.returncode == 0, proc.stderr
        assert "torn tail dropped" in proc.stdout
        assert "1 accepted" in proc.stdout  # the damaged r2 line is gone

    def _ledger_record(self, payload: bytes) -> str:
        import base64
        import hashlib
        return json.dumps({
            "kind": "cell", "version": 1, "workload": "Theta-S4",
            "method": "Baseline", "scale": "smoke",
            "payload": base64.b64encode(payload).decode(),
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
        })

    def test_ledger_torn_tail_tolerated_interior_damage_fails(self, tmp_path):
        """A ledger cut mid-final-record passes; damage anywhere else fails."""
        path = tmp_path / "grid.jsonl"
        lines = [self._ledger_record(b"a"), self._ledger_record(b"bb")]
        path.write_text("\n".join(lines) + "\n")
        path.write_bytes(path.read_bytes()[:-10])  # tear the final record
        proc = self.validate(path, "--kind", "ledger")
        assert proc.returncode == 0, proc.stderr
        assert "truncated tail dropped" in proc.stdout
        torn = path.read_bytes()
        path.write_bytes(torn + b"\n" + self._ledger_record(b"c").encode()
                         + b"\n")  # damage is now mid-file
        proc = self.validate(path, "--kind", "ledger")
        assert proc.returncode == 1

    def test_done_payload_corruption_fails(self, tmp_path):
        journal = self.make_journal(tmp_path)
        path = Path(journal.path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[2])
        assert record["kind"] == "service-done"
        record["payload_sha256"] = "0" * 64
        lines[2] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        proc = self.validate(path)
        assert proc.returncode == 1
        assert "SHA-256 mismatch" in proc.stderr
