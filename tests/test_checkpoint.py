"""Checkpoint/restore: snapshots, resume equivalence, and the ledger."""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.checkpoint import (
    CheckpointConfig,
    Checkpointer,
    ResultsLedger,
    fingerprint_digest,
    load_checkpoint,
    read_header,
    run_fingerprint,
    save_checkpoint,
    verify_resume,
)
from repro.errors import (
    CheckpointError,
    ConfigurationError,
    SchedulingError,
    SimulationInterrupted,
)
from repro.experiments import get_scale, get_workload, run_one
from repro.experiments.grid import run_grid
from repro.methods import METHODS_SECTION4
from repro.resilience import RetryPolicy, get_scenario
from repro.simulator.engine import SchedulingEngine
from repro.telemetry import NULL_TRACER

SMOKE = get_scale("smoke")
VALIDATOR = Path(__file__).resolve().parent.parent / "tools" / "validate_checkpoint.py"


def small_run(tmp_path, *, method="BBSched", workload="Theta-S4",
              stop_after=None, every_hours=0.0, **kwargs):
    trace = get_workload(workload, SMOKE)
    config = CheckpointConfig(
        path=str(tmp_path / "run.ckpt"), every_hours=every_hours,
        stop_after=stop_after)
    return run_one(trace, method, SMOKE, seed=11, checkpoint=config, **kwargs)


class TestSnapshotFormat:
    def make_checkpoint(self, tmp_path):
        path = tmp_path / "mid.ckpt"
        trace = get_workload("Theta-S4", SMOKE)
        config = CheckpointConfig(path=str(path), every_hours=0.0,
                                  stop_after=20_000.0)
        with pytest.raises(SimulationInterrupted) as excinfo:
            run_one(trace, "Baseline", SMOKE, seed=11, checkpoint=config)
        assert excinfo.value.checkpoint_path == str(path)
        assert excinfo.value.signum is None
        return path

    def test_header_and_manifest(self, tmp_path):
        path = self.make_checkpoint(tmp_path)
        header = read_header(path)
        assert header["magic"] == "repro-ckpt"
        assert header["version"] == 1
        manifest = header["manifest"]
        assert manifest["sim_time"] >= 20_000.0
        assert 0 < manifest["jobs_terminal"] < manifest["jobs_total"]
        assert manifest["meta"]["workload"] == "Theta-S4"
        assert manifest["meta"]["method"] == "Baseline"
        assert manifest["meta"]["seed"] == 11

    def test_load_restores_engine(self, tmp_path):
        path = self.make_checkpoint(tmp_path)
        engine, header = load_checkpoint(path)
        assert isinstance(engine, SchedulingEngine)
        assert engine.now == header["manifest"]["sim_time"]
        assert engine.jobs_terminal == header["manifest"]["jobs_terminal"]
        # The unpicklable tracer is dropped and rebound to the null default.
        assert engine._tracer is NULL_TRACER
        result = engine.continue_run()
        assert result.makespan > engine.now or result.makespan == engine.now

    def test_list_queue_snapshot_resumes(self, tmp_path):
        """Snapshots that stored the engine's queue as a job list (the
        layout before it was keyed by jid) still resume to the
        uninterrupted result."""
        path = tmp_path / "mid.ckpt"
        trace = get_workload("Cori-S4", SMOKE)  # 26 jobs queued at the cut
        config = CheckpointConfig(path=str(path), every_hours=0.0,
                                  stop_after=40_000.0)
        with pytest.raises(SimulationInterrupted):
            run_one(trace, "Baseline", SMOKE, seed=11, checkpoint=config)
        engine, header = load_checkpoint(path)
        queue = engine._queue
        engine._queue = list(queue.values() if isinstance(queue, dict) else queue)
        assert len(engine._queue) > 10
        save_checkpoint(path, engine, meta=header["manifest"]["meta"])
        resumed = run_one(trace, "Baseline", SMOKE, seed=11,
                          resume_from=str(path))
        full = run_one(trace, "Baseline", SMOKE, seed=11)
        assert fingerprint_digest(resumed) == fingerprint_digest(full)

    def test_reference_path_snapshot_resumes(self, tmp_path):
        """Snapshots taken on the retired reference paths (an engine with
        ``fast=False`` and no job table, a GA with ``eval_cache=False``)
        resume to the uninterrupted result."""
        path = tmp_path / "mid.ckpt"
        trace = get_workload("Theta-S4", SMOKE)
        config = CheckpointConfig(path=str(path), every_hours=0.0,
                                  stop_after=20_000.0)
        with pytest.raises(SimulationInterrupted):
            run_one(trace, "BBSched", SMOKE, seed=11, checkpoint=config)
        engine, header = load_checkpoint(path)
        assert engine._table is not None
        engine.fast = False
        engine._table = None
        engine._eligible_passthrough = False
        solver = engine.selector.solver
        solver.eval_cache = solver.moga.eval_cache = False
        save_checkpoint(path, engine, meta=header["manifest"]["meta"])
        engine, _ = load_checkpoint(path)
        assert not hasattr(engine, "fast") and engine._table is not None
        assert not hasattr(engine.selector.solver.moga, "eval_cache")
        resumed = run_one(trace, "BBSched", SMOKE, seed=11,
                          resume_from=str(path))
        full = run_one(trace, "BBSched", SMOKE, seed=11)
        assert fingerprint_digest(resumed) == fingerprint_digest(full)

    def test_truncated_payload_detected(self, tmp_path):
        path = self.make_checkpoint(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 100])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_corrupted_payload_detected(self, tmp_path):
        path = self.make_checkpoint(tmp_path)
        data = bytearray(path.read_bytes())
        data[-50] ^= 0xFF  # flip one payload bit, length unchanged
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="SHA-256"):
            load_checkpoint(path)

    def test_bad_magic_detected(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b'{"magic": "something-else"}\n1234')
        with pytest.raises(CheckpointError, match="not a repro-ckpt"):
            read_header(path)

    def test_future_version_refused(self, tmp_path):
        path = self.make_checkpoint(tmp_path)
        header = read_header(path)
        header["version"] = 99
        payload = path.read_bytes().split(b"\n", 1)[1]
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        with pytest.raises(CheckpointError, match="version"):
            read_header(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            read_header(tmp_path / "nope.ckpt")

    def test_atomic_replace_keeps_single_file(self, tmp_path):
        path = self.make_checkpoint(tmp_path)
        leftovers = [p for p in path.parent.iterdir() if ".tmp." in p.name]
        assert leftovers == []

    def test_save_records_metrics(self, tmp_path):
        path = self.make_checkpoint(tmp_path)
        engine, _ = load_checkpoint(path)
        # The snapshot is serialized *before* the save counters increment,
        # so a snapshot never records its own save — only earlier ones.
        saves_before = engine.metrics.counter("checkpoint.saves").value
        save_checkpoint(tmp_path / "again.ckpt", engine)
        assert engine.metrics.counter("checkpoint.saves").value == saves_before + 1
        assert engine.metrics.counter("checkpoint.bytes").value > 0
        assert engine.metrics.histograms["checkpoint.save_seconds"].count == 1


class TestCheckpointConfigValidation:
    def test_negative_interval(self):
        with pytest.raises(ConfigurationError):
            CheckpointConfig(path="x", every_hours=-1.0)

    def test_negative_stop_after(self):
        with pytest.raises(ConfigurationError):
            CheckpointConfig(path="x", stop_after=-5.0)


class TestCheckpointer:
    def test_periodic_saves_accumulate(self, tmp_path):
        path = tmp_path / "run.ckpt"
        trace = get_workload("Theta-S4", SMOKE)
        config = CheckpointConfig(path=str(path), every_hours=2.0)
        result = run_one(trace, "Baseline", SMOKE, seed=11, checkpoint=config)
        assert path.exists()
        header = read_header(path)
        # The last periodic save happened mid-run, not at the end.
        assert 0 < header["manifest"]["sim_time"] <= result.makespan
        assert header["manifest"]["jobs_terminal"] <= header["manifest"]["jobs_total"]

    def test_request_stop_interrupts_with_final_checkpoint(self, tmp_path):
        trace = get_workload("Theta-S4", SMOKE)
        path = tmp_path / "sig.ckpt"
        config = CheckpointConfig(path=str(path), every_hours=0.0)
        checkpointer = Checkpointer(config, meta={"workload": trace.name})

        class StopOnce:
            """Flag a stop at the first batch boundary, like a signal."""

            def __init__(self, inner):
                self.inner = inner
                self.fired = False

            def after_batch(self, engine):
                if not self.fired:
                    self.fired = True
                    self.inner.request_stop(signal.SIGTERM)
                self.inner.after_batch(engine)

        from repro.experiments.runner import policy_for
        from repro.methods import make_selector
        from repro.windows import WindowPolicy

        engine = SchedulingEngine(
            trace.machine.make_cluster(), policy_for(trace),
            make_selector("Baseline", generations=SMOKE.generations,
                          population=SMOKE.population, mutation=SMOKE.mutation,
                          seed=3),
            WindowPolicy(size=SMOKE.window),
        )
        with pytest.raises(SimulationInterrupted) as excinfo:
            engine.run(trace.fresh_jobs(), checkpointer=StopOnce(checkpointer))
        assert excinfo.value.signum == signal.SIGTERM
        assert path.exists()
        assert read_header(path)["manifest"]["meta"]["signal"] == signal.SIGTERM

    def test_signal_context_first_flags_second_raises(self, tmp_path):
        config = CheckpointConfig(path=str(tmp_path / "x.ckpt"),
                                  handle_signals=True)
        checkpointer = Checkpointer(config)
        with checkpointer.signals():
            os.kill(os.getpid(), signal.SIGINT)
            assert checkpointer.interrupted_by == signal.SIGINT
            with pytest.raises(KeyboardInterrupt):
                os.kill(os.getpid(), signal.SIGINT)
        # Handlers restored: a SIGINT now raises KeyboardInterrupt normally.
        with pytest.raises(KeyboardInterrupt):
            os.kill(os.getpid(), signal.SIGINT)

    def test_signal_context_noop_when_disabled(self):
        config = CheckpointConfig(path="x", handle_signals=False)
        checkpointer = Checkpointer(config)
        before = signal.getsignal(signal.SIGTERM)
        with checkpointer.signals():
            assert signal.getsignal(signal.SIGTERM) is before

    def test_continue_run_needs_primed_engine(self):
        trace = get_workload("Theta-S4", SMOKE)
        from repro.experiments.runner import policy_for
        from repro.methods import make_selector
        from repro.windows import WindowPolicy

        engine = SchedulingEngine(
            trace.machine.make_cluster(), policy_for(trace),
            make_selector("Baseline", generations=1, population=4,
                          mutation=0.05, seed=1),
            WindowPolicy(size=SMOKE.window),
        )
        with pytest.raises(SchedulingError, match="primed"):
            engine.continue_run()


class TestResumeEquivalence:
    """The tentpole property: interrupted + resumed == uninterrupted."""

    @pytest.mark.parametrize("method", METHODS_SECTION4)
    def test_all_methods_wfp_site(self, tmp_path, method):
        trace = get_workload("Theta-S4", SMOKE)  # WFP base policy
        report = verify_resume(trace, method, SMOKE, seed=11,
                               workdir=str(tmp_path))
        assert report.cut_sim_time > 0

    @pytest.mark.parametrize("method", ["Baseline", "BBSched", "Weighted"])
    def test_fcfs_site(self, tmp_path, method):
        trace = get_workload("Cori-S2", SMOKE)  # FCFS base policy
        verify_resume(trace, method, SMOKE, seed=5, workdir=str(tmp_path))

    def test_with_faults_and_retry(self, tmp_path):
        trace = get_workload("Theta-S1", SMOKE)
        verify_resume(trace, "BBSched", SMOKE, seed=3,
                      faults=get_scenario("mild"), retry=RetryPolicy(),
                      workdir=str(tmp_path))

    def test_resume_rejects_wrong_workload(self, tmp_path):
        trace = get_workload("Theta-S4", SMOKE)
        config = CheckpointConfig(path=str(tmp_path / "w.ckpt"),
                                  every_hours=0.0, stop_after=20_000.0)
        with pytest.raises(SimulationInterrupted):
            run_one(trace, "Baseline", SMOKE, seed=11, checkpoint=config)
        other = get_workload("Theta-S1", SMOKE)
        with pytest.raises(CheckpointError, match="workload"):
            run_one(other, "Baseline", SMOKE, resume_from=str(tmp_path / "w.ckpt"))
        with pytest.raises(CheckpointError, match="method"):
            run_one(trace, "BBSched", SMOKE, resume_from=str(tmp_path / "w.ckpt"))

    def test_fingerprint_excludes_wall_clock(self, tmp_path):
        trace = get_workload("Theta-S4", SMOKE)
        a = run_one(trace, "Baseline", SMOKE, seed=11)
        fp = run_fingerprint(a)
        assert "mean_selector_time" not in json.dumps(fp)
        b = run_one(trace, "Baseline", SMOKE, seed=11)
        assert fingerprint_digest(a) == fingerprint_digest(b)

    def test_bad_stop_fraction(self, tmp_path):
        trace = get_workload("Theta-S4", SMOKE)
        with pytest.raises(CheckpointError, match="stop_fraction"):
            verify_resume(trace, "Baseline", SMOKE, stop_fraction=1.5,
                          workdir=str(tmp_path))


class TestLedger:
    def run_result(self, workload="Theta-S4", method="Baseline"):
        trace = get_workload(workload, SMOKE)
        return run_one(trace, method, SMOKE, seed=11)

    def test_round_trip(self, tmp_path):
        ledger = ResultsLedger(tmp_path / "grid.jsonl")
        result = self.run_result()
        ledger.append_result(result, scale="smoke", seed=11)
        view = ledger.load(scale="smoke")
        key = ("Theta-S4", "Baseline")
        assert key in view.results
        assert fingerprint_digest(view.results[key]) == fingerprint_digest(result)

    def test_scale_filtering(self, tmp_path):
        ledger = ResultsLedger(tmp_path / "grid.jsonl")
        ledger.append_result(self.run_result(), scale="smoke", seed=11)
        assert ledger.load(scale="default").results == {}
        assert len(ledger.load(scale="smoke").results) == 1

    def test_telemetry_filtering(self, tmp_path):
        ledger = ResultsLedger(tmp_path / "grid.jsonl")
        ledger.append_result(self.run_result(), scale="smoke", telemetry=False)
        assert ledger.load(scale="smoke", telemetry=True).results == {}

    def test_truncated_tail_tolerated(self, tmp_path):
        path = tmp_path / "grid.jsonl"
        ledger = ResultsLedger(path)
        ledger.append_result(self.run_result(), scale="smoke")
        ledger.append_result(self.run_result(method="BBSched"), scale="smoke")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 40])  # SIGKILL mid-append
        view = ledger.load(scale="smoke")
        assert view.dropped_tail == 1
        assert list(view.results) == [("Theta-S4", "Baseline")]

    def test_corrupt_middle_raises(self, tmp_path):
        path = tmp_path / "grid.jsonl"
        ledger = ResultsLedger(path)
        ledger.append_result(self.run_result(), scale="smoke")
        ledger.append_result(self.run_result(method="BBSched"), scale="smoke")
        lines = path.read_text().splitlines()
        lines[0] = lines[0][:-30]  # damage a non-final line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="corrupt record"):
            ledger.load()

    def test_failure_records_kept_but_not_complete(self, tmp_path):
        ledger = ResultsLedger(tmp_path / "grid.jsonl")
        ledger.append_failure(workload="Theta-S4", method="BBSched",
                              scale="smoke", error="boom", attempts=3,
                              traceback_text="Traceback ...")
        view = ledger.load(scale="smoke")
        assert view.results == {}
        assert view.failures[0]["error"] == "boom"

    def test_missing_ledger_is_empty(self, tmp_path):
        view = ResultsLedger(tmp_path / "none.jsonl").load()
        assert view.results == {} and view.failures == []


class TestGridResume:
    def test_resume_skips_completed_cells(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        ledger = tmp_path / "grid.jsonl"
        partial = run_grid(SMOKE, workloads=["Theta-S4"],
                           methods=["Baseline"], workers=1, ledger=ledger)
        assert len(partial) == 1
        calls = []
        import repro.experiments.grid as grid_mod
        original = grid_mod.run_spec

        def counting_cell(spec, **kwargs):
            calls.append((spec.workload, spec.method))
            return original(spec, **kwargs)

        monkeypatch.setattr(grid_mod, "run_spec", counting_cell)
        full = run_grid(SMOKE, workloads=["Theta-S4"],
                        methods=["Baseline", "BBSched"], workers=1,
                        ledger=ledger, resume=True)
        assert len(full) == 2
        assert calls == [("Theta-S4", "BBSched")]  # Baseline came from the ledger

    def test_ledgered_equals_memoised(self, tmp_path):
        ledger = tmp_path / "grid.jsonl"
        a = run_grid(SMOKE, workloads=["Theta-S4"],
                     methods=["Baseline", "BBSched"], workers=1, ledger=ledger)
        b = run_grid(SMOKE, workloads=["Theta-S4"],
                     methods=["Baseline", "BBSched"], workers=1)
        for key in b:
            assert fingerprint_digest(a[key]) == fingerprint_digest(b[key])

    def test_fresh_run_truncates_stale_ledger(self, tmp_path):
        ledger = ResultsLedger(tmp_path / "grid.jsonl")
        ledger.append_failure(workload="X", method="Y", scale="smoke",
                              error="stale", attempts=1)
        run_grid(SMOKE, workloads=["Theta-S4"], methods=["Baseline"],
                 workers=1, ledger=ledger.path, resume=False)
        view = ledger.load(scale="smoke")
        assert view.failures == []
        assert len(view.results) == 1


class TestValidatorTool:
    def validate(self, *argv):
        return subprocess.run(
            [sys.executable, str(VALIDATOR), *map(str, argv)],
            capture_output=True, text=True)

    def make_checkpoint(self, tmp_path):
        trace = get_workload("Theta-S4", SMOKE)
        config = CheckpointConfig(path=str(tmp_path / "v.ckpt"),
                                  every_hours=0.0, stop_after=20_000.0)
        with pytest.raises(SimulationInterrupted):
            run_one(trace, "Baseline", SMOKE, seed=11, checkpoint=config)
        return tmp_path / "v.ckpt"

    def test_valid_checkpoint_passes(self, tmp_path):
        path = self.make_checkpoint(tmp_path)
        proc = self.validate(path, "--expect-workload", "Theta-S4",
                             "--expect-method", "Baseline")
        assert proc.returncode == 0, proc.stderr
        assert "OK" in proc.stdout

    def test_wrong_method_fails(self, tmp_path):
        path = self.make_checkpoint(tmp_path)
        proc = self.validate(path, "--expect-method", "BBSched")
        assert proc.returncode == 1
        assert "INVALID" in proc.stderr

    def test_truncation_fails(self, tmp_path):
        path = self.make_checkpoint(tmp_path)
        path.write_bytes(path.read_bytes()[:-200])
        proc = self.validate(path)
        assert proc.returncode == 1
        assert "truncated" in proc.stderr

    def test_ledger_passes(self, tmp_path):
        ledger = ResultsLedger(tmp_path / "grid.jsonl")
        trace = get_workload("Theta-S4", SMOKE)
        ledger.append_result(run_one(trace, "Baseline", SMOKE, seed=11),
                             scale="smoke")
        proc = self.validate(tmp_path / "grid.jsonl", "--min-cells", "1")
        assert proc.returncode == 0, proc.stderr
        assert "1 cells" in proc.stdout

    def test_empty_min_cells_fails(self, tmp_path):
        ledger = ResultsLedger(tmp_path / "grid.jsonl")
        ledger.append_failure(workload="W", method="M", scale="smoke",
                              error="x", attempts=1)
        proc = self.validate(tmp_path / "grid.jsonl", "--min-cells", "1")
        assert proc.returncode == 1


class TestRepairTailIdempotency:
    """repair_tail must converge: a second pass is a byte-stable no-op."""

    def make_journal(self, tmp_path):
        from repro.checkpoint.journal import JsonlJournal

        return JsonlJournal(tmp_path / "j.jsonl")

    def test_repaired_journal_is_fixed_point(self, tmp_path):
        journal = self.make_journal(tmp_path)
        journal.append({"kind": "a", "n": 1})
        journal.append({"kind": "b", "n": 2})
        path = journal.path
        path.write_bytes(path.read_bytes()[:-9])  # tear the final record
        assert journal.repair_tail() > 0
        after_first = path.read_bytes()
        assert journal.repair_tail() == 0
        assert path.read_bytes() == after_first
        assert journal.repair_tail() == 0  # and again
        assert path.read_bytes() == after_first

    def test_torn_tail_is_the_header_line(self, tmp_path):
        """A journal whose ONLY line is torn repairs to empty, then holds."""
        journal = self.make_journal(tmp_path)
        journal.append({"kind": "header", "version": 1})
        path = journal.path
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])  # tear the first == last line
        assert journal.repair_tail() > 0
        assert path.read_bytes() == b""
        assert journal.repair_tail() == 0  # empty file: byte-stable no-op
        assert path.read_bytes() == b""

    def test_missing_terminator_is_reterminated_once(self, tmp_path):
        journal = self.make_journal(tmp_path)
        journal.append({"kind": "a", "n": 1})
        path = journal.path
        path.write_bytes(path.read_bytes()[:-1])  # newline only is torn
        assert journal.repair_tail() == 0  # record intact: re-terminate
        repaired = path.read_bytes()
        assert repaired.endswith(b"\n")
        assert json.loads(repaired.decode()) == {"kind": "a", "n": 1}
        assert journal.repair_tail() == 0
        assert path.read_bytes() == repaired

    def test_intact_journal_untouched(self, tmp_path):
        journal = self.make_journal(tmp_path)
        journal.append({"kind": "a"})
        journal.append({"kind": "b"})
        before = journal.path.read_bytes()
        assert journal.repair_tail() == 0
        assert journal.path.read_bytes() == before

    def test_parse_rejection_counts_as_torn(self, tmp_path):
        from repro.errors import CheckpointError

        journal = self.make_journal(tmp_path)
        journal.append({"kind": "good"})
        journal.append({"kind": "bad"})

        def parse(record):
            if record.get("kind") == "bad":
                raise CheckpointError("schema violation")
            return record

        assert journal.repair_tail(parse) > 0  # bad final line cut
        after = journal.path.read_bytes()
        assert journal.repair_tail(parse) == 0
        assert journal.path.read_bytes() == after
        assert json.loads(after.decode()) == {"kind": "good"}
