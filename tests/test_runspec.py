"""RunSpec: one description of a run from the CLI to the grid and ledger.

The grid, the results ledger, the service and checkpoints all identify a
run by :meth:`RunSpec.digest`.  These tests pin what the digest covers,
that the grid runs exactly the spec it keys on (faults and watchdog
included), and that ledgers written before the digest existed still
resume without recomputation.
"""

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro.experiments.grid as grid_mod
from repro.checkpoint import CheckpointConfig, ResultsLedger, fingerprint_digest, read_header
from repro.errors import ConfigurationError, SimulationInterrupted
from repro.experiments import RunSpec, get_scale, get_workload, run_grid, run_one
from repro.experiments.grid import cell_seed
from repro.resilience import FaultScenario, get_scenario

SMOKE = get_scale("smoke")
HARSH = dataclasses.replace(SMOKE, faults=get_scenario("harsh"), watchdog_budget=0.5)
ROOT = Path(__file__).resolve().parent.parent
VALIDATOR = ROOT / "tools" / "validate_checkpoint.py"
#: Two smoke-scale Theta-S1 cells (Baseline, Bin_Packing) and one failure
#: record (Cori-S1 Baseline), written by the ledger code that predates
#: RunSpec: version-1 records with no ``spec`` field.
V1_LEDGER = ROOT / "tests" / "fixtures" / "ledger_v1_smoke.jsonl"
V1_DIGESTS = {
    ("Theta-S1", "Baseline"):
        "a1c715c6f36f61714c5714aab6f8fd9189764208756f28a398796fc5f9d4af6d",
    ("Theta-S1", "Bin_Packing"):
        "3acfe5a70f8a395d67fc61985782d9b127d3c5aeb55e6c14719615c52787e1a4",
}


class TestRunSpec:
    def test_none_overrides_resolve_to_the_scale(self):
        spec = RunSpec.create("Theta-S4", "BBSched", "smoke")
        assert (spec.scale, spec.window, spec.generations) == (
            "smoke", SMOKE.window, SMOKE.generations)
        assert spec.seed == cell_seed("Theta-S4", "BBSched")
        assert spec.solver == "ga"
        assert spec.faults is None and spec.watchdog_budget is None
        assert not spec.telemetry

    def test_resolved_and_explicit_specs_share_a_digest(self):
        explicit = RunSpec.create(
            "Theta-S4", "BBSched", SMOKE, seed=cell_seed("Theta-S4", "BBSched"),
            solver="ga", window=SMOKE.window, generations=SMOKE.generations)
        assert explicit == RunSpec.create("Theta-S4", "BBSched", "smoke")
        assert explicit.digest() == RunSpec.create("Theta-S4", "BBSched", "smoke").digest()

    def test_name_resolves_through_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert RunSpec.create("Cori-S1", "Baseline").scale == "smoke"

    @pytest.mark.parametrize("change", [
        {"seed": 7}, {"solver": "milp"}, {"window": 5}, {"generations": 3},
        {"faults": get_scenario("mild")}, {"watchdog_budget": 2.0},
        {"telemetry": True}, {"max_attempts": 3},
    ])
    def test_every_field_moves_the_digest(self, change):
        base = RunSpec.create("Theta-S4", "BBSched", "smoke")
        assert RunSpec.create("Theta-S4", "BBSched", "smoke", **change).digest() != base.digest()

    def test_unset_retry_budget_stays_out_of_the_json(self):
        spec = RunSpec.create("Cori-S1", "Baseline", HARSH)
        assert "max_attempts" not in spec.canonical_json()
        budgeted = dataclasses.replace(spec, max_attempts=1)
        assert '"max_attempts":1' in budgeted.canonical_json()
        assert RunSpec.from_dict(budgeted.as_dict()) == budgeted
        assert RunSpec.from_dict(spec.as_dict()) == spec

    def test_digest_is_sha256_of_the_canonical_json(self):
        import hashlib

        spec = RunSpec.create("Cori-S1", "Baseline", HARSH)
        text = spec.canonical_json()
        assert text == RunSpec.create("Cori-S1", "Baseline", HARSH).canonical_json()
        assert " " not in text and '"faults":{' in text
        assert spec.digest() == hashlib.sha256(text.encode()).hexdigest()

    def test_int_and_float_fault_knobs_are_one_scenario(self):
        a = RunSpec.create("Cori-S1", "Baseline", "smoke",
                           faults=FaultScenario(node_mtbf=3600, seed=3))
        b = RunSpec.create("Cori-S1", "Baseline", "smoke",
                           faults=FaultScenario(node_mtbf=3600.0, seed=3))
        assert a.digest() == b.digest()

    def test_unknown_scale_name_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="unknown scale"):
            RunSpec.create("Cori-S1", "Baseline", "nope")


class TestGridKeepsScale:
    """The grid runs the spec it is given, faults and watchdog included."""

    @pytest.fixture(scope="class")
    def harsh_cell(self):
        grid = run_grid(HARSH, workloads=("Theta-S1",), methods=("Baseline",),
                        workers=1)
        return grid[("Theta-S1", "Baseline")]

    def test_cell_carries_resilience(self, harsh_cell):
        assert harsh_cell.resilience is not None
        assert harsh_cell.resilience.node_failures > 0

    def test_cell_equals_run_one_of_the_same_spec(self, harsh_cell):
        direct = run_one(get_workload("Theta-S1", HARSH), "Baseline", HARSH,
                         seed=cell_seed("Theta-S1", "Baseline"))
        assert fingerprint_digest(harsh_cell) == fingerprint_digest(direct)

    def test_memo_is_keyed_on_specs_not_the_scale_name(self, harsh_cell):
        plain = run_grid(SMOKE, workloads=("Theta-S1",), methods=("Baseline",),
                         workers=1)[("Theta-S1", "Baseline")]
        again = run_grid(HARSH, workloads=("Theta-S1",), methods=("Baseline",),
                         workers=1)[("Theta-S1", "Baseline")]
        assert plain.resilience is None
        assert fingerprint_digest(plain) != fingerprint_digest(harsh_cell)
        assert again is harsh_cell

    def test_scale_field_a_spec_cannot_carry_is_refused(self):
        bigger = dataclasses.replace(SMOKE, n_jobs=SMOKE.n_jobs + 1)
        with pytest.raises(ConfigurationError, match="n_jobs"):
            run_grid(bigger, workloads=("Theta-S1",), methods=("Baseline",),
                     workers=1)


def _count_runs(monkeypatch):
    calls = []
    original = grid_mod.run_spec

    def counting(spec, **extra):
        calls.append(spec)
        return original(spec, **extra)

    monkeypatch.setattr(grid_mod, "run_spec", counting)
    return calls


class TestLedgerByDigest:
    def test_resume_with_faults_does_not_return_the_fault_free_cell(
            self, tmp_path, monkeypatch):
        ledger = tmp_path / "grid.jsonl"
        run_grid(SMOKE, workloads=("Theta-S1",), methods=("Baseline",),
                 workers=1, ledger=ledger)
        calls = _count_runs(monkeypatch)
        faulty = run_grid(HARSH, workloads=("Theta-S1",), methods=("Baseline",),
                          workers=1, ledger=ledger, resume=True)
        assert [(s.workload, s.method) for s in calls] == [("Theta-S1", "Baseline")]
        assert faulty[("Theta-S1", "Baseline")].resilience is not None
        # Both arms now sit in one ledger, each under its own digest.
        cells = ResultsLedger(ledger).load().cells
        assert set(cells) == {RunSpec.create("Theta-S1", "Baseline", SMOKE).digest(),
                              RunSpec.create("Theta-S1", "Baseline", HARSH).digest()}

    def test_resume_with_another_seed_does_not_return_the_other_arm(self, tmp_path):
        ledger = ResultsLedger(tmp_path / "grid.jsonl")
        other = RunSpec.create("Theta-S1", "Baseline", SMOKE, seed=99)
        result = grid_mod.run_spec(other)
        ledger.append_result(result, spec=other)
        cells = ledger.load().cells
        assert other.digest() in cells
        assert RunSpec.create("Theta-S1", "Baseline", SMOKE).digest() not in cells

    def test_record_keeps_the_version_one_fields(self, tmp_path):
        import json

        ledger = ResultsLedger(tmp_path / "grid.jsonl")
        spec = RunSpec.create("Theta-S1", "Baseline", HARSH)
        ledger.append_result(grid_mod.run_spec(spec), spec=spec)
        record = json.loads((tmp_path / "grid.jsonl").read_text())
        assert record["version"] == 1
        assert (record["workload"], record["method"], record["scale"],
                record["seed"], record["telemetry"]) == (
            "Theta-S1", "Baseline", "smoke", spec.seed, False)
        assert record["spec"] == spec.as_dict()


class TestVersionOneLedger:
    @pytest.fixture
    def ledger(self, tmp_path):
        path = tmp_path / "grid.jsonl"
        shutil.copyfile(V1_LEDGER, path)
        return path

    def test_loads_every_record(self, ledger):
        view = ResultsLedger(ledger).load()
        assert {k: fingerprint_digest(r) for k, r in view.results.items()} == V1_DIGESTS
        assert [(f["workload"], f["method"]) for f in view.failures] == [
            ("Cori-S1", "Baseline")]
        assert set(view.cells) == {
            RunSpec.create(w, m, SMOKE).digest() for w, m in V1_DIGESTS}

    def test_resume_recomputes_nothing(self, ledger, monkeypatch):
        calls = _count_runs(monkeypatch)
        grid = run_grid(SMOKE, workloads=("Theta-S1",),
                        methods=("Baseline", "Bin_Packing"), workers=1,
                        ledger=ledger, resume=True)
        assert calls == []
        assert {k: fingerprint_digest(r) for k, r in grid.items()} == V1_DIGESTS

    def test_fresh_cells_match_the_old_ones(self):
        grid = run_grid(SMOKE, workloads=("Theta-S1",),
                        methods=("Baseline", "Bin_Packing"), workers=1)
        assert {k: fingerprint_digest(r) for k, r in grid.items()} == V1_DIGESTS

    def test_validator_accepts_old_and_new_ledgers(self, ledger, tmp_path):
        new = ResultsLedger(tmp_path / "new.jsonl")
        spec = RunSpec.create("Theta-S1", "Baseline", HARSH)
        new.append_result(grid_mod.run_spec(spec), spec=spec)
        for path, cells in ((ledger, 2), (new.path, 1)):
            proc = subprocess.run(
                [sys.executable, str(VALIDATOR), str(path), "--kind", "ledger"],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            assert f"{cells} cells" in proc.stdout


class TestCheckpointMeta:
    def test_manifest_meta_carries_the_spec_digest(self, tmp_path):
        trace = get_workload("Theta-S4", SMOKE)
        config = CheckpointConfig(path=str(tmp_path / "r.ckpt"),
                                  every_hours=0.0, stop_after=20_000.0)
        with pytest.raises(SimulationInterrupted):
            run_one(trace, "Baseline", SMOKE, seed=11, checkpoint=config)
        meta = read_header(tmp_path / "r.ckpt")["manifest"]["meta"]
        expected = RunSpec.create("Theta-S4", "Baseline", SMOKE, seed=11)
        assert meta["spec_sha256"] == expected.digest()

    def test_spec_run_writes_the_same_digest(self, tmp_path):
        spec = RunSpec.create("Theta-S4", "Baseline", HARSH, seed=11)
        config = CheckpointConfig(path=str(tmp_path / "r.ckpt"),
                                  every_hours=0.0, stop_after=20_000.0)
        with pytest.raises(SimulationInterrupted):
            grid_mod.run_spec(spec, checkpoint=config)
        meta = read_header(tmp_path / "r.ckpt")["manifest"]["meta"]
        assert meta["spec_sha256"] == spec.digest()

    @staticmethod
    def _simulate_digest(tmp_path, *extra):
        from repro.cli import main

        path = tmp_path / f"r{len(list(tmp_path.iterdir()))}.ckpt"
        assert main(["simulate", "Theta-S4", "Baseline", "--scale", "smoke",
                     "--faults", "harsh", "--checkpoint", str(path),
                     "--checkpoint-every", "1", *extra]) == 0
        return read_header(path)["manifest"]["meta"]["spec_sha256"]

    def test_retry_budget_moves_the_checkpoint_digest(self, tmp_path, capsys):
        one = self._simulate_digest(tmp_path, "--max-attempts", "1")
        three = self._simulate_digest(tmp_path, "--max-attempts", "3")
        assert one != three
        # Left unset, the budget stays out of the spec and its digest.
        unset = self._simulate_digest(tmp_path)
        expected = RunSpec.create("Theta-S4", "Baseline", "smoke", seed=0,
                                  faults=get_scenario("harsh"))
        assert unset == expected.digest() and unset not in (one, three)
