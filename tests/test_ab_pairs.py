"""The paired A/B runner (tools/ab_pairs.py) on synthetic pairs and stubbed runs."""

import importlib.util
import json
import subprocess
from pathlib import Path

import numpy as np
import pytest

REPO = Path(__file__).resolve().parent.parent


def _load():
    """Import tools/ab_pairs.py as a module (tools/ is not a package)."""
    spec = importlib.util.spec_from_file_location("ab_pairs", REPO / "tools" / "ab_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab = _load()


def _pairs(effect, n=10, seed=3):
    """Base times around 2.5 s with host drift shared by both sides of a
    pair, and the change ``effect`` (relative) away plus its own noise."""
    rng = np.random.default_rng(seed)
    drift = rng.normal(0.0, 0.1, size=n)
    base = 2.5 + drift + rng.normal(0.0, 0.01, size=n)
    change = (2.5 + drift) * (1 + effect) + rng.normal(0.0, 0.01, size=n)
    return base.tolist(), change.tolist()


class TestSummarize:
    def test_known_gain_is_reported(self):
        base, change = _pairs(-0.06)
        s = ab.summarize(base, change, "lower")
        assert s["n"] == 10 and s["won"] == 10
        assert s["effect"] is not None
        lo, hi = s["ci"]
        assert lo <= s["effect"] <= hi < 0
        assert s["effect"] / s["base_median"] == pytest.approx(-0.06, abs=0.02)
        assert "no effect" not in ab.format_row("run_wall_s", "s", s)

    def test_direction_follows_better(self):
        base, change = _pairs(+0.06)
        assert ab.summarize(base, change, "higher")["won"] == 10
        assert ab.summarize(base, change, "lower")["won"] == 0

    def test_no_effect_prints_no_number(self):
        # Paired differences symmetric about zero: the interval spans it.
        base = [2.5, 2.6, 2.4, 2.7, 2.5, 2.3, 2.6, 2.5, 2.4, 2.6]
        diffs = [-0.03, 0.03, -0.02, 0.02, -0.01, 0.01, -0.04, 0.04, 0.0, 0.0]
        change = [b + d for b, d in zip(base, diffs)]
        s = ab.summarize(base, change, "lower")
        assert s["effect"] is None and s["ci"] is None
        assert s["won"] == 4
        row = ab.format_row("run_wall_s", "s", s)
        assert row.endswith("no effect") and "%" not in row

    def test_noise_alone_is_mostly_no_effect(self):
        # A 95% interval reports a number on about 5% of effect-free sets.
        reported = sum(ab.summarize(*_pairs(0.0, seed=s), "lower")["effect"] is not None
                       for s in range(200))
        assert reported <= 0.08 * 200

    def test_identical_counts_are_no_effect(self):
        s = ab.summarize([403.0] * 5, [403.0] * 5, "lower")
        assert s["effect"] is None and s["won"] == 0

    def test_medians_and_iqr(self):
        s = ab.summarize([1.0, 2.0, 3.0, 4.0, 5.0], [2.0, 3.0, 4.0, 5.0, 6.0], "lower")
        assert s["base_median"] == 3.0 and s["change_median"] == 4.0
        assert s["base_iqr"] == (2.0, 4.0) and s["change_iqr"] == (3.0, 5.0)
        assert s["effect"] == 1.0 and s["ci"] == (1.0, 1.0)

    def test_bootstrap_is_deterministic(self):
        diffs = np.random.default_rng(0).normal(0.1, 0.05, size=10)
        assert ab.paired_bootstrap_ci(diffs) == ab.paired_bootstrap_ci(diffs)

    def test_mismatched_sides_rejected(self):
        with pytest.raises(ValueError):
            ab.summarize([1.0, 2.0], [1.0], "lower")


def _run(rss, attempted, wall=2.5):
    """A stubbed perfbench run: its metrics and its operation count."""
    return {"peak_rss_mb": rss, "run_wall_s": wall}, attempted


SPEC = {"peak_rss_mb": ("MB", "lower"), "run_wall_s": ("s", "lower")}


class TestOperationCounts:
    def test_run_once_reads_attempted(self, monkeypatch):
        line = json.dumps({"correct": True, "attempted": 7, "failed": 0,
                           "metrics": {"run_wall_s": {"value": 2.5, "unit": "s"}}})
        monkeypatch.setattr(ab.subprocess, "run", lambda *a, **k: subprocess.CompletedProcess(
            a[0], 0, stdout="notes\n" + line + "\n", stderr=""))
        assert ab.run_once("/nowhere", "theta-bbsched", 1.0) == ({"run_wall_s": 2.5}, 7)

    def test_medians_printed_beside_peak_rss(self):
        runs = {"base": [_run(44.0, 6), _run(44.1, 6), _run(44.1, 8)],
                "change": [_run(44.2, 7), _run(44.2, 7), _run(44.3, 9)]}
        lines = ab.report(runs, SPEC)
        rss = next(line for line in lines if line.startswith("peak_rss_mb"))
        assert rss.endswith("(median operations: base 6, change 7)")
        wall = next(line for line in lines if line.startswith("run_wall_s"))
        assert "operations" not in wall

    def test_pairs_with_different_counts_are_flagged(self):
        runs = {"base": [_run(44.0, 6), _run(44.0, 6), _run(44.0, 6)],
                "change": [_run(44.0, 6), _run(44.1, 7), _run(44.0, 5)]}
        flags = [line for line in ab.report(runs, SPEC) if line.startswith("pair ")]
        assert flags == ["pair 2: operations differ (base 6, change 7)",
                         "pair 3: operations differ (base 6, change 5)"]

    def test_equal_counts_flag_nothing(self):
        runs = {"base": [_run(44.0, 6)] * 3, "change": [_run(44.1, 6)] * 3}
        lines = ab.report(runs, SPEC)
        assert len(lines) == 2 and not any(line.startswith("pair ") for line in lines)


BENCH = ab.load_benchmark(str(REPO))


def _stub_perfbench(monkeypatch, notes, metrics, seen=None):
    """Make ``subprocess.run`` answer like perfbench with these notes."""
    lines = ["notes " + json.dumps(notes), "env {}",
             json.dumps({"correct": True, "attempted": 4, "failed": 0,
                         "metrics": {n: {"value": v, "unit": ""} for n, v in metrics.items()}})]

    def fake(cmd, **kwargs):
        if seen is not None:
            seen.append(cmd)
        return subprocess.CompletedProcess(cmd, 0, stdout="\n".join(lines) + "\n", stderr="")

    monkeypatch.setattr(ab.subprocess, "run", fake)


TRACED = {"run_wall_s": 4.8, "backfill.plan_s": 2.0, "windows.extract_s": 0.5,
          "simulator.schedule_pass.count": 61776.0, "backfill.started_per_plan": 0.25,
          "parallel.busy_frac": 0.9, "telemetry.overhead_frac": 0.17}


class TestTracedMode:
    def test_layer_seconds_are_the_per_layer_seconds_metrics(self):
        names = ab.layer_seconds(BENCH)
        assert {"backfill.plan_s", "windows.extract_s", "service.queue_wait_s"} <= names
        assert not names & {"run_wall_s", "latency_p50_s", "setup_s",
                            "simulator.schedule_pass.count", "backfill.started_per_plan",
                            "telemetry.overhead_frac"}

    def test_only_layer_seconds_are_scaled(self):
        scaled = ab.scale_layers(TRACED, 0.8, ab.layer_seconds(BENCH))
        assert scaled["backfill.plan_s"] == pytest.approx(1.6)
        assert scaled["windows.extract_s"] == pytest.approx(0.4)
        for name in ("run_wall_s", "simulator.schedule_pass.count",
                     "backfill.started_per_plan", "parallel.busy_frac",
                     "telemetry.overhead_frac"):
            assert scaled[name] == TRACED[name]

    def test_no_host_speed_leaves_every_metric(self):
        assert ab.scale_layers(TRACED, None, ab.layer_seconds(BENCH)) == TRACED

    def test_traced_run_is_scaled_by_its_notes(self, monkeypatch):
        seen = []
        _stub_perfbench(monkeypatch, {"host_speed": 1.25, "grids": 2}, TRACED, seen)
        metrics, attempted = ab.run_once("/nowhere", "grid-greedy", 1.0, True,
                                         ab.layer_seconds(BENCH))
        assert seen[0][-2:] == ["--trace", "1"] and attempted == 4
        assert metrics["backfill.plan_s"] == pytest.approx(2.5)
        assert metrics["run_wall_s"] == 4.8

    def test_service_burst_stays_unscaled(self, monkeypatch):
        # Its notes carry no host speed: the service has no gauge.
        layers = {"service.queue_wait_s": 0.3, "service.daemon.retries": 1.0}
        _stub_perfbench(monkeypatch, {"bursts": 3, "requests": 96}, layers)
        metrics, _ = ab.run_once("/nowhere", "service-burst", 1.0, True,
                                 ab.layer_seconds(BENCH))
        assert metrics == layers

    def test_untraced_run_scales_nothing(self, monkeypatch):
        seen = []
        _stub_perfbench(monkeypatch, {"host_speed": 1.25}, {"run_wall_s": 4.8}, seen)
        assert ab.run_once("/nowhere", "grid-greedy", 1.0) == ({"run_wall_s": 4.8}, 4)
        assert seen[0][-2:] == ["--trace", "0"]

    def test_overhead_printed_beside_the_table(self):
        runs = {"base": [(dict(TRACED, **{"telemetry.overhead_frac": f}), 4)
                         for f in (0.15, 0.17, 0.19)],
                "change": [(dict(TRACED, **{"telemetry.overhead_frac": f}), 4)
                           for f in (0.20, 0.22, 0.30)]}
        lines = ab.report(runs, ab.directions(BENCH))
        assert lines[-1] == ("tracing overhead (telemetry.overhead_frac, median): "
                             "base 0.17, change 0.22; the layer seconds include it")

    def test_untraced_report_has_no_overhead_line(self):
        runs = {"base": [_run(44.0, 6)] * 3, "change": [_run(44.1, 6)] * 3}
        assert not any("overhead" in line for line in ab.report(runs, SPEC))
