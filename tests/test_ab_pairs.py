"""Statistics of the paired A/B runner (tools/ab_pairs.py) on synthetic pairs."""

import importlib.util
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
