"""Window-solver quality: how far the paper's GA lands from the exact optimum.

Runs BBSched end-to-end on Cori-S1 and Theta-S4 with the
:class:`~repro.solvers.gap.OptimalityYardstick` riding along
(``run_one(..., yardstick=True)``), which re-solves every selection pass
exactly and histograms the relative gap, and writes the gaps to
``results/BENCH_solvers.json`` and ``results/BENCH_solvers.txt``.
Solver speed is perfbench's to measure, not this bench's.

Scale: ``REPRO_SCALE`` (smoke/default/paper), like every benchmark here.
"""

from __future__ import annotations

import json

from repro.experiments import get_workload, run_one

from conftest import RESULTS_DIR, run_once


def _gap_run(workload, scale):
    trace = get_workload(workload, scale)
    result = run_one(trace, "BBSched", scale, seed=0, yardstick=True)
    assert result.optimality_gap is not None, "yardstick recorded no gaps"
    return result


def test_bench_solver_gap(benchmark, scale, save_result):
    gaps = {}
    gap_cori = run_once(benchmark, _gap_run, "Cori-S1", scale)
    gaps["Cori-S1"] = gap_cori.optimality_gap
    gaps["Theta-S4"] = _gap_run("Theta-S4", scale).optimality_gap

    doc = {"scale": scale.name, "optimality_gap": gaps}
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_solvers.json").write_text(json.dumps(doc, indent=2) + "\n")

    lines = [f"GA-vs-exact optimality gap of BBSched (scale={scale.name})", ""]
    for workload, g in gaps.items():
        lines.append(
            f"  {workload}: GA-vs-MILP gap mean {100 * g['mean']:.4f}%  "
            f"p95 {100 * g['p95']:.4f}%  max {100 * g['max']:.4f}%  "
            f"over {g['count']:.0f} passes ({g['skipped']:.0f} skipped)"
        )
    save_result("BENCH_solvers", "\n".join(lines))

    # Every counted pass is one the yardstick solved exactly.
    for g in gaps.values():
        assert g["count"] > 0 and g["mean"] >= 0.0
