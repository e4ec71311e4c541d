"""Window-solver benchmark: solve-time distributions and the GA-vs-MILP gap.

Two questions, answered in ``results/BENCH_solvers.json``:

1. **Solve time** — per-solver wall-clock distributions over real trace
   windows (chunks of the Cori-S1 workload against 60%-free capacity),
   at three widths: a small window every solver can take (w=10, including
   exhaustive enumeration), the session scale's window, and w=30 — past
   the exhaustive solver's 2^w wall, where only the MILP solver still
   gives exact answers.  The MILP solver is one dependency-free solver
   (a node-total DP plus branch-and-bound), so every exact cell measures
   that code alone.

2. **Optimality gap** — how far the paper's GA lands from the exact
   optimum, measured by running BBSched end-to-end on Cori-S1 and
   Theta-S4 with the :class:`~repro.solvers.gap.OptimalityYardstick`
   riding along (``run_one(..., yardstick=True)``), which re-solves every
   selection pass exactly and histograms the relative gap.

Scale: ``REPRO_SCALE`` (smoke/default/paper), like every benchmark here.
"""

from __future__ import annotations

import json
import time

import numpy as np

from repro.core.problem import SelectionProblem
from repro.experiments import get_scale, get_workload, run_one
from repro.solvers import (
    ExhaustiveWindowSolver,
    GAWindowSolver,
    MILPWindowSolver,
    ScalarGAWindowSolver,
)

from conftest import RESULTS_DIR, run_once

#: Fraction of machine capacity presented as free to each window problem
#: (a busy-but-not-full machine, the interesting selection regime).
CAP_FRAC = 0.6

#: Trace windows measured per (width, solver) cell.
N_WINDOWS = 8

#: Unit-cost scalarization used for all scalar solves.
COEFFS = (1.0, 1.0)


def _problems(scale, w, n=N_WINDOWS):
    """Window problems cut from consecutive Cori-S1 trace job chunks."""
    trace = get_workload("Cori-S1", scale)
    jobs = trace.fresh_jobs()
    machine = trace.machine
    out = []
    for i in range(n):
        chunk = jobs[i * w:(i + 1) * w]
        if len(chunk) < w:
            break
        out.append(SelectionProblem.from_window(
            chunk, CAP_FRAC * machine.nodes, CAP_FRAC * machine.schedulable_bb
        ))
    return out


def _dist(samples):
    arr = np.asarray(samples, dtype=float)
    return {
        "n": int(arr.size),
        "mean_s": float(arr.mean()),
        "min_s": float(arr.min()),
        "max_s": float(arr.max()),
        "p95_s": float(np.percentile(arr, 95.0)),
    }


def _time_solver(solver, problems, mode):
    samples = []
    for k, problem in enumerate(problems):
        t0 = time.perf_counter()
        if mode == "front":
            solver.solve(problem, seed=k)
        else:
            solver.solve_scalar(problem, COEFFS, seed=k)
        samples.append(time.perf_counter() - t0)
    return _dist(samples)


def _ga_solvers(scale):
    knobs = dict(generations=scale.generations, population=scale.population,
                 mutation=scale.mutation)
    return GAWindowSolver(**knobs), ScalarGAWindowSolver(**knobs)


def _solve_times(scale):
    ga, scalar = _ga_solvers(scale)
    milp = MILPWindowSolver()
    exhaustive = ExhaustiveWindowSolver()
    section = {}

    small = _problems(scale, 10)
    section["w10"] = {
        "ga_front": _time_solver(ga, small, "front"),
        "scalar": _time_solver(scalar, small, "scalar"),
        "milp_front": _time_solver(milp, small, "front"),
        "milp_scalar": _time_solver(milp, small, "scalar"),
        "exhaustive_front": _time_solver(exhaustive, small, "front"),
    }

    if scale.window != 10:
        mid = _problems(scale, scale.window)
        section[f"w{scale.window}"] = {
            "ga_front": _time_solver(ga, mid, "front"),
            "scalar": _time_solver(scalar, mid, "scalar"),
            "milp_front": _time_solver(milp, mid, "front"),
            "milp_scalar": _time_solver(milp, mid, "scalar"),
        }

    # Past the exhaustive wall: w=30 > MAX_EXHAUSTIVE_W.
    wide = _problems(scale, 30, n=4)
    section["w30"] = {
        "milp_scalar": _time_solver(milp, wide, "scalar"),
        "milp_front": _time_solver(milp, wide, "front"),
    }
    section["milp_stats"] = dict(milp.stats)
    return section


def _gap_run(workload, scale):
    trace = get_workload(workload, scale)
    result = run_one(trace, "BBSched", scale, seed=0, yardstick=True)
    assert result.optimality_gap is not None, "yardstick recorded no gaps"
    return result


def test_bench_solver_times_and_gap(benchmark, scale, save_result):
    solve_times = _solve_times(scale)

    gaps = {}
    gap_cori = run_once(benchmark, _gap_run, "Cori-S1", scale)
    gaps["Cori-S1"] = gap_cori.optimality_gap
    gaps["Theta-S4"] = _gap_run("Theta-S4", scale).optimality_gap

    doc = {
        "scale": scale.name,
        "cap_frac": CAP_FRAC,
        "coeffs": list(COEFFS),
        "solve_times": solve_times,
        "optimality_gap": gaps,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_solvers.json").write_text(json.dumps(doc, indent=2) + "\n")

    lines = [f"Window-solver benchmark (scale={scale.name})", ""]
    for width, cells in solve_times.items():
        if width == "milp_stats":
            continue
        lines.append(f"  {width}:")
        for name, dist in cells.items():
            lines.append(
                f"    {name:<18} mean {dist['mean_s'] * 1e3:9.2f} ms   "
                f"max {dist['max_s'] * 1e3:9.2f} ms   (n={dist['n']})"
            )
    lines.append("")
    for workload, g in gaps.items():
        lines.append(
            f"  {workload}: GA-vs-MILP gap mean {100 * g['mean']:.4f}%  "
            f"p95 {100 * g['p95']:.4f}%  max {100 * g['max']:.4f}%  "
            f"over {g['count']:.0f} passes ({g['skipped']:.0f} skipped)"
        )
    save_result("BENCH_solvers", "\n".join(lines))

    # Sanity floor, not a perf assertion: exact answers must have arrived.
    assert solve_times["milp_stats"]["solves"] > 0
    for g in gaps.values():
        assert g["count"] > 0 and g["mean"] >= 0.0
