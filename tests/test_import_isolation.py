"""Importing one layer must not pull in another it does not use.

``repro grid`` shares its process pool with the service daemon, but
importing the grid must not pull in ``repro.service`` or ``asyncio``:
every grid run, and every pool worker it forks, would pay for them.
Service workers generate their own traces, so importing the service
must not load ``multiprocessing.shared_memory`` either.  The exact
window solver runs on numpy alone, so solving with it must not load
scipy even where scipy is installed.
Checked in a fresh interpreter, since this test process has long
imported all of these.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _loaded_after(code, candidates):
    """Which of ``candidates`` a fresh interpreter running ``code`` loads."""
    code = (f"import sys\n{code}\n"
            f"print(sorted(m for m in {tuple(candidates)!r} "
            "if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip()


def _loaded_after_import(module, candidates):
    """Which of ``candidates`` a fresh ``import module`` brings in."""
    return _loaded_after(f"import {module}", candidates)


def test_grid_import_pulls_in_no_service_or_asyncio():
    assert _loaded_after_import(
        "repro.experiments.grid", ("asyncio", "repro.service")) == "[]"


def test_service_import_pulls_in_no_shared_memory():
    assert _loaded_after_import(
        "repro.service", ("multiprocessing.shared_memory",)) == "[]"


def test_milp_solves_without_loading_scipy():
    # The front sweep on integral node counts, then a scalar solve on
    # fractional ones, which skips the level DP for one free 0/1 program.
    code = (
        "import numpy as np\n"
        "from repro.core.problem import SelectionProblem\n"
        "from repro.solvers import MILPWindowSolver\n"
        "rng = np.random.default_rng(0)\n"
        "nodes = rng.integers(1, 9, size=(10, 1)).astype(float)\n"
        "whole = SelectionProblem(np.hstack([nodes, rng.random((10, 1))]), [20.0, 3.0])\n"
        "frac = SelectionProblem(rng.random((10, 2)) * 10.0 + 0.1, [25.0, 25.0])\n"
        "solver = MILPWindowSolver()\n"
        "assert len(solver.solve(whole)) >= 1\n"
        "solver.solve_scalar(frac, (1.0, 1.0))\n"
        "assert solver.stats['solves'] > 0"
    )
    assert _loaded_after(code, ("scipy",)) == "[]"
