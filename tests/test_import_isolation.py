"""Importing one layer must not pull in another it does not use.

``repro grid`` shares its process pool with the service daemon, but
importing the grid must not pull in ``repro.service`` or ``asyncio``:
every grid run, and every pool worker it forks, would pay for them.
Service workers generate their own traces, so importing the service
must not load ``multiprocessing.shared_memory`` either.
Checked in a fresh interpreter, since this test process has long
imported all of these.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _loaded_after_import(module, candidates):
    """Which of ``candidates`` a fresh ``import module`` brings in."""
    code = (f"import sys, {module}\n"
            f"print(sorted(m for m in {tuple(candidates)!r} "
            "if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip()


def test_grid_import_pulls_in_no_service_or_asyncio():
    assert _loaded_after_import(
        "repro.experiments.grid", ("asyncio", "repro.service")) == "[]"


def test_service_import_pulls_in_no_shared_memory():
    assert _loaded_after_import(
        "repro.service", ("multiprocessing.shared_memory",)) == "[]"
