"""The grid imports none of the service stack.

``repro grid`` shares its process pool with the service daemon, but
importing the grid must not pull in ``repro.service`` or ``asyncio``:
every grid run, and every pool worker it forks, would pay for them.
Checked in a fresh interpreter, since this test process has long
imported both.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_grid_import_pulls_in_no_service_or_asyncio():
    code = ("import sys, repro.experiments.grid\n"
            "print(sorted(m for m in ('asyncio', 'repro.service') "
            "if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
