"""Regenerate pins.json: the result digests the batch workloads must match.

Run from the root of a checkout, at a commit whose simulation results
are known good::

    python3 perfbench/pin.py

A digest is ``repro.checkpoint.verify.fingerprint_digest`` of a
``RunResult``: everything the simulation decides, no wall-clock fields.
"""

from __future__ import annotations

import json
import os
import sys

from common import WORK, require_program

import batch


def main() -> int:
    require_program()
    from repro.checkpoint.verify import fingerprint_digest
    from repro.experiments.config import get_scale
    from repro.experiments.grid import run_grid
    from repro.experiments.runner import run_one
    from repro.experiments.workloads import get_workload

    workload, method, scale_name = batch.THETA
    scale = get_scale(scale_name)
    trace = get_workload(workload, scale)
    theta = {f"{workload}/{method}": fingerprint_digest(run_one(trace, method, scale))}
    os.makedirs(WORK, exist_ok=True)
    ledger = os.path.join(WORK, "pin-ledger.jsonl")
    results = run_grid(get_scale(batch.GRID_SCALE), workloads=batch.GRID_WORKLOADS,
                       methods=batch.GRID_METHODS, workers=batch.GRID_WORKERS,
                       ledger=ledger)
    os.remove(ledger)
    grid = {f"{w}/{m}": fingerprint_digest(r) for (w, m), r in sorted(results.items())}
    with open(batch.PINS, "w") as fh:
        json.dump({"theta-bbsched": theta, "grid-greedy": grid}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {batch.PINS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
