"""The repo benchmark: one workload per run, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload theta-bbsched --seed 0 --seconds 35 --trace 0

``--trace 0`` prints every end-to-end metric of BENCHMARK.json, measured
with tracing off; ``--trace 1`` prints every per-layer metric from traced
operations.  The last line of standard output is the result; the exit
code is 0 only when every correctness check passed.  See README.md in
this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from common import ROOT, environment, emit, require_program


def metric_spec(trace: bool):
    """Metric name -> unit, from BENCHMARK.json (the single list of names)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("theta-bbsched", "grid-greedy", "service-burst"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_program()
    spec = metric_spec(bool(args.trace))
    env = environment()
    if args.workload == "service-burst":
        import serving
        run = serving.service_burst
    else:
        import batch
        run = batch.theta_bbsched if args.workload == "theta-bbsched" else batch.grid_greedy
    outcome = run(args.seed, args.seconds, bool(args.trace))
    if args.trace:
        # Layers a workload does not exercise did no work in it.
        for name in spec:
            outcome.metrics.setdefault(name, 0.0)
    return 0 if emit(outcome, spec, env) else 1


if __name__ == "__main__":
    sys.exit(main())
