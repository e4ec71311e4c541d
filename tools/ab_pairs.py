#!/usr/bin/env python3
"""Paired A/B runs of the repo benchmark: a base ref against this checkout.

Checks the base ref out as a temporary ``git worktree`` (removed on
exit), then runs ``perfbench/run.py`` ``--pairs`` times on each side,
alternating which side goes first.  Every run is the benchmark's own:
``--seed 0 --trace 0`` and the ``run_seconds`` of the checkout's
``BENCHMARK.json``.  For every metric both sides report
it prints the median and interquartile range of each side, the pairs the
checkout won, and the median paired difference with a bootstrap
confidence interval.  When that interval spans zero it prints
"no effect" instead of a number.  Beside ``peak_rss_mb``, which grows
with the simulations one process runs, it prints the median number of
operations each side attempted, and it flags every pair whose two
counts differ.  Run ten pairs or more: with five,
every set whose differences share a sign (one in sixteen when there is
no effect) yields an interval that misses zero.

``--trace`` runs perfbench's ``--trace 1`` instead, which reports the
per-layer metrics in place of the end-to-end ones.  A traced layer time
is raw wall seconds, while the end-to-end times are scaled to a
reference host speed, so each per-layer seconds metric is multiplied by
its run's ``host_speed`` (the ``notes`` line).  Counts and
ratios are left as they are, and so are runs that report no host speed
(``service-burst`` has no gauge).  Beside the table it prints
``telemetry.overhead_frac``, the share by which tracing slowed the
traced operations: the layer times include it.

Usage, from anywhere inside the checkout::

    python tools/ab_pairs.py --base HEAD~1 --workload theta-bbsched \\
        [--pairs 10] [--trace]

Metric directions ("lower" or "higher" is better) come from the
checkout's ``BENCHMARK.json``.  A run that exits non-zero or reports
``"correct": false`` stops the comparison with exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from typing import Collection, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def paired_bootstrap_ci(
    diffs: Sequence[float], level: float = 0.95, n_boot: int = 10_000, seed: int = 0
) -> Tuple[float, float]:
    """Percentile bootstrap interval of the median paired difference:
    resample the pairs with replacement ``n_boot`` times."""
    d = np.asarray(diffs, dtype=float)
    idx = np.random.default_rng(seed).integers(0, d.size, size=(n_boot, d.size))
    medians = np.median(d[idx], axis=1)
    lo, hi = np.quantile(medians, [(1 - level) / 2, (1 + level) / 2])
    return float(lo), float(hi)


def summarize(base: Sequence[float], change: Sequence[float], better: str) -> Dict:
    """Medians, IQRs, pairs won and the paired effect of ``change`` over
    ``base`` (pair ``i`` is ``base[i]``, ``change[i]``).

    ``effect`` is the median of ``change − base`` and ``ci`` its bootstrap
    interval; both are ``None`` when the interval spans zero.
    """
    if len(base) != len(change) or not base:
        raise ValueError("need the same positive number of runs on each side")
    b, c = np.asarray(base, dtype=float), np.asarray(change, dtype=float)
    diffs = c - b
    won = diffs < 0 if better == "lower" else diffs > 0
    lo, hi = paired_bootstrap_ci(diffs)
    spans_zero = lo <= 0.0 <= hi
    return {
        "n": int(b.size),
        "base_median": float(np.median(b)),
        "base_iqr": tuple(float(q) for q in np.quantile(b, [0.25, 0.75])),
        "change_median": float(np.median(c)),
        "change_iqr": tuple(float(q) for q in np.quantile(c, [0.25, 0.75])),
        "won": int(won.sum()),
        "effect": None if spans_zero else float(np.median(diffs)),
        "ci": None if spans_zero else (lo, hi),
    }


def format_row(name: str, unit: str, s: Dict) -> str:
    """One table line; the effect is shown relative to the base median."""
    def iqr(q):
        return f"[{q[0]:.4g}–{q[1]:.4g}]"

    if s["effect"] is None:
        effect = "no effect"
    else:
        ref = s["base_median"]
        if ref:
            effect = (f"{100 * s['effect'] / ref:+.1f}% "
                      f"(CI {100 * s['ci'][0] / ref:+.1f}% … {100 * s['ci'][1] / ref:+.1f}%)")
        else:
            effect = f"{s['effect']:+.4g} (CI {s['ci'][0]:+.4g} … {s['ci'][1]:+.4g})"
    return (f"{name:34s} {unit:6s} {s['base_median']:10.4g} {iqr(s['base_iqr']):22s} "
            f"{s['change_median']:10.4g} {iqr(s['change_iqr']):22s} "
            f"{s['won']:>2d}/{s['n']:<2d} {effect}")


def load_benchmark(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


def directions(bench: dict) -> Dict[str, Tuple[str, str]]:
    """Metric name -> (unit, better) from a parsed BENCHMARK.json."""
    return {m["name"]: (m["unit"], m["better"])
            for m in bench["end_to_end"] + bench["per_layer"]}


def layer_seconds(bench: dict) -> FrozenSet[str]:
    """The per-layer metrics a traced run reports in raw wall seconds."""
    return frozenset(m["name"] for m in bench["per_layer"] if m["unit"] == "s")


def scale_layers(metrics: Dict[str, float], host_speed: Optional[float],
                 names: Collection[str]) -> Dict[str, float]:
    """``metrics`` with each of ``names`` multiplied by ``host_speed``
    (seconds at the reference host speed); unchanged without a speed."""
    if host_speed is None:
        return dict(metrics)
    return {name: value * host_speed if name in names else value
            for name, value in metrics.items()}


Run = Tuple[Dict[str, float], int]


def run_once(root: str, workload: str, seconds: float, trace: bool = False,
             scaled: Collection[str] = ()) -> Run:
    """One perfbench run in ``root``: its metrics by name, the ``scaled``
    ones multiplied by the run's host speed, and the number of operations
    it attempted."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "0", "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result: Optional[dict] = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if proc.returncode != 0 or result is None or not result.get("correct"):
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"error: perfbench failed in {root} (exit {proc.returncode})")
    notes = next((json.loads(line[len("notes "):]) for line in lines
                  if line.startswith("notes ")), {})
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return (scale_layers(metrics, notes.get("host_speed"), scaled),
            int(result["attempted"]))


def report(runs: Dict[str, List[Run]], spec: Dict[str, Tuple[str, str]]) -> List[str]:
    """One table row per metric both sides report, the tracing overhead
    when the runs were traced, then one line per pair whose sides
    attempted different numbers of operations."""
    metrics = {side: [m for m, _ in runs[side]] for side in ("base", "change")}
    ops = {side: [n for _, n in runs[side]] for side in ("base", "change")}
    lines = []
    for name in sorted(set(metrics["base"][0]) & set(metrics["change"][0])):
        unit, better = spec.get(name, ("", "lower"))
        s = summarize([r[name] for r in metrics["base"]],
                      [r[name] for r in metrics["change"]], better)
        row = format_row(name, unit, s)
        if name == "peak_rss_mb":
            row += (f"  (median operations: base {np.median(ops['base']):g}, "
                    f"change {np.median(ops['change']):g})")
        lines.append(row)
    overhead = "telemetry.overhead_frac"
    if all(overhead in r for side in metrics.values() for r in side):
        lines.append(f"tracing overhead ({overhead}, median): base "
                     f"{np.median([r[overhead] for r in metrics['base']]):.3g}, change "
                     f"{np.median([r[overhead] for r in metrics['change']]):.3g}; "
                     "the layer seconds include it")
    for i, (b, c) in enumerate(zip(ops["base"], ops["change"]), start=1):
        if b != c:
            lines.append(f"pair {i}: operations differ (base {b}, change {c})")
    return lines


def git(*argv: str) -> str:
    return subprocess.run(["git", "-C", ROOT, *argv], check=True,
                          capture_output=True, text=True).stdout.strip()


def main(argv: Optional[List[str]] = None) -> int:
    bench = load_benchmark(ROOT)
    seconds = bench["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git ref of the base side")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", action="store_true",
                        help="run perfbench --trace 1 and scale the per-layer "
                             "seconds by each run's host speed")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    sha = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    tmp = tempfile.mkdtemp(prefix="ab_pairs_")
    tree = os.path.join(tmp, "base")
    runs: Dict[str, List[Run]] = {"base": [], "change": []}
    scaled = layer_seconds(bench) if args.trace else frozenset()
    try:
        git("worktree", "add", "--detach", tree, sha)
        roots = {"base": tree, "change": ROOT}
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                runs[side].append(run_once(roots[side], args.workload, seconds,
                                           args.trace, scaled))
            print(f"pair {i + 1}/{args.pairs} done ({order[0]} first)",
                  file=sys.stderr, flush=True)
    finally:
        subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force", tree],
                       capture_output=True)
        subprocess.run(["git", "-C", ROOT, "worktree", "prune"], capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{args.workload}: base {sha[:12]} vs this checkout, {args.pairs} alternating "
          f"pairs, --seconds {seconds:g}"
          + (", --trace 1, layer seconds x host_speed" if args.trace else ""))
    print(f"{'metric':34s} {'unit':6s} {'base':>10s} {'IQR':22s} {'change':>10s} "
          f"{'IQR':22s} {'won':5s} effect (95% CI)")
    print("\n".join(report(runs, directions(bench))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
