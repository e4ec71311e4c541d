"""Resume-equivalence verification: interrupted + resumed == uninterrupted.

The whole point of deterministic snapshots is that a resumed run is
indistinguishable from one that never stopped.  :func:`verify_resume`
proves it for a concrete (trace, method, scale, seed):

1. run the simulation uninterrupted → reference result;
2. rerun with a checkpoint cut at ``stop_fraction`` of the reference
   makespan, catching :class:`~repro.errors.SimulationInterrupted`;
3. resume from the checkpoint to completion;
4. compare deterministic fingerprints of both results byte-for-byte.

The fingerprint covers everything the simulation itself decides —
metrics summary, wait-time breakdowns, makespan, selector call count,
resilience counters — and deliberately excludes wall-clock artifacts
(``mean_selector_time``, telemetry spans), which legitimately differ
between runs of identical simulated behaviour.  Watchdog-degraded runs
are wall-clock-*dependent* simulations and cannot be verified this way;
see ``docs/checkpointing.md``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional

from ..errors import CheckpointError, SimulationInterrupted
from .runtime import CheckpointConfig


def _canon(value: Any) -> Any:
    """JSON-safe deep copy with numpy scalars collapsed to builtins."""
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return float(value)


def run_fingerprint(result: Any) -> Dict[str, Any]:
    """The deterministic portion of a RunResult, as a canonical dict."""
    fp = {
        "workload": result.workload,
        "method": result.method,
        "summary": _canon(result.summary.as_dict()),
        "wait_by_size": _canon(result.wait_by_size),
        "wait_by_bb": _canon(result.wait_by_bb),
        "wait_by_runtime": _canon(result.wait_by_runtime),
        "makespan": _canon(result.makespan),
        "selector_calls": int(result.selector_calls),
    }
    if result.resilience is not None:
        fp["resilience"] = _canon(result.resilience.as_dict())
    return fp


def fingerprint_digest(result: Any) -> str:
    """SHA-256 over the canonical JSON fingerprint (stable across runs)."""
    blob = json.dumps(run_fingerprint(result), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one resume-equivalence check (only produced on success)."""

    workload: str
    method: str
    digest: str
    cut_sim_time: float
    checkpoint_path: str


def verify_resume(
    trace: Any,
    method: str,
    scale: Any = None,
    *,
    seed: Any = None,
    faults: Any = None,
    retry: Any = None,
    stop_fraction: float = 0.5,
    workdir: Optional[str] = None,
) -> VerifyReport:
    """Assert interrupted-and-resumed equals uninterrupted; returns a report.

    Raises :class:`~repro.errors.CheckpointError` with a field-level diff
    when the fingerprints diverge, or when the cut point fell so late
    that the "interrupted" run finished (pick a smaller
    ``stop_fraction``).  ``workdir`` hosts the temporary checkpoint
    (defaults to the trace name under the current directory's
    ``.verify_resume``).  The GA's memo store is dropped on pickling and
    rebuilt lazily, so it never rides along in a checkpoint.
    """
    from ..experiments.runner import run_one  # circular at import time

    if not 0.0 < stop_fraction < 1.0:
        raise CheckpointError(f"stop_fraction must be in (0, 1), got {stop_fraction}")
    reference = run_one(trace, method, scale, seed=seed, faults=faults, retry=retry)
    base = Path(workdir) if workdir is not None else Path(".verify_resume")
    ckpt = base / f"{reference.workload}_{method}.ckpt"
    cut = stop_fraction * reference.makespan
    config = CheckpointConfig(path=str(ckpt), every_hours=0.0, stop_after=cut)
    try:
        run_one(trace, method, scale, seed=seed, faults=faults, retry=retry,
                checkpoint=config)
    except SimulationInterrupted as exc:
        cut_time = exc.sim_time
    else:
        raise CheckpointError(
            f"stop_after={cut:.0f}s did not interrupt the run "
            f"(makespan {reference.makespan:.0f}s) — no batch boundary after "
            f"the cut; use a smaller stop_fraction"
        )
    resumed = run_one(trace, method, scale, seed=seed, faults=faults, retry=retry,
                      resume_from=str(ckpt))
    ref_fp, res_fp = run_fingerprint(reference), run_fingerprint(resumed)
    if ref_fp != res_fp:
        diffs = [
            f"  {key}: uninterrupted={ref_fp.get(key)!r} resumed={res_fp.get(key)!r}"
            for key in sorted(set(ref_fp) | set(res_fp))
            if ref_fp.get(key) != res_fp.get(key)
        ]
        raise CheckpointError(
            "resumed run diverged from uninterrupted run for "
            f"{reference.workload}/{method} (cut at {cut_time:.0f}s):\n"
            + "\n".join(diffs)
        )
    return VerifyReport(
        workload=reference.workload,
        method=method,
        digest=fingerprint_digest(reference),
        cut_sim_time=cut_time,
        checkpoint_path=str(ckpt),
    )
