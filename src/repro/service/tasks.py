"""Worker-side execution of service requests.

These functions run inside the pool's worker processes.  The module is
deliberately tiny and import-safe: it is pickled by name into workers,
so it must not drag the daemon's asyncio machinery along.

A request may carry a **deterministic chaos** directive
(``crash_attempts``/``hang_attempts``/``hang_seconds``).  It is only
honoured when the daemon was started with ``allow_chaos`` (the flag is
baked into the worker dispatch, not read from the environment), and it
keys off the *dispatch ordinal* the supervisor hands the worker, so
"crash the worker on attempt 1, then succeed" replays identically every
run — the property the chaos harness's exactly-once assertions rest on.
The heartbeat claim that arms the per-request deadline is made by the
supervisor's trampoline before :func:`execute_request` starts (see
:mod:`repro.parallel.supervisor`).
"""

from __future__ import annotations

import os
import signal
import time
from typing import Any, Dict, Optional

from ..experiments.config import get_scale
from ..experiments.grid import cell_seed
from ..experiments.runner import RunResult, run_one
from ..experiments.workloads import get_workload
from ..parallel.supervisor import current_dispatch

def apply_chaos(chaos: Optional[Dict[str, Any]], attempt: int) -> None:
    """Inject the directive's fault for this attempt (deterministic).

    ``crash_attempts=K`` SIGKILLs the worker on attempts 1..K (−1 means
    every attempt — a poison request the pool must quarantine);
    ``hang_attempts=K`` sleeps ``hang_seconds`` on attempts 1..K, which
    the supervisor's deadline treats as a wedged worker.
    """
    if not chaos:
        return
    crash_k = chaos.get("crash_attempts", 0)
    if crash_k == -1 or attempt <= crash_k:
        # A real crash, not an exception: the worker dies mid-task the
        # way an OOM kill or segfault would, breaking the whole pool.
        os.kill(os.getpid(), signal.SIGKILL)
    hang_k = chaos.get("hang_attempts", 0)
    if hang_k == -1 or attempt <= hang_k:
        time.sleep(float(chaos.get("hang_seconds", 3600.0)))


def execute_request(
    request_id: str,
    params: Dict[str, Any],
    allow_chaos: bool = False,
) -> RunResult:
    """Run one simulation request to completion on this worker."""
    if allow_chaos:
        apply_chaos(params.get("chaos"), current_dispatch())
    scale = get_scale(params.get("scale"))
    workload = params["workload"]
    method = params["method"]
    trace = get_workload(workload, scale)
    seed = params.get("seed")
    if seed is None:
        seed = cell_seed(workload, method)
    return run_one(
        trace,
        method,
        scale,
        seed=seed,
        generations=params.get("generations"),
        watchdog_budget=params.get("watchdog_budget"),
        collect_telemetry=bool(params.get("telemetry", False)),
    )


def result_summary(result: RunResult) -> Dict[str, Any]:
    """The small JSON-safe digest of a result the daemon journals inline.

    The full :class:`RunResult` rides in the journal record's verified
    payload; this digest is what ``status``/``wait`` responses carry.
    """
    summary = {k: float(v) for k, v in result.summary.as_dict().items()}
    return {
        "workload": result.workload,
        "method": result.method,
        "makespan": float(result.makespan),
        "selector_calls": int(result.selector_calls),
        "metrics": summary,
    }
