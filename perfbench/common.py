"""Shared machinery of the repo benchmark.

Statistics, the timed-loop helper, set-up timing in fresh interpreters,
process-tree memory sampling, the cleanup guard, the environment record
and the result line.  Nothing here imports the program under test, so
the benchmark can fail cleanly when the program is missing.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

#: The benchmark runs from the root of a checkout; everything it writes
#: stays under WORK there.
ROOT = os.path.abspath(os.getcwd())
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
HERE = os.path.dirname(os.path.abspath(__file__))


def require_program() -> None:
    """Put the program's sources on the path, or exit without a result."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(
            f"perfbench: no program sources at {SRC}; run from the root of "
            "a repository checkout")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> Dict[str, str]:
    """Environment for programs the benchmark starts: sources on the path,
    and no scale or worker override that would change what they run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("REPRO_SCALE", None)
    env.pop("REPRO_WORKERS", None)
    return env


# --- statistics ---------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (numpy's default rule)."""
    xs = sorted(values)
    if not xs:
        return math.nan
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else math.nan


def beyond(n: int, q: float) -> int:
    """Samples strictly beyond the ``q``-th percentile of ``n`` samples."""
    return int(n - math.floor(n * q / 100.0) - 1) if n else 0


def run_for(seconds: float, op: Callable[[int], float], min_ops: int = 1) -> List[float]:
    """Call ``op(i)`` back to back for about ``seconds``.

    ``op`` returns its own wall time.  Another call starts only while the
    expected end stays within half a call of the budget, so a run measures
    ``seconds`` give or take half an operation.
    """
    walls: List[float] = []
    t0 = time.perf_counter()
    while True:
        walls.append(op(len(walls)))
        elapsed = time.perf_counter() - t0
        if len(walls) >= min_ops and elapsed + 0.5 * median(walls) > seconds:
            return walls


# --- set-up in fresh interpreters ---------------------------------------------------
def time_fresh_setup(code: str, repeats: int) -> List[float]:
    """Seconds from spawning ``python3 -c code`` until it is ready, scaled
    to the reference host speed.

    Each repeat is a new interpreter, so imports and lazily built state
    are paid every time, as a user starting the program pays them.  The
    child runs ``code`` under a :class:`gauge.SpeedGauge` and reports the
    host speed it saw and the time its gauge spent.
    """
    gauged = ("import sys\n"
              f"sys.path.append({HERE!r})\n"
              "from gauge import SpeedGauge\n"
              "gauge = SpeedGauge(period=0.02).__enter__()\n"
              f"{code}"
              "gauge.__exit__()\n"
              "print('ready', gauge.speed, gauge.spent, flush=True)\n")
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", gauged], cwd=ROOT,
                                env=child_env(), stdout=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            wall = time.perf_counter() - t0
        finally:
            proc.stdout.close()
            proc.wait(60)
        fields = line.split()
        if len(fields) != 3 or fields[0] != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up child failed (rc={proc.returncode})")
        times.append((wall - float(fields[2])) * float(fields[1]))
    return times


# --- probes -------------------------------------------------------------------------
class Probe:
    """Wall time of calls into wrapped public functions, per layer."""

    def __init__(self) -> None:
        self.total: Dict[str, float] = defaultdict(float)
        self.entered: Dict[str, List[float]] = defaultdict(list)
        self.durations: Dict[str, List[float]] = defaultdict(list)
        self._undo: List[Callable[[], None]] = []

    def patch(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        """Replace ``owner.attr`` with ``make(original)`` until :meth:`remove`."""
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._undo.append(lambda: setattr(owner, attr, original))

    def wrap(self, owner: Any, attr: str, layer: str, stamp: bool = False) -> None:
        """Time every call of ``owner.attr``; ``stamp`` also keeps each call's
        entry time and duration."""
        def make(original):
            @functools.wraps(original)
            def timed(*args, **kwargs):
                t0 = time.perf_counter()
                if stamp:
                    self.entered[layer].append(t0)
                try:
                    return original(*args, **kwargs)
                finally:
                    dt = time.perf_counter() - t0
                    self.total[layer] += dt
                    if stamp:
                        self.durations[layer].append(dt)
            return timed
        self.patch(owner, attr, make)

    def take(self) -> Dict[str, float]:
        """Layer totals so far; resets everything recorded."""
        out = dict(self.total)
        self.total.clear()
        self.entered.clear()
        self.durations.clear()
        return out

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()


# --- processes ----------------------------------------------------------------------
def _proc_stat(pid: int) -> Optional[List[str]]:
    """Fields of /proc/<pid>/stat after the command name, or None."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            data = fh.read()
    except OSError:
        return None
    return data[data.rfind(")") + 2:].split()


def _live_pids() -> List[int]:
    return [int(p) for p in os.listdir("/proc") if p.isdigit()]


def related_pids(sessions: Iterable[int] = ()) -> List[int]:
    """Live, non-zombie descendants of this process plus every process in
    ``sessions`` (daemons run in sessions of their own, so their
    forkserver and workers stay findable even after being orphaned)."""
    sessions = set(sessions)
    me = os.getpid()
    parent: Dict[int, int] = {}
    found = set()
    for pid in _live_pids():
        fields = _proc_stat(pid)
        if fields is None or fields[0] == "Z":
            continue
        parent[pid] = int(fields[1])
        if int(fields[3]) in sessions:  # fields: state ppid pgrp session
            found.add(pid)
    for pid in parent:
        p = parent.get(pid)
        while p is not None and p > 1:
            if p == me:
                found.add(pid)
                break
            p = parent.get(p)
    found.discard(me)
    return sorted(found)


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class TreeMemory:
    """Peak resident memory of the benchmark and the processes it runs.

    Every ``period`` seconds a background thread sums the high-water
    marks (VmHWM) of the processes alive at that moment; the result is the
    largest such sum.  Processes that run one after another (the pools of
    successive grids) are therefore not added up, and shared pages count
    once per process, so this is an upper bound of the simultaneous peak.
    """

    def __init__(self, sessions: Callable[[], Iterable[int]] = tuple,
                 period: float = 0.5) -> None:
        self._sessions = sessions
        self._period = period
        self._peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _sample(self) -> None:
        alive = [os.getpid()] + related_pids(self._sessions())
        self._peak_kb = max(self._peak_kb, sum(_hwm_kb(pid) for pid in alive))

    def _loop(self) -> None:
        while not self._stop.wait(self._period):
            self._sample()

    def __enter__(self) -> "TreeMemory":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()

    @property
    def peak_mb(self) -> float:
        return self._peak_kb / 1024.0


class CleanupGuard:
    """Asserts that a workload left nothing behind.

    Checks for live descendants or session members (daemons, pool
    workers, forkservers, resource trackers), new ``/dev/shm`` entries and
    leftover files under the run's work directory.  Survivors are killed
    so that they cannot load the next run, and reported as failures.
    """

    def __init__(self) -> None:
        self._shm_before = set(self._shm())

    @staticmethod
    def _shm() -> List[str]:
        try:
            return os.listdir("/dev/shm")
        except OSError:
            return []

    def check(self, sessions: Iterable[int], paths: Iterable[str]) -> List[str]:
        sessions = list(sessions)
        problems = []
        deadline = time.monotonic() + 10.0
        survivors = related_pids(sessions)
        while survivors and time.monotonic() < deadline:
            time.sleep(0.1)
            survivors = related_pids(sessions)
        for pid in survivors:
            problems.append(f"process {pid} survived the workload")
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        new_shm = sorted(set(self._shm()) - self._shm_before)
        problems += [f"/dev/shm/{name} survived the workload" for name in new_shm]
        problems += [f"{path} survived the workload"
                     for path in paths if os.path.exists(path)]
        return problems


# --- environment record -------------------------------------------------------------
def _version(module: str) -> str:
    try:
        return __import__(module).__version__
    except Exception:  # missing or broken optional dependency
        return "absent"


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _source_digest() -> str:
    """SHA-256 over the program's sources: identifies the code measured
    even in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "repro")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def _cpu_jiffies() -> List[int]:
    """The machine-wide ``cpu`` line of /proc/stat (user ... steal ...)."""
    try:
        with open("/proc/stat") as fh:
            return [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def environment() -> Dict[str, object]:
    return {
        "_cpu_jiffies": _cpu_jiffies(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "loadavg_before": list(os.getloadavg()),
    }


# --- the result -------------------------------------------------------------------
class Outcome:
    """What one workload run reports: metric values, counts, checks."""

    def __init__(self) -> None:
        self.metrics: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.notes: Dict[str, object] = {}

    def fail(self, problem: str) -> None:
        self.problems.append(problem)
        self.failed += 1


def emit(outcome: Outcome, spec: Dict[str, str], env: Dict[str, object]) -> bool:
    """Print the notes, the environment and the result line; returns
    whether the run is correct."""
    missing = sorted(set(spec) - set(outcome.metrics))
    for name in missing:
        outcome.problems.append(f"metric {name} was not measured")
    correct = not outcome.problems and outcome.failed == 0 and outcome.attempted > 0
    for problem in outcome.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    env["loadavg_after"] = list(os.getloadavg())
    # Share of the machine's CPU time the hypervisor gave to other guests
    # during the run (the 8th /proc/stat field): high values mean the
    # timings are not comparable with a quiet run.
    before, after = env.pop("_cpu_jiffies"), _cpu_jiffies()
    if len(before) > 7 and len(after) > 7:
        total = sum(after) - sum(before)
        env["cpu_steal_frac"] = (after[7] - before[7]) / total if total else 0.0
    print("notes " + json.dumps(outcome.notes, sort_keys=True))
    print("env " + json.dumps(env, sort_keys=True))
    if outcome.attempted:
        print(f"  {'failed_frac':40s} {outcome.failed / outcome.attempted:14.6g} ratio "
              f"({outcome.failed} of {outcome.attempted} operations)")
    for name in sorted(spec):
        if name in outcome.metrics:
            print(f"  {name:40s} {outcome.metrics[name]:14.6g} {spec[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {name: {"value": float(outcome.metrics[name]), "unit": unit}
                    for name, unit in spec.items() if name in outcome.metrics},
    }), flush=True)
    return correct
