"""Pool workers exit when the process that owns them is SIGKILLed.

A SIGKILL gives the owner no chance to shut its pool down, so the
workers must notice on their own.  Both tests read the process tree from
``/proc``: they snapshot every descendant of the owner, kill the owner
alone, and require the whole snapshot to be gone within a few seconds.
"""

import os
import select
import signal
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import pytest

from repro.service import ServiceClient

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Seconds the orphans get to notice their owner died and exit.
GRACE = 5.0

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/proc/self"), reason="reads the process tree from /proc")


def _stat(pid):
    """``(state, ppid)`` of a live pid, or None once it is gone or a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None
    if fields[0] in ("Z", "X"):
        return None
    return fields[0], int(fields[1])


def _descendants(root):
    children = defaultdict(list)
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = _stat(int(entry))
            if stat is not None:
                children[stat[1]].append(int(entry))
    found, frontier = [], [root]
    while frontier:
        kids = children.get(frontier.pop(), [])
        found.extend(kids)
        frontier.extend(kids)
    return found


def _wait_for(predicate, timeout, what):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    pytest.fail(f"timed out after {timeout}s waiting for {what}")


def _survivors(pids, timeout):
    """The pids of ``pids`` still alive after waiting up to ``timeout``."""
    deadline = time.monotonic() + timeout
    alive = list(pids)
    while alive and time.monotonic() < deadline:
        time.sleep(0.05)
        alive = [pid for pid in alive if _stat(pid) is not None]
    return alive


def _reap(pids):
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def _spawn(argv, stdout):
    env = dict(os.environ, PYTHONPATH=str(SRC), REPRO_SCALE="smoke")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *argv], stdout=stdout,
        stderr=subprocess.DEVNULL, env=env, cwd=str(ROOT))


def _reads_eof(fd, timeout):
    """Drain ``fd`` until EOF; False if it stays open past ``timeout``."""
    deadline = time.monotonic() + timeout
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return False
        ready, _, _ = select.select([fd], [], [], remaining)
        if ready and os.read(fd, 65536) == b"":
            return True


def test_killed_grid_leaves_no_workers(tmp_path):
    proc = _spawn(["grid", "--workers", "2", "--ledger",
                   str(tmp_path / "grid.jsonl")], stdout=subprocess.PIPE)
    tree = []
    try:
        _wait_for(lambda: len(_descendants(proc.pid)) >= 2, 60.0,
                  "two pool workers")
        tree = _descendants(proc.pid)
        proc.kill()
        proc.wait()
        survivors = _survivors(tree, GRACE)
        assert survivors == [], f"workers outlived the grid: {survivors}"
        assert _reads_eof(proc.stdout.fileno(), 1.0), \
            "an orphan still holds the grid's stdout open"
    finally:
        _reap(tree)
        proc.kill()
        proc.wait()
        proc.stdout.close()


def test_killed_daemon_leaves_no_pool_processes(tmp_path):
    sock = tmp_path / "svc.sock"
    proc = _spawn(["serve", "--socket", str(sock), "--workers", "2"],
                  stdout=subprocess.DEVNULL)
    tree = []
    try:
        _wait_for(sock.exists, 60.0, "daemon socket")
        client = ServiceClient(str(sock), timeout=30.0)
        accepted = client.submit(workload="Cori-S1", method="Baseline",
                                 scale="smoke")
        assert client.wait(accepted["id"], timeout=120.0)["state"] == "done"
        # The forkserver, at least one worker, and the resource tracker.
        tree = _descendants(proc.pid)
        assert len(tree) >= 3, tree
        proc.kill()
        proc.wait()
        survivors = _survivors(tree, GRACE)
        assert survivors == [], f"pool processes outlived the daemon: {survivors}"
    finally:
        _reap(tree)
        proc.kill()
        proc.wait()
