"""The shared pool supervisor sleeps on events, not on a polling tick."""

import multiprocessing
import os
import signal
import threading
import time

from repro.parallel import Supervisor


def double(x):
    return 2 * x


def slow_double(x):
    time.sleep(0.3)
    return 2 * x


def _error(task, kind, exc):
    return RuntimeError(f"{task.key} {kind}: {exc}")


def _supervisor(fn=double, **kwargs):
    return Supervisor(fn, multiprocessing.get_context("fork"), 2,
                      make_error=_error, **kwargs)


def test_steps_follow_completions_not_a_polling_tick():
    # Four 0.3 s tasks on two workers: a step per completion (plus the
    # first dispatch), where a 20 ms tick would take some thirty.
    supervisor = _supervisor(slow_double)
    futures = [supervisor.submit(i, (i,)) for i in range(4)]
    steps = 0
    try:
        while supervisor.active():
            supervisor.step()
            steps += 1
    finally:
        supervisor.close(terminate=False)
    assert [f.result() for f in futures] == [0, 2, 4, 6]
    assert steps <= 8, steps


def test_submit_from_another_thread_wakes_an_idle_step():
    supervisor = _supervisor()
    timer = threading.Timer(0.2, supervisor.submit, args=("k", (21,)))
    done = []
    try:
        timer.start()
        start = time.monotonic()
        done += supervisor.step()  # idle: sleeps until the submit wakes it
        while supervisor.active():
            done += supervisor.step()
        assert time.monotonic() - start < 10.0
        assert [task.future.result() for task in done] == [42]
    finally:
        timer.join(5.0)
        supervisor.close()


def test_a_rebuilt_pool_does_not_inherit_a_dead_workers_claim_lock():
    # A worker terminated during a rebuild can die inside its heartbeat
    # claim, holding the claim queue's write lock.  Holding that lock here
    # stands in for it: the rebuilt pool's claims must not wait on it.
    supervisor = _supervisor(deadline=30.0)
    # Ends a step that would otherwise sleep forever, so a regression
    # fails the assertion below instead of hanging the suite.
    watchdog = threading.Timer(10.0, supervisor.wake)
    try:
        first = supervisor.submit("a", (1,))
        while supervisor.active():
            supervisor.step()
        assert first.result() == 2
        supervisor._heartbeat._wlock.acquire()
        workers = list(supervisor._executor._processes.values())
        for proc in workers:
            os.kill(proc.pid, signal.SIGKILL)
        for proc in workers:
            proc.join(5.0)
        second = supervisor.submit("b", (21,))
        watchdog.start()
        start = time.monotonic()
        while supervisor.active() and time.monotonic() - start < 10.0:
            supervisor.step()
        assert second.done(), "no result from the rebuilt pool"
        assert second.result() == 42
    finally:
        watchdog.cancel()
        supervisor.close()
