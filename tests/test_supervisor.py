"""The shared pool supervisor sleeps on events, not on a polling tick."""

import multiprocessing
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
