"""Event queue: ordering, stability, cancellation."""

import pytest

from repro.simulator.events import Event, EventQueue, EventType


class TestEvent:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            Event(-1.0, EventType.JOB_SUBMIT)

    def test_priority_order_of_types(self):
        # Completions release resources first, then submissions, then passes.
        assert EventType.JOB_END < EventType.JOB_SUBMIT < EventType.SCHEDULE


class TestEventQueue:
    def test_empty(self):
        q = EventQueue()
        assert len(q) == 0
        assert not q
        assert q.peek() is None
        assert q.peek_time() is None
        with pytest.raises(IndexError):
            q.pop()

    def test_time_ordering(self):
        q = EventQueue()
        q.push(Event(5.0, EventType.JOB_SUBMIT, "b"))
        q.push(Event(1.0, EventType.JOB_SUBMIT, "a"))
        q.push(Event(9.0, EventType.JOB_SUBMIT, "c"))
        assert [q.pop().payload for _ in range(3)] == ["a", "b", "c"]

    def test_type_ordering_at_same_time(self):
        q = EventQueue()
        q.push(Event(1.0, EventType.SCHEDULE, "sched"))
        q.push(Event(1.0, EventType.JOB_SUBMIT, "submit"))
        q.push(Event(1.0, EventType.JOB_END, "end"))
        assert [q.pop().payload for _ in range(3)] == ["end", "submit", "sched"]

    def test_insertion_stability(self):
        q = EventQueue()
        for i in range(10):
            q.push(Event(1.0, EventType.JOB_SUBMIT, i))
        assert [q.pop().payload for _ in range(10)] == list(range(10))

    def test_len_tracks_pushes_and_pops(self):
        q = EventQueue()
        q.push(Event(1.0, EventType.JOB_SUBMIT))
        q.push(Event(2.0, EventType.JOB_SUBMIT))
        assert len(q) == 2
        q.pop()
        assert len(q) == 1

    def test_cancel(self):
        q = EventQueue()
        token = q.push(Event(1.0, EventType.JOB_SUBMIT, "x"))
        q.push(Event(2.0, EventType.JOB_SUBMIT, "y"))
        q.cancel(token)
        assert len(q) == 1
        assert q.pop().payload == "y"

    def test_double_cancel_counts_once(self):
        q = EventQueue()
        token = q.push(Event(1.0, EventType.JOB_SUBMIT))
        q.cancel(token)
        q.cancel(token)
        assert len(q) == 0

    def test_peek_skips_cancelled(self):
        q = EventQueue()
        token = q.push(Event(1.0, EventType.JOB_SUBMIT, "dead"))
        q.push(Event(2.0, EventType.JOB_SUBMIT, "live"))
        q.cancel(token)
        assert q.peek().payload == "live"
        assert q.peek_time() == 2.0

    def test_drain(self):
        q = EventQueue()
        for t in (3.0, 1.0, 2.0):
            q.push(Event(t, EventType.JOB_SUBMIT, t))
        assert [e.payload for e in q.drain()] == [1.0, 2.0, 3.0]
        assert not q


def _batch(q, t, react=None, *, pop_at):
    """Payloads of the batch at ``t``, by ``pop_at`` or by the peek/pop
    loop; ``react(q, event)`` may push more events as each one is handled."""
    out = []
    while True:
        if pop_at:
            event = q.pop_at(t)
        else:
            event = q.pop() if q and q.peek_time() == t else None
        if event is None:
            return out
        out.append(event.payload)
        if react is not None:
            react(q, event)


def _remaining(q):
    return len(q), [(e.time, e.etype, e.payload) for e in q.drain()]


class TestPopAt:
    """``pop_at(t)`` delivers exactly what a peek/pop loop would."""

    @staticmethod
    def _both(build, t, react=None):
        queues = [build(), build()]
        batches = [_batch(q, t, react, pop_at=flag)
                   for q, flag in zip(queues, (True, False))]
        assert batches[0] == batches[1]
        assert _remaining(queues[0]) == _remaining(queues[1])
        return batches[0]

    def test_events_pushed_for_t_while_draining(self):
        def build():
            q = EventQueue()
            q.push(Event(1.0, EventType.JOB_SUBMIT, "a"))
            q.push(Event(1.0, EventType.JOB_SUBMIT, "b"))
            q.push(Event(2.0, EventType.JOB_SUBMIT, "later"))
            return q

        def react(q, event):
            if event.payload == "a":
                # Sorts ahead of "b" at the same instant, then one behind it
                # and one after the batch.
                q.push(Event(1.0, EventType.JOB_END, "end-from-a"))
                q.push(Event(1.0, EventType.JOB_REQUEUE, "requeue-from-a"))
                q.push(Event(1.5, EventType.JOB_SUBMIT, "next-from-a"))

        batch = self._both(build, 1.0, react)
        assert batch == ["a", "end-from-a", "b", "requeue-from-a"]

    def test_cancelled_head_is_skipped(self):
        def build():
            q = EventQueue()
            dead = q.push(Event(1.0, EventType.JOB_END, "dead"))
            q.push(Event(1.0, EventType.JOB_SUBMIT, "live"))
            lone = q.push(Event(3.0, EventType.JOB_END, "dead-later"))
            q.push(Event(4.0, EventType.JOB_SUBMIT, "last"))
            q.cancel(dead)
            q.cancel(lone)
            return q

        assert self._both(build, 1.0) == ["live"]
        # A batch whose only event was cancelled is empty.
        assert self._both(build, 3.0) == []

    def test_head_at_later_time_returns_none(self):
        def build():
            q = EventQueue()
            q.push(Event(5.0, EventType.JOB_SUBMIT, "x"))
            return q

        q = build()
        assert q.pop_at(4.0) is None
        assert len(q) == 1 and q.peek_time() == 5.0
        assert self._both(build, 4.0) == []

    def test_empty_queue_returns_none(self):
        assert EventQueue().pop_at(0.0) is None
        assert self._both(EventQueue, 0.0) == []
