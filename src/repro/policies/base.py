"""Base-scheduler priority policies (§2.1).

A *base scheduler* enforces job priority according to a site's policy; the
multi-resource selection methods (BBSched and the comparison methods) run
on top of it.  The paper pairs Cori workloads with FCFS and Theta workloads
with WFP, ALCF's utility-based policy.

A policy is a pure ordering function: given the queued jobs and the current
time it returns them in descending priority.  Ties are always broken by
``(submit_time, jid)`` so orderings are total and deterministic.

Two equivalent execution paths produce the ordering:

* the **reference path** — ``sorted(queue, key=...)`` over per-job
  :meth:`PriorityPolicy.priority` calls, the executable spec;
* the **vectorized path** — used when the caller supplies a
  :class:`~repro.simulator.jobtable.JobTable`: scores come from
  :meth:`PriorityPolicy.priority_array` (or a per-job fallback for custom
  policies) and one ``np.lexsort`` over ``(-score, submit_time, jid)``
  replaces the tuple sort.  Because every jid is unique the sort key is
  total, so both paths yield the *identical* permutation — pinned by the
  property tests in ``tests/test_differential.py``.

A scheduling pass reads only the queue front, so the vectorized path
also serves an exact prefix (:meth:`PriorityPolicy.order_prefix`): it
sorts only the ``k`` leaders a partition picks out, and returns
``order(queue, now)[:k]`` at the cost of one score pass.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple

import numpy as np

from ..simulator.job import Job

if TYPE_CHECKING:  # import cycle: the simulator imports policies
    from ..simulator.jobtable import JobTable


class PriorityPolicy(abc.ABC):
    """Orders the waiting queue; higher priority first."""

    #: Short identifier used in reports.
    name: str = "base"

    #: True when :meth:`priority` ignores ``now`` (e.g. FCFS), letting the
    #: engine reuse an ordering until queue membership changes.
    time_independent: bool = False

    @abc.abstractmethod
    def priority(self, job: Job, now: float) -> float:
        """Numeric priority of ``job`` at time ``now`` (higher runs first)."""

    def priority_array(
        self, table: "JobTable", rows: np.ndarray, now: float
    ) -> Optional[np.ndarray]:
        """Vectorized :meth:`priority` over table rows, or None.

        Returning None routes :meth:`order` through the per-job fallback —
        correct for any custom policy; concrete policies override this
        with an implementation whose float64 arithmetic is bit-identical
        to the scalar one.
        """
        return None

    def prefix_scores(
        self, table: "JobTable", rows: np.ndarray, now: float, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Exact scores over a subset of ``rows`` that holds the top ``k``.

        Returns ``(candidates, scores)``: every row of the first ``k`` of
        the ordering, including every row tied with the ``k``-th, must be
        among ``candidates``, and ``scores`` must be bit-identical to
        :meth:`priority`.  The default scores all rows, through
        :meth:`priority_array` or the per-job fallback; a policy whose
        exact score is expensive may first narrow the rows with a cheap
        estimate (see :meth:`WFP.prefix_scores`).
        """
        scores = self.priority_array(table, rows, now)
        if scores is None:
            jobs = table.jobs
            scores = np.fromiter(
                (self.priority(jobs[r], now) for r in rows.tolist()),
                dtype=np.float64,
                count=len(rows),
            )
        return rows, scores

    def order_prefix(
        self, table: "JobTable", rows: np.ndarray, now: float, k: int
    ) -> List[Job]:
        """Exactly ``order(queue, now)[:k]`` for the queue at table ``rows``.

        Cost is one score pass over ``rows`` plus a sort of the ``k``
        leaders: ``np.partition`` finds the ``k``-th smallest ``-score``,
        every row tied with it is kept (the tie is broken by the rest of
        the key), and only that set is lexsorted on the reference key
        ``(-score, submit_time, jid)`` — total because jids are unique, so
        the input order of ``rows`` cannot matter.  Only ``k`` ``Job``
        references are built.
        """
        k = min(k, len(rows))
        if k <= 0:
            return []
        rows, scores = self.prefix_scores(table, rows, now, k)
        neg = -scores
        if k < len(rows):
            kth = np.partition(neg, k - 1)[k - 1]
            keep = np.flatnonzero(neg <= kth)
            rows, neg = rows[keep], neg[keep]
        # lexsort takes its primary key last.
        perm = np.lexsort((table.jid[rows], table.submit_time[rows], neg))[:k]
        jobs = table.jobs
        return [jobs[r] for r in rows[perm].tolist()]

    def order(
        self,
        queue: Iterable[Job],
        now: float,
        *,
        table: Optional["JobTable"] = None,
        rows: Optional[np.ndarray] = None,
        k: Optional[int] = None,
    ) -> List[Job]:
        """Queue sorted by descending priority, ties by submit order.

        With ``k`` only the first ``k`` jobs are returned.  With ``table``
        the vectorized path (:meth:`order_prefix`) runs over ``rows`` —
        the queue's rows by default — and returns the table's ``Job``
        objects; without it the reference tuple sort does.  Both return
        the same permutation.
        """
        if table is None:
            ordered = sorted(
                queue, key=lambda j: (-self.priority(j, now), j.submit_time, j.jid)
            )
            return ordered if k is None else ordered[:k]
        if rows is None:
            rows = table.rows_for(list(queue))
        return self.order_prefix(table, rows, now, len(rows) if k is None else k)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"
