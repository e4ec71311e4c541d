"""Struct-of-arrays job table: the engine's vectorized view of a trace.

The simulator's per-pass hot loops (priority ordering, capacity masks) and
the post-run metric evaluation all reduce to elementwise arithmetic over a
handful of per-job scalars.  Looping over :class:`~repro.simulator.job.Job`
objects pays a Python attribute lookup per field per job per pass;
:class:`JobTable` holds the same fields once, as numpy columns, so a
scheduling pass touches them with array slicing instead.

The table is a *view with one dynamic column*: every column except
``state`` mirrors an immutable ``Job`` field, so nothing ever needs
re-syncing; ``state`` is a compact int8 code the engine updates at the few
lifecycle transitions it drives (see :data:`STATE_CODES`).  ``Job`` objects
remain the source of truth — the table accelerates, it never decides.

Row order is trace order; :attr:`row_of` maps ``jid`` → row for the
engine's queue, whose membership changes while rows never move.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ..errors import TraceError
from .job import Job, JobState

#: JobState → int8 code stored in :attr:`JobTable.state`.  Codes follow the
#: lifecycle order so range checks ("terminal" = code >= COMPLETED) work.
STATE_CODES: Dict[JobState, int] = {
    JobState.PENDING: 0,
    JobState.QUEUED: 1,
    JobState.RUNNING: 2,
    JobState.COMPLETED: 3,
    JobState.ABANDONED: 4,
}
_QUEUED = STATE_CODES[JobState.QUEUED]


class JobTable:
    """Numpy columns over a fixed job list.

    Columns
    -------
    ``jid``          int64   — unique job id (trace invariant).
    ``submit_time``  float64 — queue-entry time (seconds since epoch).
    ``runtime``      float64 — actual execution time.
    ``walltime``     float64 — user walltime estimate (WFP, backfilling).
    ``nodes``        int64   — requested node count.
    ``bb``           float64 — requested shared burst buffer (GB).
    ``ssd``          float64 — requested per-node local SSD (GB).
    ``state``        int8    — lifecycle code (see :data:`STATE_CODES`).
    """

    __slots__ = (
        "jobs", "jid", "submit_time", "runtime", "walltime",
        "nodes", "bb", "ssd", "state", "row_of",
    )

    def __init__(self, jobs: Sequence[Job]) -> None:
        jobs = list(jobs)
        n = len(jobs)
        self.jobs: List[Job] = jobs
        self.jid = np.empty(n, dtype=np.int64)
        self.submit_time = np.empty(n, dtype=np.float64)
        self.runtime = np.empty(n, dtype=np.float64)
        self.walltime = np.empty(n, dtype=np.float64)
        self.nodes = np.empty(n, dtype=np.int64)
        self.bb = np.empty(n, dtype=np.float64)
        self.ssd = np.empty(n, dtype=np.float64)
        self.state = np.empty(n, dtype=np.int8)
        row_of: Dict[int, int] = {}
        for row, job in enumerate(jobs):
            self.jid[row] = job.jid
            self.submit_time[row] = job.submit_time
            self.runtime[row] = job.runtime
            self.walltime[row] = job.walltime
            self.nodes[row] = job.nodes
            self.bb[row] = job.bb
            self.ssd[row] = job.ssd
            self.state[row] = STATE_CODES[job.state]
            row_of[job.jid] = row
        if len(row_of) != n:
            raise TraceError("duplicate job ids in trace")
        self.row_of = row_of

    def __len__(self) -> int:
        return len(self.jobs)

    def rows_for(self, jobs: Sequence[Job]) -> np.ndarray:
        """Row indices of ``jobs``, in the given order."""
        row_of = self.row_of
        return np.fromiter(
            (row_of[j.jid] for j in jobs), dtype=np.intp, count=len(jobs)
        )

    def queued_rows(self) -> np.ndarray:
        """Rows whose ``state`` is QUEUED, in table order."""
        return (self.state == _QUEUED).nonzero()[0]

    def set_state(self, row: int, state: JobState) -> None:
        """Record a lifecycle transition in the ``state`` column."""
        self.state[row] = STATE_CODES[state]

    def start_times(self) -> np.ndarray:
        """Dynamic gather of ``start_time`` (NaN for never-started jobs).

        ``start_time`` flips between None and a float across kills and
        requeues, so it is gathered on demand rather than mirrored.
        """
        return np.fromiter(
            (np.nan if j.start_time is None else j.start_time for j in self.jobs),
            dtype=np.float64,
            count=len(self.jobs),
        )

    # --- pickling: the jobs ARE the table ------------------------------------
    # Every column (including the dynamic ``state`` mirror) and ``row_of``
    # is a pure function of the job list, and the jobs themselves are
    # already in the pickle via the engine's ``_jobs`` (shared through the
    # memo).  Serialising only the list keeps the eight numpy columns and
    # the jid→row dict out of every periodic checkpoint, and the rebuild
    # in ``__setstate__`` is bit-identical by construction.
    # (Wrapped in a 1-tuple: a bare empty list is falsy, and pickle skips
    # ``__setstate__`` entirely for falsy state.)
    def __getstate__(self) -> tuple:
        return (self.jobs,)

    def __setstate__(self, state: tuple) -> None:
        self.__init__(state[0])
