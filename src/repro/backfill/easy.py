"""Multi-resource EASY backfilling (§2.1, used by every method in §4.3).

EASY backfilling lets lower-priority jobs skip ahead *provided they do not
delay the highest-priority waiting job*.  The classic algorithm reserves
the head job's resources at the *shadow time* — the earliest instant the
head fits, assuming running jobs release at their walltime-estimated ends —
and admits a candidate now iff it fits in the free resources and either
(a) its estimated end precedes the shadow time, or (b) it also fits in the
*extra* resources left at the shadow time after the head's reservation.

This implementation generalises the reservation to all three resources:
nodes, shared burst buffer, and per-tier local SSD node counts.  A job is
"delayed" if any one of its resource demands would be.

The backfiller is a planner: it mutates nothing, returning the list of jobs
to start; the engine performs the actual allocations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import SchedulingError
from ..simulator.job import Job

#: Tiny slack added when a running job has exceeded its walltime estimate —
#: its release is then assumed imminent rather than in the past.
_OVERRUN_EPSILON = 1e-6


@dataclass(frozen=True)
class PlannedRelease:
    """A running job's future resource release, per the walltime estimate.

    ``nodes`` (the total over tiers) and ``min_cap`` (the smallest tier
    the release holds) are derived once here for the shadow-time walk.
    They are left out of the pickled state, so a checkpoint carries the
    same three fields it always did and older checkpoints still load.
    """

    est_end: float
    bb: float
    nodes_by_tier: Mapping[float, int]
    nodes: int = field(init=False, repr=False, compare=False)
    min_cap: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", sum(self.nodes_by_tier.values()))
        object.__setattr__(self, "min_cap", min(self.nodes_by_tier, default=math.inf))

    def __getstate__(self) -> Dict[str, object]:
        return {"est_end": self.est_end, "bb": self.bb,
                "nodes_by_tier": self.nodes_by_tier}

    def __setstate__(self, state: Dict[str, object]) -> None:
        for name in ("est_end", "bb", "nodes_by_tier"):
            object.__setattr__(self, name, state[name])
        self.__post_init__()


#: Sort key of a release ledger: the estimated end.
by_est_end = attrgetter("est_end")


class _Pool:
    """Mutable (bb, per-tier node) pool used during backfill planning.

    ``fits``/``qualifying`` are the planner's hot loop (called for every
    candidate against every pool), so the pool maintains two exact
    invariants alongside the tier dict: ``_nodes``, the running total of
    all tier counts, and ``_min_cap``, the smallest tier capacity present.
    A request at or below the smallest capacity qualifies *every* node —
    the common case on single-tier systems like Cori, where it turns the
    per-call dict reduction into one comparison.  Counts are integers, so
    the maintained total is exact, never approximate.
    """

    def __init__(self, bb: float, tiers: Mapping[float, int]) -> None:
        self.bb = bb
        self.tiers: Dict[float, int] = {float(c): int(n) for c, n in tiers.items()}
        self._nodes = sum(self.tiers.values())
        self._min_cap = min(self.tiers) if self.tiers else 0.0

    @property
    def nodes(self) -> int:
        return self._nodes

    def qualifying(self, ssd: float) -> int:
        if ssd <= self._min_cap:
            return self._nodes
        return sum(n for cap, n in self.tiers.items() if cap >= ssd)

    def fits(self, job: Job) -> bool:
        return job.bb <= self.bb and self.qualifying(job.ssd) >= job.nodes

    def take(self, job: Job) -> Dict[float, int]:
        """Consume the job's demand, smallest qualifying tier first.

        Returns the per-tier node counts taken (used to plan the job's
        own future release).
        """
        if not self.fits(job):
            raise SchedulingError(f"job {job.jid} does not fit in planning pool")
        self.bb -= job.bb
        remaining = job.nodes
        taken: Dict[float, int] = {}
        for cap in sorted(self.tiers):
            if cap < job.ssd or remaining == 0:
                continue
            grab = min(self.tiers[cap], remaining)
            if grab:
                self.tiers[cap] -= grab
                taken[cap] = grab
                remaining -= grab
        assert remaining == 0
        self._nodes -= job.nodes
        return taken


@dataclass(frozen=True)
class BackfillPlan:
    """Result of one backfill pass."""

    #: Jobs to start now, in decision order.
    to_start: Tuple[Job, ...]
    #: Shadow time reserved for the head job (None when the queue was empty
    #: or the head can never fit, e.g. it exceeds total capacity).
    shadow_time: Optional[float]


class EasyBackfill:
    """Plans EASY backfill decisions over the post-selection queue."""

    def plan(
        self,
        queue: Sequence[Job],
        free_bb: float,
        free_tiers: Mapping[float, int],
        releases: Sequence[PlannedRelease],
        now: float,
    ) -> BackfillPlan:
        """Classic EASY over the remaining queue.

        Queue heads start in priority order while they fit (the base
        scheduler's normal pass — without this, a fitting job left at the
        head by an imperfect window selection would have its resources
        *reserved but idle* until the next event).  The first head that
        does not fit gets the shadow-time reservation; jobs behind it may
        start only if they cannot delay it.

        Parameters
        ----------
        queue:
            Remaining eligible jobs in priority order.
        free_bb, free_tiers:
            Current free burst buffer (GB) and free node count per SSD tier.
        releases:
            Planned releases of currently running jobs, sorted by
            ``est_end`` with ties in start order (the engine's ledger);
            the list is not modified.
        now:
            Current simulation time.
        """
        if not queue:
            return BackfillPlan(to_start=(), shadow_time=None)

        pool = _Pool(free_bb, free_tiers)
        started: List[Job] = []
        head_releases: List[PlannedRelease] = []
        idx = 0
        while idx < len(queue) and pool.fits(queue[idx]):
            job = queue[idx]
            taken = pool.take(job)
            started.append(job)
            # A started head is a future release for the shadow computation.
            head_releases.append(PlannedRelease(
                est_end=now + job.walltime, bb=job.bb, nodes_by_tier=taken,
            ))
            idx += 1
        if idx >= len(queue):
            return BackfillPlan(to_start=tuple(started), shadow_time=None)
        if head_releases:
            # Stable: a started head follows the running releases it ties with.
            releases = sorted([*releases, *head_releases], key=by_est_end)

        head = queue[idx]
        shadow, stop, reserved_bb = self._shadow_time(head, pool, releases, now)
        # The extra pool is built from the pool as it stands now, on the
        # first candidate that would run past the shadow time (under a
        # third of the plans on the paper traces).
        reserved_tiers = dict(pool.tiers)
        extra: Optional[_Pool] = None

        for job in queue[idx + 1:]:
            # Most candidates fail on the totals alone; ``fits`` then
            # settles the SSD tiers.
            if job.bb > pool.bb or job.nodes > pool._nodes or not pool.fits(job):
                continue
            if shadow is None or now + job.walltime <= shadow:
                # Ends before the head needs its resources (or head can
                # never fit, so nothing to protect): safe to start.
                pool.take(job)
                started.append(job)
                continue
            if extra is None:
                extra = self._extra_pool(head, reserved_tiers, reserved_bb,
                                         releases[:stop])
            if extra.fits(job):
                # Runs past the shadow time but inside the spare capacity
                # left after the head's reservation.
                pool.take(job)
                extra.take(job)
                started.append(job)
        return BackfillPlan(to_start=tuple(started), shadow_time=shadow)

    @staticmethod
    def _shadow_time(
        head: Job,
        pool: _Pool,
        releases: Sequence[PlannedRelease],
        now: float,
    ) -> Tuple[Optional[float], int, float]:
        """``(shadow, k, bb)``: the head fits at ``shadow``, once the first
        ``k`` releases have freed their resources, with ``bb`` burst
        buffer free by then.

        Walks the sorted releases keeping only the two numbers the head's
        fit depends on: the free burst buffer, folded left from
        ``pool.bb`` in release order exactly as adding each release to a
        pool would, and the free nodes whose SSD tier meets the head's
        request.  The shadow is ``None`` when the head cannot fit even
        after every release (it exceeds total capacity — a trace error
        upstream, but we degrade to plain "fits now" backfilling rather
        than crash).
        """
        bb, nodes, ssd = head.bb, head.nodes, head.ssd
        free_bb = pool.bb
        qualifying = pool.qualifying(ssd)
        if bb <= free_bb and qualifying >= nodes:
            return now, 0, free_bb
        for k, release in enumerate(releases, start=1):
            free_bb += release.bb
            if ssd <= release.min_cap:
                qualifying += release.nodes
            else:
                qualifying += sum(
                    n for cap, n in release.nodes_by_tier.items() if cap >= ssd
                )
            if bb <= free_bb and qualifying >= nodes:
                return max(release.est_end, now + _OVERRUN_EPSILON), k, free_bb
        return None, 0, free_bb

    @staticmethod
    def _extra_pool(
        head: Job,
        tiers: Dict[float, int],
        free_bb: float,
        releases: Sequence[PlannedRelease],
    ) -> _Pool:
        """The pool ``tiers`` plus ``releases``, with ``free_bb`` burst
        buffer, less the head's reservation (``tiers`` is added into)."""
        for release in releases:
            for cap, n in release.nodes_by_tier.items():
                tiers[cap] = tiers.get(cap, 0) + n
        extra = _Pool(free_bb, tiers)
        extra.take(head)
        return extra
