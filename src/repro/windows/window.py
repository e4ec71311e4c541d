"""Window-based scheduling (§3.1).

Instead of allocating jobs one by one from the queue front, BBSched (and,
for fair comparison, every method in §4.3) draws a *window* of the first
``w`` eligible jobs from the priority-ordered queue and optimizes the
selection within it.  Two refinements from §3.1:

* **dependency gating** — a job enters the window only when all of its
  dependencies have completed, preserving dependent-job ordering;
* **starvation bound** — a job that has sat in the window unselected for
  more than ``starvation_bound`` scheduling invocations *must* be selected
  next (window ages live on the jobs as ``job.window_age``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..simulator.job import Job
from ..telemetry import get_tracer

#: Default number of invocations a job may remain unselected (§3.1 cites 50).
DEFAULT_STARVATION_BOUND = 50
#: Default window size (§4.3 uses w=20).
DEFAULT_WINDOW_SIZE = 20


@dataclass(frozen=True)
class Window:
    """The jobs under optimization at one scheduling invocation.

    ``forced`` holds indices (into ``jobs``) of jobs past the starvation
    bound, in window order.
    """

    jobs: Tuple[Job, ...]
    forced: Tuple[int, ...] = ()

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self):
        return iter(self.jobs)


class WindowPolicy:
    """Extracts windows and maintains starvation counters.

    Parameters
    ----------
    size:
        Window size ``w`` — a site-tunable trade-off between optimization
        opportunity and preservation of the base scheduler's job order.
    starvation_bound:
        Invocations a job may stay in the window unselected before it is
        force-selected.  ``None`` disables starvation protection.
    """

    def __init__(
        self,
        size: int = DEFAULT_WINDOW_SIZE,
        starvation_bound: int | None = DEFAULT_STARVATION_BOUND,
    ) -> None:
        if size <= 0:
            raise ConfigurationError(f"window size must be positive, got {size}")
        if starvation_bound is not None and starvation_bound <= 0:
            raise ConfigurationError(
                f"starvation bound must be positive or None, got {starvation_bound}"
            )
        self.size = size
        self.starvation_bound = starvation_bound

    def eligible(self, ordered_queue: Sequence[Job], completed: AbstractSet[int]) -> List[Job]:
        """Jobs whose dependencies have all completed, in queue order."""
        return [j for j in ordered_queue if j.deps <= completed]

    def scope_size(self, eligible_count: int) -> int:
        """How many queue-front jobs this invocation examines.

        Used by the engine's window-scoped backfilling; dynamic policies
        override it to track their current window size.
        """
        return self.size

    def extract_eligible(
        self, eligible: Sequence[Job], eligible_count: Optional[int] = None
    ) -> Window:
        """Build the window from an already-computed eligible list.

        The engine computes the priority-ordered eligible list once per
        scheduling pass and shares it between window extraction and
        window-scoped backfilling; this entry point avoids re-deriving it.
        ``eligible`` may be just the front of that list, in which case
        ``eligible_count`` gives the full list's length (the window size
        is a function of it, see :meth:`scope_size`).  Jobs already past
        the starvation bound are flagged forced.
        """
        if eligible_count is None:
            eligible_count = len(eligible)
        jobs = tuple(eligible[: self.scope_size(eligible_count)])
        if self.starvation_bound is None:
            return Window(jobs=jobs)
        forced = tuple(
            i for i, j in enumerate(jobs) if j.window_age >= self.starvation_bound
        )
        if forced:
            get_tracer().instant(
                "starvation_forced",
                count=len(forced),
                jids=[jobs[i].jid for i in forced],
            )
        return Window(jobs=jobs, forced=forced)

    def extract(
        self, ordered_queue: Sequence[Job], completed: AbstractSet[int]
    ) -> Window:
        """Build the window from a priority-ordered queue.

        ``completed`` is the set of completed job ids used for dependency
        gating.
        """
        return self.extract_eligible(self.eligible(ordered_queue, completed))

    def record_outcome(self, window: Window, selected: AbstractSet[int]) -> None:
        """Update starvation ages after a selection.

        Selected jobs leave the queue; unselected window members age by
        one invocation.
        """
        for i, job in enumerate(window.jobs):
            if i in selected:
                job.window_age = 0
            else:
                job.window_age += 1
