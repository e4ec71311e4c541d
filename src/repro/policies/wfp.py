"""WFP utility priority — ALCF's capability-computing policy (§2.1).

WFP periodically computes a priority increment for each waiting job that
grows with queue wait and favours *large* jobs while normalising by the
requested walltime so short jobs are not starved indefinitely:

    score(job) = nodes × (wait / walltime) ** exponent

with the cubic exponent used at ALCF (Allcock et al., JSSPP 2017).  Larger
scores run first, which realises Theta's mission of prioritising
capability-scale jobs (§4.4 notes "the baseline method on Theta (WFP)
prefers large jobs").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..simulator.job import Job
from .base import PriorityPolicy

if TYPE_CHECKING:
    from ..simulator.jobtable import JobTable


class WFP(PriorityPolicy):
    """Utility-based priority used on Theta.

    Parameters
    ----------
    exponent:
        Power applied to the normalised wait; ALCF uses 3.
    """

    name = "wfp"

    def __init__(self, exponent: float = 3.0) -> None:
        if exponent <= 0:
            raise ConfigurationError(f"WFP exponent must be positive, got {exponent}")
        self.exponent = exponent

    def priority(self, job: Job, now: float) -> float:
        wait = max(now - job.submit_time, 0.0)
        return job.nodes * (wait / job.walltime) ** self.exponent

    def priority_array(
        self, table: "JobTable", rows: np.ndarray, now: float
    ) -> np.ndarray:
        """Vectorized score, recomputed each pass (wait depends on ``now``).

        Subtraction, max, division, and multiplication are IEEE-exact
        elementwise, so they match the scalar path bit-for-bit.  The
        ``** exponent`` step deliberately goes through Python's ``pow``
        per element: numpy's SIMD ``np.power`` is *not* bit-identical to
        libm's ``pow`` (verified on this build), and the byte-identity
        contract outranks the last drop of vectorization.
        """
        exponent = self.exponent
        powed = np.fromiter(
            (b ** exponent for b in self._base(table, rows, now).tolist()),
            dtype=np.float64,
            count=len(rows),
        )
        return table.nodes[rows] * powed

    def prefix_scores(
        self, table: "JobTable", rows: np.ndarray, now: float, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Exact scores on the rows that can reach the first ``k`` only.

        Candidates come from the estimate ``a = nodes * np.power(base, e)``:
        with ``T`` the ``k``-th largest estimate, a row is kept when
        ``a >= T * (1 - 1e-9)``, and only the kept rows pay the exact
        per-element Python ``**``.

        Why no leader is lost: ``np.power`` and Python ``**`` each round
        the same real power within a few ULP, so for normal results the
        estimate ``a`` and the exact score ``s`` of one row differ by a
        relative ``eps`` of about 1e-15.  At least ``k`` rows have
        ``a >= T``, hence ``s >= T (1 - eps)``, so the exact ``k``-th
        largest score ``S`` is at least ``T (1 - eps)``.  A row in the
        exact first ``k`` (or tied with its last) has ``s >= S``, hence
        ``a >= s (1 - eps) >= T (1 - eps)**2``, well above the
        ``T (1 - 1e-9)`` margin.  The relative bound needs scores far from
        underflow, so when ``T`` is not above 1e-200 (e.g. every job was
        just submitted and scores 0) every row is scored exactly.
        """
        if k < len(rows):
            approx = table.nodes[rows] * np.power(
                self._base(table, rows, now), self.exponent
            )
            kth = np.partition(approx, len(approx) - k)[len(approx) - k]
            if 1e-200 < kth < np.inf:
                rows = rows[approx >= kth * (1.0 - 1e-9)]
        return rows, self.priority_array(table, rows, now)

    @staticmethod
    def _base(table: "JobTable", rows: np.ndarray, now: float) -> np.ndarray:
        """Normalised wait ``max(now - submit, 0) / walltime`` per row."""
        wait = now - table.submit_time[rows]
        np.maximum(wait, 0.0, out=wait)
        return wait / table.walltime[rows]
