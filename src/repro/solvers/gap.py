"""Optimality-gap yardstick: how far from exact is the GA, per pass?

The GA returns an *approximate* Pareto set; the MILP solver an *exact*
scalar optimum.  The yardstick rides along with a selector and, for each
scheduling pass, re-solves the pass's window-selection problem exactly
under the selector's own scalarization, then records the relative gap

    gap = max(0, (opt − achieved) / |opt|)        (0 when |opt| ≈ 0)

so a run's gap distribution quantifies solution quality, not just
throughput.  This is the §4 comparison the paper could not make (no
exact reference at scale): with the MILP solver, windows up to w ≈ 30+
get an exact yardstick instead of an exhaustive one capped at w = 26.

Design constraints honoured here:

* the yardstick must **never perturb the measured run** — the exact
  solver ignores seeds and consumes no RNG, so results with and without
  the yardstick are byte-identical (the differential suite relies on it);
* problems the exact solver cannot represent (the §5 SSD sweep) are
  *skipped and counted*, never silently mis-measured;
* measurement failures (node-budget blowouts on adversarial windows) are
  also skips: a missing sample beats a bogus one.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..errors import ReproError
from .base import WindowSolver
from .milp import MILPWindowSolver

#: |opt| below this is treated as zero (empty windows, all-zero demands).
_ZERO = 1e-12


class OptimalityYardstick:
    """Per-pass GA-vs-exact relative gap recorder.

    Parameters
    ----------
    solver:
        The exact reference solver; defaults to a fresh
        :class:`~repro.solvers.milp.MILPWindowSolver`.

    Attributes
    ----------
    gaps:
        One relative gap per measured pass, in pass order.
    skipped:
        Passes not measured (unsupported formulation or solver failure).
    """

    def __init__(self, solver: Optional[WindowSolver] = None) -> None:
        self.solver = solver if solver is not None else MILPWindowSolver()
        self.gaps: List[float] = []
        self.skipped: int = 0

    def measure(
        self,
        problem,
        coeffs: Sequence[float],
        achieved: float,
    ) -> Optional[float]:
        """Record the gap between ``achieved`` and the exact optimum.

        ``achieved`` is the scalarized value the approximate method
        actually obtained under ``coeffs`` (for a front method, the best
        scalarization over its front).  Returns the recorded gap, or
        ``None`` when the pass was skipped.
        """
        if not self.solver.supports(problem):
            self.skipped += 1
            return None
        try:
            exact = self.solver.solve_scalar(problem, coeffs)
        except ReproError:
            self.skipped += 1
            return None
        opt = float(exact.fitness)
        if abs(opt) <= _ZERO:
            gap = 0.0
        else:
            # The GA can only be worse; a "negative gap" is float noise.
            gap = max(0.0, (opt - float(achieved)) / abs(opt))
        self.gaps.append(gap)
        return gap

    def measure_front(self, problem, coeffs: Sequence[float], front) -> Optional[float]:
        """Gap for a front method: best scalarization over its Pareto set."""
        if len(front) == 0:
            self.skipped += 1
            return None
        achieved = float(
            np.max(np.asarray(front.objectives, dtype=float) @ np.asarray(coeffs, dtype=float))
        )
        return self.measure(problem, coeffs, achieved)

    def summary(self) -> Optional[dict]:
        """count / mean / max / p95 of the recorded gaps (None if empty)."""
        if not self.gaps:
            return None
        arr = np.asarray(self.gaps, dtype=float)
        return {
            "count": int(arr.size),
            "mean": float(arr.mean()),
            "max": float(arr.max()),
            "p95": float(np.percentile(arr, 95.0)),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OptimalityYardstick(samples={len(self.gaps)}, "
            f"skipped={self.skipped}, solver={self.solver.name!r})"
        )
