"""Exact MILP window selection: knapsack-style 0/1 programs past 2^w.

The §3.2.1 window-selection problem over a :class:`SelectionProblem` is a
pure 0/1 linear program: genes ``x ∈ {0,1}^w``, objectives
``F(x) = xᵀ·demands`` and capacity rows ``xᵀ·demands ≤ capacities``, with
forced genes (§3.1 starvation bound) pinned to 1.  That makes two exact
questions tractable far beyond :mod:`repro.core.exhaustive`'s 2^w wall:

* **scalar optimum** (:meth:`MILPWindowSolver.solve_scalar`) —
  ``max coeffs·F(x)``, decomposed over node totals when node demands are
  integral, else one 0/1 program;
* **true Pareto front** (:meth:`MILPWindowSolver.solve`, two objectives) —
  an ε-constraint sweep over node totals.  :class:`_LevelTables` lists
  every achievable node total (f1 level) in descending order with one
  knapsack DP, then the sweep maximizes ``f2`` at each exact level.  Node
  demands are integral, so "exact level" is the box ``t − 0.5 ≤ f1 ≤
  t + 0.5`` — no float equality constraints.  A level enters the front
  iff its ``f2`` strictly improves on all higher-``f1`` levels, which is
  precisely :func:`repro.core.pareto.pareto_front_2d`'s membership rule.

One dependency-free solver answers the underlying 0/1 programs: a
branch-and-bound over the row form, with fractional-knapsack objective
bounds, bitset reachability on integral lower-bounded rows, and an
exact-total DP bound on the sweep's level boxes.  Levels whose
burst-buffer cap is slack are read straight off the DP with no search.
The §5 SSD problem is *not* representable here (its waste objective and
feasibility come from an order-dependent greedy tier sweep, not a linear
form) — :meth:`supports` reports ``False`` and the solver refuses with a
clear error instead of answering a different problem.
"""

from __future__ import annotations

import sys
from typing import List, Optional, Sequence

import numpy as np

from ..core.ga import ParetoSet
from ..core.problem import MOOProblem, SelectionProblem
from ..core.scalar import ScalarSolution
from ..errors import SolverError
from ..rng import SeedLike
from .base import WindowSolver

#: Feasibility tolerance, matching ``SelectionProblem.feasible``.
_TOL = 1e-9
_INF = float("inf")

#: Cap on phase-2 0/1 programs per level search; levels answered by the
#: DP skip/reconstruct fast paths are free.  Degenerate instances fail
#: loudly instead of spinning.
_MAX_SOLVES = 10_000
#: Branch-and-bound node cap per 0/1 program.
_NODE_BUDGET = 2_000_000


def _branch_and_bound(
    values: np.ndarray,
    rows: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
    forced: Sequence[int],
    w: int,
    node_budget: int,
) -> Optional[np.ndarray]:
    """Branch-and-bound for ``max values·x`` over ``lb ≤ rows·x ≤ ub``.

    All row coefficients are non-negative (demand matrices), which the
    pruning relies on: activities only grow as genes are taken, so an
    upper-bound row can be checked incrementally and a lower-bound row by
    suffix reachability.  The objective bound is a fractional knapsack on
    a surrogate aggregate row (each finite row normalized by its residual
    capacity at the root), explored in the same density order used for
    branching so the greedy prefix walk is the exact LP bound.

    Returns the gene vector of one optimum, or None when infeasible.
    """
    m = rows.shape[0]
    forced_vec = np.zeros(w)
    if forced:
        forced_vec[list(forced)] = 1.0
    act0v = rows @ forced_vec if m else np.zeros(0)
    if m and (act0v > ub + _TOL).any():
        return None
    base_value = float(values @ forced_vec)

    forced_mask = forced_vec.astype(bool)
    free = np.flatnonzero(~forced_mask)
    finite = [int(r) for r in np.flatnonzero(np.isfinite(ub))] if m else []
    lb_rows = [int(r) for r in np.flatnonzero(lb > -np.inf)] if m else []

    # Branch order: value density against a surrogate aggregate weight
    # (each finite row normalized by its residual capacity at the root).
    if finite:
        residual0 = np.maximum(ub[finite] - act0v[finite], 1e-12)
        agg_w = (rows[finite] / residual0[:, None]).sum(axis=0)
    else:
        residual0 = np.zeros(0)
        agg_w = np.zeros(w)
    density = values / np.maximum(agg_w, 1e-12)
    # High density first; index tiebreak keeps runs deterministic.
    order = free[np.lexsort((free, -density[free]))]
    n = order.size

    # Hot-path data in plain lists: the search below is pure-Python
    # recursion and float work, and numpy scalar indexing would dominate.
    vals = [float(v) for v in values[order]]
    pos = [v if v > 0.0 else 0.0 for v in vals]
    ordered_w = [float(v) for v in agg_w[order]]
    cols = [[float(rows[r, item]) for r in range(m)] for item in order]
    ub_l = [float(v) for v in ub]
    lb_l = [float(v) for v in lb]
    suffix_pos = [0.0] * (n + 1)
    suffix_zero = [0.0] * (n + 1)
    for j in range(n - 1, -1, -1):
        suffix_pos[j] = suffix_pos[j + 1] + pos[j]
        suffix_zero[j] = suffix_zero[j + 1] + (
            pos[j] if ordered_w[j] <= 1e-12 else 0.0
        )
    # Suffix row sums: can a lower-bound row still be reached from here?
    suffix_rows = []
    for r in lb_rows:
        srow = [0.0] * (n + 1)
        for j in range(n - 1, -1, -1):
            srow[j] = srow[j + 1] + cols[j][r]
        suffix_rows.append((r, srow))
    # Per-row fractional-knapsack orders: each finite row alone is a
    # relaxation of the program, so min over rows is a valid — and much
    # tighter — objective bound than the aggregate surrogate.
    row_bounds = []
    for r in finite:
        wr = np.array([cols[j][r] for j in range(n)])
        dens = np.array(pos) / np.maximum(wr, 1e-12)
        row_order = [int(j) for j in np.lexsort((np.arange(n), -dens))]
        row_bounds.append((r, row_order, [float(v) for v in wr]))
    # Bitset reachability for *integral* lower-bounded rows (the sweep's
    # exact-level box): bit s of reach[i] is set iff the open items j ≥ i
    # can sum to exactly s on that row.  One big-int AND per node then
    # prunes every subtree that cannot land inside [lb, ub].
    bit_rows = []
    for r in lb_rows:
        coeffs = np.array([cols[j][r] for j in range(n)])
        if not np.allclose(coeffs, np.round(coeffs)):
            continue
        ints = [int(round(c)) for c in coeffs]
        reach = [0] * (n + 1)
        reach[n] = 1
        for j in range(n - 1, -1, -1):
            reach[j] = reach[j + 1] | (reach[j + 1] << ints[j])
        bit_rows.append((r, reach))
    # Exact-total suffix DP for a width-1 integral box row (the level
    # programs of the ε-constraint sweep): box_dp[i][s] bounds the value
    # collectable from open items i.. whose box-row coefficients sum to
    # exactly s.  Infinitely tighter than a fractional knapsack — it is
    # exact whenever the other capacity rows are slack — and it prices
    # every node total, so box programs prune to near-nothing.
    box_dp = None
    box_row = -1
    box_target = 0
    for r, _ in bit_rows:
        if ub_l[r] == _INF:
            continue
        target = int(ub_l[r] + _TOL)
        if target < 0 or target != int(-(-(lb_l[r] - _TOL) // 1)):
            continue
        base = int(round(act0v[r])) if m else 0
        rem0 = target - base
        if rem0 < 0:
            return None
        ints = [int(round(cols[j][r])) for j in range(n)]
        dp = np.full((n + 1, rem0 + 1), -np.inf)
        dp[n, 0] = 0.0
        for j in range(n - 1, -1, -1):
            dp[j] = dp[j + 1]
            c = ints[j]
            if c == 0:
                dp[j] += pos[j]
            elif c <= rem0:
                cand = dp[j + 1][: rem0 + 1 - c] + pos[j]
                view = dp[j][c:]
                np.maximum(view, cand, out=view)
        box_dp = dp.tolist()
        box_row = r
        box_target = target
        break

    best_value = -np.inf
    best_take: Optional[list] = None
    take = [0] * n

    def leaf_feasible(act: list) -> bool:
        return all(act[r] >= lb_l[r] - _TOL for r in lb_rows)

    # Greedy incumbent in branch order: a head start for the pruning.
    g_act = [float(a) for a in act0v]
    g_take = [0] * n
    g_val = base_value
    for i in range(n):
        col = cols[i]
        if all(g_act[r] + col[r] <= ub_l[r] + _TOL for r in range(m)):
            if vals[i] > 0.0 or (lb_rows and not leaf_feasible(g_act)):
                for r in range(m):
                    g_act[r] += col[r]
                g_val += vals[i]
                g_take[i] = 1
    if leaf_feasible(g_act):
        best_value, best_take = g_val, list(g_take)

    def bound(i: int, act: list, cur: float) -> float:
        best = cur + suffix_pos[i]
        for r, row_order, weights in row_bounds:
            cap_r = ub_l[r] - act[r]
            total = cur
            for j in row_order:
                if j < i or pos[j] == 0.0:
                    continue
                wgt = weights[j]
                if wgt <= 1e-12:
                    total += pos[j]
                elif wgt <= cap_r:
                    cap_r -= wgt
                    total += pos[j]
                else:
                    total += pos[j] * (cap_r / wgt)
                    break
            if total < best:
                best = total
                if best <= best_value + 1e-12:
                    return best
        if finite:
            # Aggregate surrogate: occasionally tighter when rows interact.
            cap = 0.0
            for k, r in enumerate(finite):
                ratio = (ub_l[r] - act[r]) / residual0[k]
                cap += 1.0 if ratio > 1.0 else (ratio if ratio > 0.0 else 0.0)
            total = cur
            for j in range(i, n):
                v = pos[j]
                if v == 0.0:
                    continue
                wgt = ordered_w[j]
                if wgt <= 1e-12:
                    total += v
                elif wgt <= cap:
                    cap -= wgt
                    total += v
                else:
                    total += v * (cap / wgt)
                    total += suffix_zero[j + 1]
                    break
            if total < best:
                best = total
        return best

    nodes = 0
    sys.setrecursionlimit(max(sys.getrecursionlimit(), n + 200))

    def rec(i: int, act: list, cur: float) -> None:
        nonlocal best_value, best_take, nodes
        nodes += 1
        if nodes > node_budget:
            raise SolverError(
                f"branch-and-bound exceeded its {node_budget}-node budget (w={w})"
            )
        for r, srow in suffix_rows:
            if act[r] + srow[i] < lb_l[r] - _TOL:
                return
        for r, reach in bit_rows:
            lo = lb_l[r] - act[r] - _TOL
            lo_i = 0 if lo <= 0 else int(-(-lo // 1))
            hi = ub_l[r] - act[r] + _TOL
            if hi == _INF:
                if not reach[i] >> lo_i:
                    return
                continue
            hi_i = int(hi // 1)
            if hi_i < lo_i or not (reach[i] >> lo_i) & ((1 << (hi_i - lo_i + 1)) - 1):
                return
        if box_dp is not None:
            rem = box_target - int(act[box_row] + 0.5)
            if rem < 0:
                return
            cap_val = box_dp[i][rem]
            if cap_val == -_INF:
                return
            if best_take is not None and cur + cap_val <= best_value + 1e-12:
                return
        if best_take is not None and bound(i, act, cur) <= best_value + 1e-12:
            return
        if i == n:
            if leaf_feasible(act) and cur > best_value:
                best_value, best_take = cur, list(take)
            return
        col = cols[i]
        if all(act[r] + col[r] <= ub_l[r] + _TOL for r in range(m)):
            take[i] = 1
            rec(i + 1, [act[r] + col[r] for r in range(m)], cur + vals[i])
            take[i] = 0
        rec(i + 1, act, cur)

    rec(0, [float(a) for a in act0v], base_value)
    if best_take is None:
        return None
    genes = forced_mask.astype(np.uint8)
    if n:
        genes[order] = np.array(best_take, dtype=np.uint8)
    if forced:
        genes[list(forced)] = 1
    return genes


class _LevelTables:
    """Knapsack DPs over integral node totals for the ε-constraint sweep.

    Phase 1 of the classic sweep (max f1 under a descending cap) is a
    subset-sum — its objective coincides with its own integral constraint
    row — which is the worst case for branch-and-bound and the best case
    for a DP.  Two DPs over node totals ``t ≤ cap_node`` replace it:

    * ``minbb[t]`` — the minimum burst-buffer sum of a selection with
      node total exactly ``t``; the total is an achievable front *level*
      iff ``minbb[t] ≤ cap_bb``.
    * ``maxbb[t]`` — the maximum burst-buffer sum at total ``t``
      *ignoring* the BB cap: an upper bound on phase 2's answer, so a
      level whose bound cannot beat the running front is skipped in O(1),
      and a level whose bound is comfortably under the cap is solved by
      DP reconstruction with no branch-and-bound at all.

    Zero-node jobs never move a level; their BB rides on top of ``maxbb``
    (they are all taken in the unconstrained optimum) and never into
    ``minbb``.
    """

    def __init__(
        self,
        n_int: np.ndarray,
        bb: np.ndarray,
        cap_node: float,
        cap_bb: float,
        forced: Sequence[int],
    ) -> None:
        self.w = int(n_int.size)
        self.cap = int(min(float(cap_node), float(n_int.sum())) + _TOL)
        forced_set = set(int(i) for i in forced)
        self.forced = forced_set
        base_t = int(sum(int(n_int[i]) for i in forced_set))
        base_b = float(sum(float(bb[i]) for i in forced_set))
        free = [i for i in range(self.w) if i not in forced_set]
        if self.cap < 0 or base_t > self.cap or base_b > cap_bb + _TOL:
            self.levels = np.zeros(0, dtype=np.int64)
            self.maxbb = np.zeros(0)
            self._table = None
            self._items = []
            self._zero_items = []
            return
        #: Free items that can move the node total (0 < step ≤ cap).
        self._items = [
            (i, int(n_int[i]), float(bb[i]))
            for i in free
            if 0 < int(n_int[i]) <= self.cap
        ]
        self._zero_items = [i for i in free if int(n_int[i]) == 0]
        zero_bb = float(sum(float(bb[i]) for i in self._zero_items))

        minbb = np.full(self.cap + 1, np.inf)
        minbb[base_t] = base_b
        # Full max-DP table kept for reconstruction: row k is the optimum
        # over the first k items.
        table = np.full((len(self._items) + 1, self.cap + 1), -np.inf)
        table[0, base_t] = base_b
        for k, (_, step, b) in enumerate(self._items):
            # RHS slices are materialized before assignment, so each item
            # is used at most once (0/1 semantics).
            minbb[step:] = np.minimum(minbb[step:], minbb[:-step] + b)
            table[k + 1] = table[k]
            cand = table[k, :-step] + b
            view = table[k + 1, step:]
            upd = cand > view
            view[upd] = cand[upd]
        self.levels = np.flatnonzero(minbb <= cap_bb + _TOL)[::-1].astype(np.int64)
        self.maxbb = table[-1] + zero_bb
        self._table = table

    def reconstruct(self, level: int) -> np.ndarray:
        """Genes of the BB-cap-free optimum at ``level`` (plus forced)."""
        genes = np.zeros(self.w, dtype=np.uint8)
        for i in self.forced:
            genes[i] = 1
        t = int(level)
        table = self._table
        for k in range(len(self._items) - 1, -1, -1):
            i, step, _ = self._items[k]
            if t >= step and table[k + 1, t] > table[k, t]:
                genes[i] = 1
                t -= step
        for i in self._zero_items:
            genes[i] = 1
        return genes


class MILPWindowSolver(WindowSolver):
    """Exact 0/1-program window solver (level DP plus branch-and-bound)."""

    name = "milp"
    exact = True

    def __init__(self) -> None:
        #: Per-instance counter: 0/1 programs handed to the solver.
        self.stats = {"solves": 0}

    def supports(self, problem: MOOProblem) -> bool:
        # SSDSelectionProblem (§5) is NOT linear: its waste objective and
        # feasibility come from an order-dependent greedy tier sweep.
        return isinstance(problem, SelectionProblem)

    def _require_support(self, problem: MOOProblem) -> SelectionProblem:
        if not self.supports(problem):
            raise SolverError(
                f"MILP solver cannot represent {type(problem).__name__}: only "
                "linear SelectionProblem formulations are exactly expressible "
                "(the §5 SSD waste objective is a greedy sweep, not a linear "
                "form); use the GA or exhaustive solver for it"
            )
        return problem

    def _solve_binary(
        self,
        values: np.ndarray,
        rows: np.ndarray,
        lb: np.ndarray,
        ub: np.ndarray,
        forced: Sequence[int],
        w: int,
        node_budget: int = _NODE_BUDGET,
    ) -> Optional[np.ndarray]:
        """One 0/1 program; returns an optimal gene vector or None."""
        self.stats["solves"] += 1
        if w == 0:
            # rows is (m, 0): every activity is 0, so each row needs
            # lb ≤ 0 ≤ ub (empty arrays pass vacuously).
            ok = bool((lb <= _TOL).all() and (ub >= -_TOL).all())
            return np.zeros(0, dtype=np.uint8) if ok else None
        return _branch_and_bound(values, rows, lb, ub, forced, w, node_budget)

    def solve_scalar(
        self, problem: MOOProblem, coeffs: Sequence[float], seed: SeedLike = None
    ) -> ScalarSolution:
        """Exact ``max coeffs·F(x)``; ``seed`` accepted and ignored."""
        problem = self._require_support(problem)
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (problem.n_objectives,):
            raise SolverError(
                f"coeffs must have shape ({problem.n_objectives},), "
                f"got {coeffs.shape}"
            )
        if problem.n_objectives == 2 and coeffs[1] >= 0.0 and problem.w > 0:
            d1 = problem.demands[:, 0]
            if np.allclose(d1, np.round(d1)):
                # Decompose over node totals: correlated two-cap knapsacks
                # are the branch-and-bound worst case as one free program,
                # but per-level they collapse to DP lookups or tightly
                # boxed subproblems.
                return self._scalar_by_levels(problem, coeffs)
        values = problem.demands @ coeffs
        rows = problem.demands.T
        lb = np.full(problem.n_objectives, -np.inf)
        ub = problem.capacities.astype(float)
        genes = self._solve_binary(values, rows, lb, ub, problem.forced, problem.w)
        if genes is None:
            raise SolverError("selection problem is infeasible (forced rows?)")
        objectives = problem.evaluate(genes[None, :])[0]
        return ScalarSolution(
            genes=genes,
            objectives=objectives,
            fitness=float(objectives @ coeffs),
        )

    def _scalar_by_levels(
        self,
        problem: SelectionProblem,
        coeffs: np.ndarray,
    ) -> ScalarSolution:
        """``max c1·f1 + c2·f2`` via the node-total decomposition.

        For ``c2 ≥ 0`` the optimum restricted to node total ``t`` is
        attained by a max-``f2`` selection at ``t``, so the global optimum
        is ``max over achievable t of (c1·t + c2·phase2(t))``.  Levels are
        visited in descending order of the DP upper bound
        ``c1·t + c2·min(maxbb[t], cap_bb)`` and the search stops as soon
        as the bound drops below the incumbent — usually after one or two
        levels.
        """
        d1 = problem.demands[:, 0]
        d2 = problem.demands[:, 1]
        cap_ub = problem.capacities.astype(float)
        cap_bb = float(cap_ub[1])
        tables = _LevelTables(
            np.round(d1).astype(np.int64), d2, cap_ub[0], cap_bb, problem.forced
        )
        if tables.levels.size == 0:
            raise SolverError("selection problem is infeasible (forced rows?)")
        levels = tables.levels
        bounds = coeffs[0] * levels + coeffs[1] * np.minimum(
            tables.maxbb[levels], cap_bb
        )
        visit = np.argsort(-bounds, kind="stable")
        rows = np.vstack([problem.demands.T, d1])
        best_val = -np.inf
        best_genes: Optional[np.ndarray] = None
        best_obj: Optional[np.ndarray] = None
        solves = 0
        for idx in visit:
            # 1e-9 margin: the DP bound and problem.evaluate sum floats in
            # different orders, so only a clear shortfall is conclusive.
            if bounds[idx] <= best_val - 1e-9 and best_genes is not None:
                break
            level = int(levels[idx])
            if tables.maxbb[level] <= cap_bb - 1e-6:
                sol = tables.reconstruct(level)
            else:
                solves += 1
                if solves > _MAX_SOLVES:
                    raise SolverError(
                        f"scalar level search exceeded {_MAX_SOLVES} "
                        f"programs (w={problem.w})"
                    )
                lo = np.array([-np.inf, -np.inf, float(level) - 0.5])
                hi = np.append(cap_ub, float(level) + 0.5)
                sol = self._solve_binary(d2, rows, lo, hi, problem.forced, problem.w)
                if sol is None:  # cannot happen: the DP proved it feasible
                    raise SolverError("scalar level program infeasible (solver bug)")
            objectives = problem.evaluate(sol[None, :])[0]
            val = float(objectives @ coeffs)
            if val > best_val:
                best_val, best_genes, best_obj = val, sol, objectives
        return ScalarSolution(genes=best_genes, objectives=best_obj, fitness=best_val)

    def solve(self, problem: MOOProblem, seed: SeedLike = None) -> ParetoSet:
        """The exact Pareto front via an ε-constraint sweep (2 objectives).

        ``seed`` is accepted and ignored (deterministic; never touches the
        RNG stream, so a MILP yardstick beside a GA run cannot perturb it).
        """
        problem = self._require_support(problem)
        if problem.n_objectives != 2:
            raise SolverError(
                "the ε-constraint front sweep handles exactly 2 objectives, "
                f"got {problem.n_objectives}; use solve_scalar for a single "
                "scalarization"
            )
        if problem.w == 0:
            return ParetoSet(
                genes=np.zeros((0, 0), dtype=np.uint8),
                objectives=np.zeros((0, 2)),
            )
        d1 = problem.demands[:, 0]
        d2 = problem.demands[:, 1]
        if not np.allclose(d1, np.round(d1)):
            raise SolverError(
                "ε-constraint sweep requires integral first-objective demands "
                "(node counts); got fractional values"
            )
        cap_ub = problem.capacities.astype(float)
        cap_bb = float(cap_ub[1])
        tables = _LevelTables(
            np.round(d1).astype(np.int64), d2, cap_ub[0], cap_bb, problem.forced
        )
        rows = np.vstack([problem.demands.T, d1])
        genes_rows: List[np.ndarray] = []
        objective_rows: List[np.ndarray] = []
        best2 = -np.inf
        # Global max-f2 pre-solve: once the sweep's running best f2
        # reaches this, every remaining (lower-f1) level is dominated and
        # the sweep stops.  Without it, tight-cap instances grind through
        # hundreds of levels below the front's last point.
        f2_star = np.inf  # ∞ = unknown: the break below simply never fires
        try:
            star = self._solve_binary(
                d2,
                problem.demands.T,
                np.full(2, -np.inf),
                cap_ub,
                problem.forced,
                problem.w,
                node_budget=200_000,
            )
        except SolverError:
            # The branch-and-bound can time out on this free program
            # (maximizing f2 against its own constraint row is a
            # subset-sum); the sweep is still exact without the break.
            star = None
        else:
            if star is not None:
                f2_star = float(problem.evaluate(star[None, :])[0][1])
        solves = 0
        for level in tables.levels:
            if best2 >= f2_star:
                break
            # Upper bound from the cap-free DP: a level that cannot beat
            # the running best f2 is not a front point; skip it.  The
            # 1e-9 margin keeps the skip conservative against the DP's
            # different float summation order.
            bb_bound = float(tables.maxbb[level])
            if bb_bound <= best2 - 1e-9:
                continue
            if bb_bound <= cap_bb - 1e-6:
                # The BB cap is slack at this level: the cap-free DP
                # optimum is the exact phase-2 answer.
                sol = tables.reconstruct(int(level))
            else:
                solves += 1
                if solves > _MAX_SOLVES:
                    raise SolverError(
                        f"ε-constraint sweep exceeded {_MAX_SOLVES} phase-2 "
                        f"programs (w={problem.w}); use solve_scalar"
                    )
                # Phase 2: max f2 at exactly this node total.  Node
                # demands are integral, so "f1 = level" is the box
                # [level ± 0.5] — no float equality constraint needed.
                lo = np.array([-np.inf, -np.inf, float(level) - 0.5])
                hi = np.append(cap_ub, float(level) + 0.5)
                sol = self._solve_binary(d2, rows, lo, hi, problem.forced, problem.w)
                if sol is None:  # cannot happen: the DP proved it feasible
                    raise SolverError("ε-constraint phase 2 infeasible (solver bug)")
            objectives = problem.evaluate(sol[None, :])[0]
            # pareto_front_2d membership: strictly better f2 than every
            # higher-f1 level.
            if objectives[1] > best2:
                genes_rows.append(sol)
                objective_rows.append(objectives)
                best2 = objectives[1]
        if not genes_rows:
            raise SolverError("no feasible selection exists (not even the empty one)")
        return ParetoSet(
            genes=np.vstack(genes_rows).astype(np.uint8),
            objectives=np.vstack(objective_rows),
        )
