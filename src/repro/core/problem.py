"""MOO problem formulations for window job selection (§3.2.1 and §5).

A *problem* binds a scheduling window to the free resources at one
invocation.  Candidate solutions are binary vectors ``x`` of length ``w``
(``x_i = 1`` selects job ``J_i``).  Problems expose population-level,
vectorized evaluation so the GA and exhaustive solvers can score ``(P, w)``
chromosome matrices in a handful of numpy operations.

Two concrete formulations:

* :class:`SelectionProblem` — the §3.2.1 two-objective case (generalised to
  any number of linear objectives): objectives ``F = X @ demands`` and
  constraints ``X @ demands <= capacity`` per resource.
* :class:`SSDSelectionProblem` — the §5 four-objective extension with
  heterogeneous local-SSD tiers.  Objective ``f4`` (negated SSD waste) and
  the tier feasibility constraint depend on the *joint* greedy node
  assignment, so they are evaluated with a per-window-position sweep that
  stays vectorized across the population.

Both support *forced* genes (starvation bound, §3.1): positions that every
candidate must select.  Infeasible chromosomes are repaired by clearing
non-forced genes; construction validates that the forced set alone fits.
"""

from __future__ import annotations

import abc
from typing import Mapping, Sequence, Tuple

import numpy as np

from ..errors import SolverError
from ..rng import SeedLike, make_rng
from ..simulator.job import Job


def _stable_matmul(pop: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Row-subset-stable ``pop @ mat``.

    Each output row is reduced independently (``np.einsum`` evaluates the
    contraction row by row), so evaluating any subset of rows yields
    bitwise the same values as evaluating the full matrix.  A blocked BLAS
    ``@`` does not guarantee that — its per-row results can shift with the
    batch size — and row stability is what lets the GA's evaluation cache
    (:mod:`repro.core.evalcache`) reuse scores across generations without
    changing results.
    """
    return np.einsum("ij,jk->ik", pop, mat)


def _stable_matvec(pop: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Row-subset-stable ``pop @ vec`` (see :func:`_stable_matmul`)."""
    return np.einsum("ij,j->i", pop, vec)


class MOOProblem(abc.ABC):
    """Interface shared by all window-selection MOO problems."""

    #: Number of genes (jobs in the window).
    w: int
    #: Number of maximized objectives.
    n_objectives: int
    #: Gene indices every feasible solution must select.
    forced: Tuple[int, ...]

    @abc.abstractmethod
    def evaluate(self, population: np.ndarray) -> np.ndarray:
        """Objective matrix ``(P, k)`` for a ``(P, w)`` 0/1 population."""

    @abc.abstractmethod
    def feasible(self, population: np.ndarray) -> np.ndarray:
        """Boolean feasibility vector ``(P,)`` for a population."""

    def repair(self, population: np.ndarray, seed: SeedLike = None) -> np.ndarray:
        """Return a feasible copy of ``population``.

        Infeasible chromosomes have randomly chosen *non-forced* selected
        genes cleared one at a time until the constraints hold.  Forced
        genes are first re-asserted.  The input is not modified.

        Per clearing round only the still-infeasible rows are re-checked
        (clearing genes never breaks an untouched row), which preserves the
        historical RNG draw order exactly while skipping most of the
        feasibility work.
        """
        pop = np.asarray(population, dtype=np.uint8)
        self.assert_shape(pop)
        ok = None
        # Fast path: feasible populations with forced genes already set
        # pass through unchanged (no copy).
        if not self.forced or (pop[:, list(self.forced)] == 1).all():
            ok = self.feasible(pop)
            if ok.all():
                return pop
        rng = make_rng(seed)
        pop = np.array(population, dtype=np.uint8, copy=True)
        forced_mask = np.zeros(self.w, dtype=bool)
        if self.forced:
            pop[:, list(self.forced)] = 1
            forced_mask[list(self.forced)] = True
        # ``ok`` (when set) was computed on rows identical to the copy —
        # the fast path only produces it with forced genes already set —
        # so the infeasible-row set needs no second full check.
        bad_idx = np.flatnonzero(~ok) if ok is not None else np.flatnonzero(
            ~self.feasible(pop)
        )
        guard = 0
        while bad_idx.size:
            for i in bad_idx:
                clearable = np.flatnonzero((pop[i] == 1) & ~forced_mask)
                if clearable.size == 0:
                    raise SolverError(
                        "cannot repair chromosome: forced genes alone are infeasible"
                    )
                # Same draw (value and stream) as ``rng.choice(clearable)``
                # — Generator.choice reduces to exactly this int64 draw —
                # minus choice's per-call overhead.
                pick = rng.integers(0, clearable.size, dtype=np.int64)
                pop[i, clearable[pick]] = 0
            still_bad = ~self.feasible(np.ascontiguousarray(pop[bad_idx]))
            bad_idx = bad_idx[still_bad]
            guard += 1
            if guard > self.w + 1:  # pragma: no cover - defensive
                raise SolverError("repair failed to converge")
        return pop

    def assert_shape(self, population: np.ndarray) -> None:
        """Validate a population matrix against this problem."""
        if population.ndim != 2 or population.shape[1] != self.w:
            raise SolverError(
                f"population must be (P, {self.w}), got {population.shape}"
            )

    def random_population(self, size: int, seed: SeedLike = None) -> np.ndarray:
        """Random feasible ``(size, w)`` population (GA initialisation)."""
        if size <= 0:
            raise SolverError(f"population size must be positive, got {size}")
        rng = make_rng(seed)
        pop = rng.integers(0, 2, size=(size, self.w), dtype=np.uint8)
        return self.repair(pop, rng)

    def greedy_chromosomes(self) -> np.ndarray:
        """Feasible greedy seeds: in-order fill plus per-objective fills.

        Used to warm-start the GA when the generation budget is scaled
        down from the paper's G=500 — each row greedily packs jobs in a
        different priority order (window order, then descending demand in
        each objective), which places the search near the Pareto front's
        extremes from generation zero.
        """
        if self.w == 0:
            return np.zeros((0, 0), dtype=np.uint8)
        orders = [np.arange(self.w)]
        objectives = self.evaluate(np.eye(self.w, dtype=np.uint8))
        for k in range(self.n_objectives):
            orders.append(np.argsort(-objectives[:, k], kind="stable"))
        # All fills advance in lock-step: step ``s`` tentatively sets one
        # gene per order and a single batched feasibility call keeps or
        # reverts them.  Feasibility is per-row, so this is identical to
        # filling each order separately — at 1/w the kernel invocations.
        order_mat = np.stack(orders)  # (m, w)
        rows = np.arange(order_mat.shape[0])
        genes = np.zeros((order_mat.shape[0], self.w), dtype=np.uint8)
        for step in range(self.w):
            pos = order_mat[:, step]
            genes[rows, pos] = 1
            ok = self.feasible(genes)
            genes[rows[~ok], pos[~ok]] = 0
        return np.unique(genes, axis=0)


def window_demand_matrix(jobs: Sequence[Job]) -> np.ndarray:
    """``(w, 2)`` matrix of (nodes, bb GB) demands for §3.2.1 problems."""
    return np.array([[float(j.nodes), j.bb] for j in jobs], dtype=float).reshape(
        len(jobs), 2
    )


class SelectionProblem(MOOProblem):
    """Linear multi-objective knapsack over the window (§3.2.1).

    Parameters
    ----------
    demands:
        ``(w, k)`` matrix; column ``r`` holds each job's demand for
        resource ``r``.  Objectives are ``f_r(x) = sum_i demands[i, r] x_i``.
    capacities:
        Length-``k`` free capacity per resource (``N - N_used`` etc.).
    forced:
        Genes that must be selected (starvation bound).
    """

    def __init__(
        self,
        demands: np.ndarray,
        capacities: Sequence[float],
        forced: Sequence[int] = (),
    ) -> None:
        self.demands = np.asarray(demands, dtype=float)
        if self.demands.ndim != 2:
            raise SolverError(f"demands must be (w, k), got {self.demands.shape}")
        if (self.demands < 0).any():
            raise SolverError("demands must be non-negative")
        self.capacities = np.asarray(capacities, dtype=float)
        if self.capacities.shape != (self.demands.shape[1],):
            raise SolverError(
                f"capacities shape {self.capacities.shape} does not match "
                f"{self.demands.shape[1]} resources"
            )
        self._limits = self.capacities + 1e-9
        self.w = int(self.demands.shape[0])
        self.n_objectives = int(self.demands.shape[1])
        self.forced = tuple(sorted(set(int(i) for i in forced)))
        for i in self.forced:
            if not 0 <= i < self.w:
                raise SolverError(f"forced index {i} outside window of {self.w}")
        if self.forced:
            forced_demand = self.demands[list(self.forced)].sum(axis=0)
            if (forced_demand > self._limits).any():
                raise SolverError("forced jobs alone exceed available capacity")

    @classmethod
    def from_window(
        cls,
        jobs: Sequence[Job],
        free_nodes: float,
        free_bb: float,
        forced: Sequence[int] = (),
    ) -> "SelectionProblem":
        """Build the paper's (node, burst buffer) problem from a window."""
        return cls(window_demand_matrix(jobs), [float(free_nodes), free_bb], forced)

    def evaluate(self, population: np.ndarray) -> np.ndarray:
        self.assert_shape(population)
        return _stable_matmul(population.astype(float), self.demands)

    def feasible(self, population: np.ndarray) -> np.ndarray:
        self.assert_shape(population)
        usage = _stable_matmul(population.astype(float), self.demands)
        return (usage <= self._limits).all(axis=1)

    def greedy_chromosomes(self) -> np.ndarray:
        """Linear-problem fast path: incremental capacity accounting on Python
        floats (exact as float64), rows ordered as ``np.unique(axis=0)``."""
        if self.w == 0:
            return np.zeros((0, 0), dtype=np.uint8)
        demands, limits = self.demands.tolist(), self._limits.tolist()
        orders = [range(self.w)]
        for k in range(self.n_objectives):  # stable: ties keep window order
            orders.append(sorted(range(self.w), key=lambda i: -demands[i][k]))
        seeds = set()
        for order in orders:
            genes = [0] * self.w
            used = [0.0] * len(limits)
            for i in order:
                new = [u + d for u, d in zip(used, demands[i])]
                if all(x <= c for x, c in zip(new, limits)):
                    genes[i] = 1
                    used = new
            seeds.add(tuple(genes))
        return np.array(sorted(seeds), dtype=np.uint8)


class SSDSelectionProblem(MOOProblem):
    """The §5 four-objective problem with heterogeneous local SSDs.

    Objectives (all maximized):

    1. node utilization       ``Σ n_i x_i``
    2. burst buffer           ``Σ b_i x_i``
    3. local SSD utilization  ``Σ s_i n_i x_i``
    4. negated SSD waste      ``−Σ_i Σ_j (l_ij − s_i) x_i``

    where the per-node assigned capacities ``l_ij`` follow the greedy
    smallest-qualifying-tier-first policy (jobs processed in window order).
    Feasibility additionally requires each selected job to find ``n_i``
    free nodes of SSD capacity ≥ ``s_i`` under that same joint assignment.

    Parameters
    ----------
    jobs:
        Window jobs (order matters — it fixes the assignment sequence).
    free_nodes, free_bb:
        Aggregate free nodes / burst buffer.  ``free_nodes`` must equal the
        sum of ``free_tiers`` counts.
    free_tiers:
        Free node count per SSD tier capacity (GB).
    """

    def __init__(
        self,
        jobs: Sequence[Job],
        free_nodes: int,
        free_bb: float,
        free_tiers: Mapping[float, int],
        forced: Sequence[int] = (),
    ) -> None:
        self.jobs = tuple(jobs)
        self.w = len(self.jobs)
        self.n_objectives = 4
        self.forced = tuple(sorted(set(int(i) for i in forced)))
        for i in self.forced:
            if not 0 <= i < self.w:
                raise SolverError(f"forced index {i} outside window of {self.w}")
        tier_total = sum(free_tiers.values())
        if tier_total != free_nodes:
            raise SolverError(
                f"tier counts sum to {tier_total}, expected {free_nodes} free nodes"
            )
        self.free_bb = float(free_bb)
        self.tier_caps = np.array(sorted(free_tiers), dtype=float)
        self.tier_free = np.array(
            [free_tiers[c] for c in sorted(free_tiers)], dtype=float
        )
        self._nodes = np.array([float(j.nodes) for j in self.jobs])
        self._bb = np.array([j.bb for j in self.jobs])
        self._ssd = np.array([j.ssd for j in self.jobs])
        if self.forced:
            ok = self.feasible(self._forced_only())
            if not bool(ok[0]):
                raise SolverError("forced jobs alone exceed available capacity")

    def _forced_only(self) -> np.ndarray:
        pop = np.zeros((1, self.w), dtype=np.uint8)
        if self.forced:
            pop[0, list(self.forced)] = 1
        return pop

    def _sweep(self, population: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Joint greedy assignment sweep.

        Returns ``(waste, feasible)`` where ``waste`` is the total SSD
        over-provisioning per chromosome and ``feasible`` covers *all*
        constraints (nodes via tiers, burst buffer).
        """
        self.assert_shape(population)
        pop = population.astype(float)
        P = pop.shape[0]
        n_tiers = self.tier_caps.size
        remaining = np.tile(self.tier_free, (P, 1))  # (P, n_tiers)
        waste = np.zeros(P)
        feasible = np.ones(P, dtype=bool)
        for j in range(self.w):
            sel = pop[:, j]  # (P,) 0/1
            if not sel.any():
                continue
            need = self._nodes[j] * sel  # (P,)
            qualifies = self.tier_caps >= self._ssd[j]  # (n_tiers,)
            # Greedy fill, smallest qualifying tier first.
            left = need.copy()
            for t in range(n_tiers):
                if not qualifies[t]:
                    continue
                grab = np.minimum(remaining[:, t], left)
                remaining[:, t] -= grab
                waste += grab * (self.tier_caps[t] - self._ssd[j])
                left -= grab
            feasible &= left <= 1e-9
        bb_usage = _stable_matvec(pop, self._bb)
        feasible &= bb_usage <= self.free_bb + 1e-9
        return waste, feasible

    def evaluate(self, population: np.ndarray) -> np.ndarray:
        pop = population.astype(float)
        f1 = _stable_matvec(pop, self._nodes)
        f2 = _stable_matvec(pop, self._bb)
        f3 = _stable_matvec(pop, self._ssd * self._nodes)
        waste, _ = self._sweep(population)
        return np.column_stack([f1, f2, f3, -waste])

    def feasible(self, population: np.ndarray) -> np.ndarray:
        _, ok = self._sweep(population)
        return ok
