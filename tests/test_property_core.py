"""Property-based tests for the MOO core (hypothesis)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.evalcache import unpack_genes
from repro.core.exhaustive import ExhaustiveSolver, bit_matrix
from repro.core.ga import MOGASolver, crowding_distance
from repro.core.gd import generational_distance, hypervolume_2d
from repro.core.pareto import _pairwise_mask, non_dominated_mask, pareto_front_2d
from repro.core.problem import SelectionProblem
from repro.errors import SolverError

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


# --- strategies -----------------------------------------------------------------

@st.composite
def selection_problems(draw, max_w=8):
    """Random small selection problems, always with a feasible empty set."""
    w = draw(st.integers(min_value=1, max_value=max_w))
    nodes = draw(st.lists(st.integers(1, 50), min_size=w, max_size=w))
    bbs = draw(st.lists(st.integers(0, 80), min_size=w, max_size=w))
    cap_n = draw(st.integers(1, 120))
    cap_b = draw(st.integers(0, 150))
    demands = np.array([[float(n), float(b)] for n, b in zip(nodes, bbs)])
    return SelectionProblem(demands, [float(cap_n), float(cap_b)])


@st.composite
def forced_selection_problems(draw, max_w=8):
    """Selection problems carrying a feasible (possibly empty) forced set."""
    base = draw(selection_problems(max_w=max_w))
    order = draw(st.permutations(list(range(base.w))))
    forced, total = [], np.zeros(base.n_objectives)
    for i in order:
        if len(forced) >= 3:
            break
        if ((total + base.demands[i]) <= base.capacities + 1e-9).all():
            forced.append(i)
            total += base.demands[i]
    return SelectionProblem(base.demands, base.capacities, forced=forced)


@st.composite
def theta_scale_problems(draw):
    """Selection problems at Theta's magnitudes (up to 4 392 nodes, burst
    buffer requests up to about 4.6e5 GB of about 2.3e6 free) with
    fractional requests, ``w`` up to 70 (nine bytes of genes), forced
    genes, and packed rows to check.  Each capacity is either random or
    a few ULPs from the usage of one drawn row, so rows land on both sides
    of the limit and inside the margin."""
    w = draw(st.integers(1, 70))
    nodes = draw(st.lists(st.integers(1, 4392), min_size=w, max_size=w))
    bbs = draw(st.lists(st.floats(0.0, 4.6e5), min_size=w, max_size=w))
    demands = np.column_stack([np.array(nodes, dtype=float), np.array(bbs)])
    rows = draw(st.lists(st.integers(0, (1 << w) - 1), min_size=1, max_size=40))
    anchor = unpack_genes([rows[0]], w).astype(float)
    caps = []
    for r, random_cap in enumerate([4392.0, 2.3e6]):
        if draw(st.booleans()):
            caps.append(draw(st.floats(0.0, random_cap)))
        else:
            usage = np.einsum("ij,j->i", anchor, demands[:, r])[0]
            cap = usage - 1e-9
            for _ in range(draw(st.integers(0, 4))):
                cap = np.nextafter(cap, draw(st.sampled_from([-np.inf, np.inf])))
            caps.append(float(cap))
    forced = [i for i in draw(st.lists(st.integers(0, w - 1), max_size=3))
              if demands[i, 0] <= caps[0] and demands[i, 1] <= caps[1]]
    try:
        problem = SelectionProblem(demands, caps, forced=forced)
    except SolverError:  # the forced genes together do not fit
        problem = SelectionProblem(demands, caps)
    forced_bits = sum(1 << i for i in problem.forced)
    return problem, rows + [bits | forced_bits for bits in rows]


#: Matrices whose columns each hold pairwise-distinct values — crowding
#: distance's boundary-inf assignment is only well-defined up to argsort
#: ties, so permutation invariance is stated on tie-free inputs.
unique_column_matrices = st.integers(3, 25).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 10_000), min_size=n, max_size=n, unique=True),
        st.lists(st.integers(0, 10_000), min_size=n, max_size=n, unique=True),
    ).map(lambda cols: np.column_stack(cols).astype(float))
)


objective_matrices = st.integers(1, 40).flatmap(
    lambda n: st.lists(
        st.tuples(st.integers(0, 20), st.integers(0, 20)),
        min_size=n, max_size=n,
    ).map(lambda rows: np.array(rows, dtype=float))
)


# --- Pareto invariants --------------------------------------------------------------

class TestParetoProperties:
    @given(objective_matrices)
    @settings(**COMMON)
    def test_front_members_not_dominated(self, F):
        mask = non_dominated_mask(F)
        front = F[mask]
        for u in front:
            dominated = ((F >= u).all(axis=1) & (F > u).any(axis=1)).any()
            assert not dominated

    @given(objective_matrices)
    @settings(**COMMON)
    def test_non_front_members_are_dominated(self, F):
        mask = non_dominated_mask(F)
        for i in np.flatnonzero(~mask):
            dominated = ((F >= F[i]).all(axis=1) & (F > F[i]).any(axis=1)).any()
            assert dominated

    @given(objective_matrices)
    @settings(**COMMON)
    def test_2d_matches_general(self, F):
        fast = set(map(tuple, F[pareto_front_2d(F)]))
        slow = set(map(tuple, F[non_dominated_mask(F)]))
        assert fast == slow

    @given(objective_matrices)
    @settings(**COMMON)
    def test_2d_sweep_matches_pairwise_mask(self, F):
        """non_dominated_mask routes k=2 through the O(n log n) sweep;
        it must agree with the quadratic reference *per index* — set
        equality would miss a mishandled duplicate row."""
        assert np.array_equal(non_dominated_mask(F), _pairwise_mask(F))

    @given(objective_matrices)
    @settings(**COMMON)
    def test_2d_sweep_front_indices_match_pairwise(self, F):
        front = pareto_front_2d(F)
        assert sorted(front.tolist()) == np.flatnonzero(_pairwise_mask(F)).tolist()

    @given(objective_matrices, st.randoms(use_true_random=False))
    @settings(**COMMON)
    def test_permutation_invariant(self, F, rnd):
        perm = list(range(F.shape[0]))
        rnd.shuffle(perm)
        a = set(map(tuple, F[non_dominated_mask(F)]))
        G = F[perm]
        b = set(map(tuple, G[non_dominated_mask(G)]))
        assert a == b

    @given(objective_matrices)
    @settings(**COMMON)
    def test_front_never_empty(self, F):
        assert non_dominated_mask(F).any()


# --- problem / repair invariants -----------------------------------------------------

class TestProblemProperties:
    @given(selection_problems(), st.integers(0, 2**31 - 1))
    @settings(**COMMON, max_examples=40)
    def test_repair_always_feasible(self, problem, seed):
        rng = np.random.default_rng(seed)
        pop = rng.integers(0, 2, size=(16, problem.w), dtype=np.uint8)
        fixed = problem.repair(pop, seed)
        assert problem.feasible(fixed).all()

    @given(selection_problems(), st.integers(0, 2**31 - 1))
    @settings(**COMMON, max_examples=40)
    def test_repair_only_clears_genes(self, problem, seed):
        rng = np.random.default_rng(seed)
        pop = rng.integers(0, 2, size=(8, problem.w), dtype=np.uint8)
        fixed = problem.repair(pop, seed)
        # Without forced genes, repair may only turn 1s into 0s.
        assert (fixed <= pop).all()

    @given(selection_problems())
    @settings(**COMMON, max_examples=40)
    def test_greedy_chromosomes_feasible(self, problem):
        seeds = problem.greedy_chromosomes()
        if seeds.shape[0]:
            assert problem.feasible(seeds).all()

    @given(selection_problems(), st.integers(0, 2**31 - 1))
    @settings(**COMMON, max_examples=30)
    def test_random_population_feasible(self, problem, seed):
        pop = problem.random_population(12, seed)
        assert pop.shape == (12, problem.w)
        assert problem.feasible(pop).all()

    @given(forced_selection_problems(), st.integers(0, 2**31 - 1))
    @settings(**COMMON, max_examples=40)
    def test_repair_feasible_and_forced_intact_both_modes(self, problem, seed):
        """Repair ends feasible with forced genes asserted."""
        rng = np.random.default_rng(seed)
        pop = rng.integers(0, 2, size=(12, problem.w), dtype=np.uint8)
        fixed = problem.repair(pop, seed)
        assert problem.feasible(fixed).all()
        if problem.forced:
            assert (fixed[:, list(problem.forced)] == 1).all()
        # Genes are only ever cleared, except forced re-assertion.
        unforced = [i for i in range(problem.w) if i not in problem.forced]
        assert (fixed[:, unforced] <= pop[:, unforced]).all()

    @given(forced_selection_problems(), st.integers(0, 2**31 - 1))
    @settings(**COMMON, max_examples=40)
    def test_repair_idempotent(self, problem, seed):
        """Repairing an already-feasible population changes nothing."""
        rng = np.random.default_rng(seed)
        pop = rng.integers(0, 2, size=(10, problem.w), dtype=np.uint8)
        fixed = problem.repair(pop, seed)
        again = problem.repair(fixed, seed + 1)
        assert (again == fixed).all()

    @given(theta_scale_problems())
    @settings(**COMMON, max_examples=200)
    def test_packed_feasibility_equals_kernel(self, case):
        """The packed check answers as the kernel does, row for row, also
        for rows within a few ULPs of a limit."""
        problem, rows = case
        expected = problem.feasible(unpack_genes(rows, problem.w)).tolist()
        assert problem.feasible_packed(rows) == expected


# --- GA / exhaustive invariants --------------------------------------------------------

class TestSolverProperties:
    @given(selection_problems(max_w=6), st.integers(0, 1000))
    @settings(**COMMON, max_examples=15)
    def test_ga_solutions_feasible_and_nondominated(self, problem, seed):
        result = MOGASolver(generations=30, population=8, seed=seed).solve(problem)
        assert problem.feasible(result.genes).all()
        if len(result) > 1:
            assert non_dominated_mask(result.objectives).all()

    @given(selection_problems(max_w=6), st.integers(0, 1000))
    @settings(**COMMON, max_examples=10)
    def test_ga_front_within_true_front(self, problem, seed):
        """Every GA objective vector is dominated-or-equal by the true front."""
        truth = ExhaustiveSolver().solve(problem)
        approx = MOGASolver(generations=40, population=8, seed=seed).solve(problem)
        for u in approx.objectives:
            assert ((truth.objectives >= u - 1e-9).all(axis=1)).any()

    @given(selection_problems(max_w=6))
    @settings(**COMMON, max_examples=15)
    def test_exhaustive_front_dominates_everything(self, problem):
        truth = ExhaustiveSolver().solve(problem)
        pop = bit_matrix(0, 1 << problem.w, problem.w)
        pop = pop[problem.feasible(pop)]
        F = problem.evaluate(pop)
        for f in F:
            assert ((truth.objectives >= f - 1e-9).all(axis=1)).any()

    @given(st.integers(1, 12))
    @settings(**COMMON)
    def test_bit_matrix_is_binary_expansion(self, w):
        M = bit_matrix(0, 1 << w, w)
        codes = (M.astype(np.int64) * (1 << np.arange(w))).sum(axis=1)
        assert (codes == np.arange(1 << w)).all()

    @given(selection_problems(max_w=10), st.integers(0, 2**31 - 1),
           st.sampled_from(["age", "crowding"]))
    @settings(**COMMON, max_examples=15)
    def test_eval_cache_never_changes_solve(self, problem, seed, selection):
        """Memoized evaluation is byte-identical to the reference path,
        across random problems, window widths, seeds, and both survival
        schemes (the broad-stroke twin of tests/test_differential.py)."""
        kw = dict(generations=20, population=8, selection=selection, seed=seed)
        on = MOGASolver(eval_cache=True, **kw).solve(problem)
        off = MOGASolver(eval_cache=False, **kw).solve(problem)
        assert on.genes.tobytes() == off.genes.tobytes()
        assert on.objectives.tobytes() == off.objectives.tobytes()


# --- crowding-distance invariants ---------------------------------------------------

class TestCrowdingProperties:
    @given(unique_column_matrices, st.randoms(use_true_random=False))
    @settings(**COMMON)
    def test_permutation_invariant(self, F, rnd):
        """Each row's crowding distance depends on values, not row order."""
        perm = list(range(F.shape[0]))
        rnd.shuffle(perm)
        base = crowding_distance(F)
        shuffled = crowding_distance(F[perm])
        assert np.array_equal(shuffled, base[perm])

    @given(unique_column_matrices)
    @settings(**COMMON)
    def test_boundaries_infinite_interior_finite(self, F):
        dist = crowding_distance(F)
        assert dist.shape == (F.shape[0],)
        for m in range(F.shape[1]):
            assert np.isinf(dist[np.argmin(F[:, m])])
            assert np.isinf(dist[np.argmax(F[:, m])])
        assert (dist[np.isfinite(dist)] >= 0).all()


# --- quality metric invariants --------------------------------------------------------

class TestQualityMetricProperties:
    @given(objective_matrices)
    @settings(**COMMON)
    def test_gd_zero_against_self(self, F):
        assert generational_distance(F, F) == pytest.approx(0.0)

    @given(objective_matrices, st.tuples(st.integers(0, 5), st.integers(0, 5)))
    @settings(**COMMON)
    def test_gd_nonnegative(self, F, shift):
        G = F + np.asarray(shift, dtype=float)
        assert generational_distance(F, G) >= 0.0

    @given(objective_matrices, st.tuples(st.integers(1, 20), st.integers(1, 20)))
    @settings(**COMMON)
    def test_hypervolume_monotone_in_points(self, F, extra):
        base = hypervolume_2d(F)
        grown = hypervolume_2d(np.vstack([F, np.asarray(extra, dtype=float)]))
        assert grown >= base - 1e-12
