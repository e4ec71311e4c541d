#!/usr/bin/env python
"""Figure 3 walkthrough: watching the multi-objective GA evolve.

The paper's Figure 3 illustrates one evolution step on a 4-chromosome
population over a 5-job window.  This example reconstructs that setting
and prints the population, its objective values, and the Pareto members
generation by generation, so you can watch crossover/mutation/selection
approximate the true front.

Run:  python examples/ga_walkthrough.py
"""

import numpy as np

from repro import ExhaustiveSolver, Job, MOGASolver, SelectionProblem
from repro.core.evalcache import unpack_genes
from repro.core.pareto import non_dominated_mask
from repro.units import TB

NODES, BB = 100, 100 * TB

JOBS = [  # the Table 1 queue — same window Figure 3's chromosomes select over
    Job(jid=1, submit_time=0, runtime=3600, walltime=3600, nodes=80, bb=20 * TB),
    Job(jid=2, submit_time=0, runtime=3600, walltime=3600, nodes=10, bb=85 * TB),
    Job(jid=3, submit_time=0, runtime=3600, walltime=3600, nodes=40, bb=5 * TB),
    Job(jid=4, submit_time=0, runtime=3600, walltime=3600, nodes=10, bb=0.0),
    Job(jid=5, submit_time=0, runtime=3600, walltime=3600, nodes=20, bb=0.0),
]


class NarratingSolver(MOGASolver):
    """MOGASolver that prints each generation's unique survivors."""

    def __init__(self, problem, every=1, **kw):
        super().__init__(**kw)
        self._problem = problem
        self._every = every
        self._generation = 0

    def _survive(self, pool):
        population = super()._survive(pool)
        if self._generation % self._every == 0:
            genes = unpack_genes([bits for bits, _, _ in population], self._problem.w)
            F = np.array([obj for _, _, obj in population])
            front = non_dominated_mask(F)
            print(f"generation {self._generation}:")
            for g, (f1, f2), on_front in zip(genes, F, front):
                mark = "*" if on_front else " "
                print(f"  {mark} {''.join(map(str, g))}  "
                      f"nodes {f1 / NODES:5.0%}  BB {f2 / BB:5.0%}")
        self._generation += 1
        return population


def main() -> None:
    problem = SelectionProblem.from_window(JOBS, NODES, BB)

    print("True Pareto set (exhaustive over 2^5 selections):")
    truth = ExhaustiveSolver().solve(problem)
    for g, (f1, f2) in zip(truth.genes, truth.objectives):
        print(f"    {''.join(map(str, g))}  nodes {f1 / NODES:5.0%}  "
              f"BB {f2 / BB:5.0%}")
    print()

    # Figure 3's miniature setting: P=4 chromosomes, random init (the
    # paper's mode), narrated every few generations.
    solver = NarratingSolver(
        problem, every=5, generations=25, population=4,
        mutation=0.02, seed_greedy=False, seed=7,
    )
    result = solver.solve(problem)

    print("\nfinal Pareto approximation:")
    for g, (f1, f2) in zip(result.genes, result.objectives):
        print(f"    {''.join(map(str, g))}  nodes {f1 / NODES:5.0%}  "
              f"BB {f2 / BB:5.0%}")


if __name__ == "__main__":
    main()
