#!/usr/bin/env python
"""Figure 3 walkthrough: watching the multi-objective GA evolve.

The paper's Figure 3 illustrates one evolution step on a 4-chromosome
population over a 5-job window.  This example reconstructs that setting
and prints the population's Pareto members, with their objective values,
every few generations, so you can watch crossover/mutation/selection
approximate the true front.

Run:  python examples/ga_walkthrough.py
"""

from repro import ExhaustiveSolver, Job, MOGASolver, SelectionProblem
from repro.units import TB

NODES, BB = 100, 100 * TB

JOBS = [  # the Table 1 queue — same window Figure 3's chromosomes select over
    Job(jid=1, submit_time=0, runtime=3600, walltime=3600, nodes=80, bb=20 * TB),
    Job(jid=2, submit_time=0, runtime=3600, walltime=3600, nodes=10, bb=85 * TB),
    Job(jid=3, submit_time=0, runtime=3600, walltime=3600, nodes=40, bb=5 * TB),
    Job(jid=4, submit_time=0, runtime=3600, walltime=3600, nodes=10, bb=0.0),
    Job(jid=5, submit_time=0, runtime=3600, walltime=3600, nodes=20, bb=0.0),
]


def show(result) -> None:
    """Print a Pareto set's selections with their utilizations."""
    for g, (f1, f2) in zip(result.genes, result.objectives):
        print(f"    {''.join(map(str, g))}  nodes {f1 / NODES:5.0%}  "
              f"BB {f2 / BB:5.0%}")


def main() -> None:
    problem = SelectionProblem.from_window(JOBS, NODES, BB)

    print("True Pareto set (exhaustive over 2^5 selections):")
    show(ExhaustiveSolver().solve(problem))
    print()

    # Figure 3's miniature setting: P=4 chromosomes, random init (the
    # paper's mode).  A solve with the same seed replays the first g
    # generations of a longer one, so re-solving with a growing budget
    # narrates a single run: its Pareto members every few generations.
    settings = dict(population=4, mutation=0.02, seed_greedy=False, seed=4)
    for g in range(0, 25, 5):
        print(f"generation {g}:")
        show(MOGASolver(generations=g, **settings).solve(problem))

    print("\nfinal Pareto approximation:")
    show(MOGASolver(generations=25, **settings).solve(problem))


if __name__ == "__main__":
    main()
