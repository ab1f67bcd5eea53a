"""Print the median time of a warm optimizer call and of warm queries.

The sample is ``oracle.random_problem(np.random.default_rng(s), 8)`` for
each seed ``s`` in 0..24: a random binary network of 8 nodes with its
intervenable set, targets and desired values.  Per problem, after one
call that plans everything, it times

- `optimal_values` in both directions at class inf on `c_star`'s drivers;
- `interventional_prob` of the desired event under the pair that forces
  each of those drivers to value 1;
- `Cbn.marginal_prob` of the desired event, and `Cbn.conditional_prob` of
  it given value 1 of the first node outside it,

each as the best of ``--rounds`` runs of ``--repeat`` calls, and prints
the median over the problems in microseconds per call: one line for the
optimizer, one for `interventional_prob` and one for the two queries.

    PYTHONPATH=src python tools/warm_calls.py --repeat 300 --rounds 3
"""

from __future__ import annotations

import argparse
import statistics
import timeit

import numpy as np

from cbnctrl import CLASS_INF, ControlProblem, InterventionPair, c_star, interventional_prob, optimal_values
from cbnctrl.control import atomic_policy_on
from cbnctrl.oracle import BOTH, random_problem

SEEDS = range(25)
NODES = 8
#: the timed calls, in the order `calls` gives them per problem
NAMES = ("optimal_values", "interventional_prob", "marginal_prob", "conditional_prob")


def calls() -> list[tuple]:
    """Per problem, the optimizer call and the three queries, as thunks."""
    out = []
    for seed in SEEDS:
        cbn, intervenable, targets, desired = random_problem(np.random.default_rng(seed), NODES)
        problem = ControlProblem(cbn.dag, intervenable, targets, tuple(desired[t] for t in targets))
        drivers = c_star(problem).members
        pair = InterventionPair(atomic_policy_on(cbn.dag, d, 1, cbn.cards[d]) for d in drivers)
        given = {next(n for n in cbn.dag.nodes if n not in desired): 1}
        out.append((
            lambda cbn=cbn, drivers=drivers, desired=desired: optimal_values(cbn, drivers, CLASS_INF, desired, BOTH),
            lambda cbn=cbn, pair=pair, desired=desired: interventional_prob(cbn, pair, desired),
            lambda cbn=cbn, desired=desired: cbn.marginal_prob(desired),
            lambda cbn=cbn, desired=desired, given=given: cbn.conditional_prob(desired, given),
        ))
    return out


def warm_us(call, repeat: int, rounds: int) -> float:
    """The best of ``rounds`` runs of ``repeat`` calls, in µs per call,
    after one call that plans everything."""
    call()
    return min(timeit.repeat(call, number=repeat, repeat=rounds)) / repeat * 1e6


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=300, help="calls per timed run (default 300)")
    parser.add_argument("--rounds", type=int, default=3, help="timed runs per call, best kept (default 3)")
    args = parser.parse_args(argv)
    if args.repeat < 1 or args.rounds < 1:
        parser.error("--repeat and --rounds must be at least 1")
    medians = {}
    for name, column in zip(NAMES, zip(*calls())):
        times = [warm_us(call, args.repeat, args.rounds) for call in column]
        medians[name] = statistics.median(times), len(times)
    for line in (NAMES[:1], NAMES[1:2], NAMES[2:]):
        print(", ".join(f"{name}: median {medians[name][0]:.1f} us" for name in line)
              + f" over {medians[line[0]][1]} problems")


if __name__ == "__main__":
    main()
