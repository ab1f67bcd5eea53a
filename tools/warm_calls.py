"""Print the median time of a warm optimizer call and of warm queries.

The sample is ``oracle.random_problem(np.random.default_rng(s), 8)`` for
each seed ``s`` in 0..24: a random binary network of 8 nodes with its
intervenable set, targets and desired values.  Per problem, after one
call that plans everything, it times

- `optimal_values` in both directions at class inf on `c_star`'s drivers;
- `optimal_policy_value`, the value and its witness pair, in direction
  MAX at class inf on `c_star`'s drivers, on the problems that the default
  budget answers;
- `interventional_prob` of the desired event under the pair that forces
  each of those drivers to value 1;
- `Cbn.marginal_prob` of the desired event, and `Cbn.conditional_prob` of
  it given value 1 of the first node outside it;
- `oracle.grid_policy_values` in both directions at step 0.25 and class
  inf on `c_star`'s drivers, on the problems whose grid the default budget
  answers,

each as the best of ``--rounds`` runs of ``--repeat`` calls, and prints
the median over the problems in microseconds per call: one line for the
optimizer's values, one for its witness path, one for
`interventional_prob`, one for the two queries and one for the grid.  The
witness and grid lines give the count of problems their calls answer.

A last line prints the median first call of `Cbn.marginal_prob`,
`interventional_prob` and `optimal_values` on a fresh `Cbn` of each
problem's tables, on its dag, which those warm calls have planned: the
cost a network pays on its first call of a shape, when it folds that
shape's tables into its own factor.  Each is the best of ``--repeat``
first calls, each on a network of its own.

A final line prints the median and the largest number of bytes of the
arrays that a problem's network keeps in its plans (`Cbn._plans`, each
array counted once) after those warm calls: the memory the folds cost.

    PYTHONPATH=src python tools/warm_calls.py --repeat 300 --rounds 3
"""

from __future__ import annotations

import argparse
import statistics
import timeit
from functools import partial
from time import perf_counter

import numpy as np

from cbnctrl import (
    CLASS_INF,
    BudgetExceededError,
    Cbn,
    ControlProblem,
    Direction,
    InterventionPair,
    c_star,
    interventional_prob,
    optimal_policy_value,
    optimal_values,
)
from cbnctrl.control import atomic_policy_on
from cbnctrl.oracle import BOTH, grid_policy_values, random_problem

SEEDS = range(25)
NODES = 8
#: the timed calls, in the order `calls` gives them per problem
NAMES = (
    "optimal_values", "optimal_policy_value", "interventional_prob", "marginal_prob", "conditional_prob",
    "grid_policy_values",
)
#: the timed calls that the default budget may refuse, each timed over the
#: problems it answers
REFUSABLE = ("optimal_policy_value", "grid_policy_values")
#: the timed calls per printed line
LINES = (NAMES[:1], NAMES[1:2], NAMES[2:3], NAMES[3:5], NAMES[5:])
#: the calls timed first on a fresh network, in the order of their line
FIRST = ("marginal_prob", "interventional_prob", "optimal_values")


def calls() -> list[tuple]:
    """Per problem, its network and the two optimizer calls, the three
    queries and the grid, each a function of a network of the problem's
    layout."""
    out = []
    for seed in SEEDS:
        cbn, intervenable, targets, desired = random_problem(np.random.default_rng(seed), NODES)
        problem = ControlProblem(cbn.dag, intervenable, targets, tuple(desired[t] for t in targets))
        drivers = c_star(problem).members
        pair = InterventionPair(atomic_policy_on(cbn.dag, d, 1, cbn.cards[d]) for d in drivers)
        given = {next(n for n in cbn.dag.nodes if n not in desired): 1}
        out.append((cbn, (
            lambda net, drivers=drivers, desired=desired: optimal_values(net, drivers, CLASS_INF, desired, BOTH),
            lambda net, drivers=drivers, desired=desired: optimal_policy_value(
                net, drivers, CLASS_INF, desired, Direction.MAX
            ),
            lambda net, pair=pair, desired=desired: interventional_prob(net, pair, desired),
            lambda net, desired=desired: net.marginal_prob(desired),
            lambda net, desired=desired, given=given: net.conditional_prob(desired, given),
            lambda net, drivers=drivers, desired=desired: grid_policy_values(net, drivers, CLASS_INF, desired, BOTH),
        )))
    return out


def answers(call) -> bool:
    """Whether ``call`` answers under the default budget rather than
    refuse; either way, it has planned what it can."""
    try:
        call()
    except BudgetExceededError:
        return False
    return True


def warm_us(call, repeat: int, rounds: int) -> float:
    """The best of ``rounds`` runs of ``repeat`` calls, in µs per call,
    after one call that plans everything."""
    call()
    return min(timeit.repeat(call, number=repeat, repeat=rounds)) / repeat * 1e6


def first_us(call, cbn: Cbn, repeat: int) -> float:
    """The best of ``repeat`` first calls, in µs, each on a fresh `Cbn` of
    ``cbn``'s tables on its dag."""
    best = float("inf")
    for _ in range(repeat):
        fresh = Cbn(cbn.dag, cbn.cards, cbn.cpds)
        start = perf_counter()
        call(fresh)
        best = min(best, perf_counter() - start)
    return best * 1e6


def plan_bytes(cbn: Cbn) -> int:
    """The bytes of the distinct arrays in ``cbn``'s plans."""
    arrays = {id(op): op for operands, *_ in cbn._plans.values() for op in operands if isinstance(op, np.ndarray)}
    return sum(array.nbytes for array in arrays.values())


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=300, help="calls per timed run (default 300)")
    parser.add_argument("--rounds", type=int, default=3, help="timed runs per call, best kept (default 3)")
    args = parser.parse_args(argv)
    if args.repeat < 1 or args.rounds < 1:
        parser.error("--repeat and --rounds must be at least 1")
    networks, columns = zip(*calls())
    warm, first, over = {}, {}, {}
    for name, column in zip(NAMES, zip(*columns)):
        timed = [partial(call, cbn) for cbn, call in zip(networks, column)]
        if name in REFUSABLE:
            timed = [call for call in timed if answers(call)]
            over[name] = f"{len(timed)} of "
        warm[name] = statistics.median(warm_us(call, args.repeat, args.rounds) for call in timed)
        if name in FIRST:
            first[name] = statistics.median(first_us(call, cbn, args.repeat) for cbn, call in zip(networks, column))
    printed = [("", warm, line) for line in LINES] + [("first call on a fresh network: ", first, FIRST)]
    for head, medians, line in printed:
        print(head + ", ".join(f"{name}: median {medians[name]:.1f} us" for name in line)
              + f" over {over.get(line[0], '')}{len(networks)} problems")
    kept = [plan_bytes(cbn) for cbn in networks]
    print(f"arrays kept in a network's plans: median {statistics.median(kept):.0f} bytes, "
          f"largest {max(kept)} bytes over {len(networks)} problems")

if __name__ == "__main__":
    main()
