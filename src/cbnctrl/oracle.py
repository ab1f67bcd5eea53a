"""Reference searches and verification suites.

`enumerate_prob` and `naive_policy_search` are the literal references, slow
on purpose.  `enumerate_prob` over `intervention.apply_intervention` is the
fully independent route: it sums CPD entries over completions and shares no
tensor code with `Cbn.joint`.  `naive_policy_search` reads `Cbn.joint`
through `interventional_prob`, but shares none of the optimizer's chain,
batch or scan code.  `grid_policy_search` is not a reference: it searches
stochastic tables with the optimizer's own batch, `control.policy_batch`,
to check that deterministic tables are enough.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import prod
from typing import Iterable, Iterator, Mapping

import numpy as np

from .cbn import DEFAULT_BUDGET, Budget, Cbn
from .control import (
    ControlProblem,
    Direction,
    c_star,
    checked_directions,
    optimal_policy_value,
    optimal_values,
    policy_batch,
    scan_combinations,
    usm_adversarial_cbn,
)
from .graph import Dag, INF
from .intervention import (
    CLASS_INF,
    InterventionPair,
    IpClass,
    atomic_policy,
    enumerate_deterministic_tables,
    interventional_prob,
    scope_for_class,
)

BRACKET_TOL = 1e-9
#: how much better a later subset must be to replace the incumbent in the
#: subset scan: far above the float drift that a change of summation order
#: leaves in a value (at most 4.4e-16 seen), far below the 1e-12 within
#: which a witness must replay
TIE_TOL = 1e-13

SUITE_NAMES = ("lemma3", "sufficiency", "usm", "extremality")

#: both directions, in the order the suites report them
BOTH = (Direction.MAX, Direction.MIN)


def iter_subsets(items: Iterable[str]) -> Iterator[tuple[str, ...]]:
    """All subsets, smallest first, lexicographic within a size."""
    pool = tuple(items)
    for size in range(len(pool) + 1):
        yield from combinations(pool, size)


def enumerate_prob(cbn: Cbn, event: Mapping[str, int]) -> float:
    """Probability of a partial assignment as the literal sum of
    `Cbn.joint_prob` over its completions: the reference `Cbn.joint` is
    tested against.  Unbudgeted, so keep it to small networks."""
    nodes = cbn.dag.nodes
    cards = cbn.cards
    free = [n for n in nodes if n not in event]
    total = 0.0
    scratch = dict(event)
    for values in product(*(range(cards[n]) for n in free)):
        scratch.update(zip(free, values))
        total += cbn.joint_prob(scratch)
    return total


def naive_policy_search(
    cbn: Cbn,
    drivers,
    ip_class: IpClass,
    desired: Mapping[str, int],
    direction: Direction,
    max_combos: int = 250_000,
) -> tuple[float, InterventionPair]:
    """Literal deterministic-policy enumeration via repeated re-inference.

    Builds every combination of deterministic tables as a pair and asks
    `interventional_prob` for its probability, one joint per combination;
    exists purely as a slow cross-check for the chained reductions and
    batched scan of `control.optimal_policy_value`.
    """
    checked_directions((direction,), ip_class, desired)
    dag = cbn.dag
    driver_list = dag.canon(drivers)
    cards = cbn.cards
    scopes = {d: scope_for_class(dag, d, ip_class) for d in driver_list}
    scope_cards = {d: tuple(cards[s] for s in scopes[d]) for d in driver_list}
    total = prod(cards[d] ** prod(scope_cards[d]) for d in driver_list)
    if total > max_combos:
        raise ValueError(f"{total} policy combinations exceed the naive-search cap {max_combos}")
    table_lists = [
        list(enumerate_deterministic_tables(d, scopes[d], scope_cards[d], cards[d]))
        for d in driver_list
    ]
    best_value = None
    best_pair = None
    for combo in product(*table_lists):
        pair = InterventionPair(combo)
        value = interventional_prob(cbn, pair, desired)
        if best_value is None or direction.beats(value, best_value):
            best_value = value
            best_pair = pair
    return best_value, best_pair


def best_over_subsets(
    cbn: Cbn,
    intervenable,
    ip_class: IpClass,
    desired: Mapping[str, int],
    direction: Direction,
    budget: Budget | None = None,
) -> tuple[float, tuple[str, ...], InterventionPair]:
    """Exhaustive optimum over every subset of the intervenable set.

    Subsets are scanned smallest first, lexicographically within a size,
    and a later subset replaces the incumbent only if its value is better
    by more than `TIE_TOL`.  So the reported value, the reported subset's
    own, lies within `TIE_TOL` of the optimum, and a subset that ties with
    an earlier one up to float noise is never reported over it.  Only the
    winning subset's witness is built.
    """
    budget = budget or DEFAULT_BUDGET
    value, subset = _subset_optima(cbn, intervenable, ip_class, desired, (direction,), budget)[0]
    _, pair = optimal_policy_value(cbn, subset, ip_class, desired, direction, budget)
    return value, subset, pair


def _subset_optima(cbn, intervenable, ip_class, desired, directions, budget, known=None) -> list:
    # the value and subset of `best_over_subsets` in each of ``directions``,
    # one values-only optimizer plan per subset; ``known`` maps a subset, as
    # a frozenset, to the values of `optimal_values` in ``directions``
    # already at hand
    pool = cbn.dag.canon(intervenable)
    budget.check_set_size(len(pool))
    known = known or {}
    best: list = [None] * len(directions)
    for subset in iter_subsets(pool):
        values = known.get(frozenset(subset))
        if values is None:
            values = optimal_values(cbn, subset, ip_class, desired, directions, budget)
        for i, (direction, value) in enumerate(zip(directions, values)):
            if best[i] is None or direction.beats(value, best[i][0], TIE_TOL):
                best[i] = (value, subset)
    return best


def simplex_grid_rows(card: int, step: float = 0.25) -> tuple[tuple[float, ...], ...]:
    """All distributions over ``card`` values with coordinates on the grid."""
    denom = round(1.0 / step) if step > 0 else 0
    if denom < 1 or abs(denom * step - 1.0) > 1e-12:
        raise ValueError(f"step {step} does not divide 1")
    # stars and bars: the card - 1 bar positions among denom + card - 1
    # slots, taken in lexicographic order, give the compositions of denom
    # in lexicographic order
    rows = []
    for bars in combinations(range(denom + card - 1), card - 1):
        edges = (-1, *bars, denom + card - 1)
        rows.append(tuple((b - a - 1) * step for a, b in zip(edges, edges[1:])))
    return tuple(rows)


def grid_policy_search(
    cbn: Cbn,
    drivers,
    ip_class: IpClass,
    desired: Mapping[str, int],
    direction: Direction,
    step: float = 0.25,
    budget: Budget | None = None,
) -> float:
    """Best value over stochastic policy tables with grid-point rows.

    The grid includes every deterministic table as a vertex, so the result
    can never fall below (above, for Min) the deterministic optimum; the
    point of the search is that it must never beat it either.
    """
    return grid_policy_values(cbn, drivers, ip_class, desired, (direction,), step, budget)[0]


def grid_policy_values(
    cbn: Cbn,
    drivers,
    ip_class: IpClass,
    desired: Mapping[str, int],
    directions,
    step: float = 0.25,
    budget: Budget | None = None,
) -> list[float]:
    """`grid_policy_search` in each of ``directions``, in order, from one
    scan.

    Each driver's table picks one `simplex_grid_rows` row per scope
    configuration.  The tables are applied to the joint by
    `control.policy_batch`, the same batch the optimizer enumerates with,
    and scanned in chunks by `control.scan_combinations`, which keeps one
    optimum per direction.  The tables act on the joint's marginal over the
    drivers and their scopes.  The work estimate is the number of table
    combinations times the joint size.
    """
    directions = checked_directions(directions, ip_class, desired)
    budget = budget or DEFAULT_BUDGET
    dag = cbn.dag
    driver_list = dag.canon(drivers)
    if not driver_list:
        return [cbn.marginal_prob(desired, budget)] * len(directions)

    # the joint is refused as `Cbn.joint` would refuse it, then the work,
    # all before the joint is built
    cbn.check_joint(desired, budget=budget)
    cards = cbn.cards
    searched = [
        (d, scope_for_class(dag, d, ip_class), np.asarray(simplex_grid_rows(cards[d], step)))
        for d in driver_list
    ]
    total = prod(len(rows) ** prod(cards[s] for s in scope) for _, scope, rows in searched)
    budget.check_work(total * cbn.state_space_size())
    # every other node meets no policy factor and is summed out first
    layout = dag.canon([*driver_list, *(s for _, scope, _ in searched for s in scope)])
    base = cbn.joint(desired, skip=driver_list, budget=budget, keep=layout)

    def values(flat: np.ndarray) -> list[np.ndarray]:
        batch, _ = policy_batch(cbn, base, layout, searched, flat)
        # the sums are the same in every direction
        return [batch.reshape(len(flat), -1).sum(axis=1)] * len(directions)

    optima = scan_combinations(total, base.size, values, directions)
    return [float(best) for best, _ in optima]


def ci_holds(cbn: Cbn, a: str, b: str, z: Iterable[str], tol: float = 1e-9) -> bool:
    """Conditional independence of ``a`` and ``b`` given ``z`` in the
    distribution: P(a, b | z) = P(a | z) P(b | z) for every ``z`` of
    positive probability, all read off one joint tensor."""
    z_list = tuple(z)
    kept = (a, b) + z_list
    if len(set(kept)) != len(kept):
        raise ValueError("a, b and the members of z must be distinct")
    cards = cbn.cards
    pabz = cbn.joint(keep=kept).reshape(cards[a], cards[b], -1)
    pz = pabz.sum(axis=(0, 1))
    pab = pabz[:, :, pz != 0.0] / pz[pz != 0.0]
    pa = pab.sum(axis=1)
    pb = pab.sum(axis=0)
    return bool(np.all(np.abs(pab - pa[:, None, :] * pb[None, :, :]) <= tol))


def random_dag(rng: np.random.Generator, n_nodes: int, edge_prob: float = 0.4) -> Dag:
    names = [f"v{i}" for i in range(n_nodes)]
    edges = [
        (names[i], names[j])
        for i in range(n_nodes)
        for j in range(i + 1, n_nodes)
        if rng.random() < edge_prob
    ]
    return Dag(names, edges)


def random_cbn(rng: np.random.Generator, dag: Dag, card: int | Mapping[str, int] = 2) -> Cbn:
    """Strictly positive random rows, so no conditioning event degenerates.

    ``card`` is one cardinality for every node or a mapping from node to
    cardinality; rows are drawn node by node in ``dag.nodes`` order."""
    from .cbn import Cpd

    cards = dict(card) if isinstance(card, Mapping) else {n: card for n in dag.nodes}
    cpds = {}
    for node in dag.nodes:
        parents = dag.parents(node)
        parent_cards = tuple(cards[p] for p in parents)
        rows = []
        for _ in range(prod(parent_cards)):
            raw = rng.uniform(0.05, 1.0, cards[node])
            row = raw / raw.sum()
            rows.append(tuple(float(p) for p in row))
        cpds[node] = Cpd(node, parents, parent_cards, tuple(rows))
    return Cbn(dag, cards, cpds)


def random_problem(
    rng: np.random.Generator, n_nodes: int, edge_prob: float = 0.4
) -> tuple[Cbn, tuple[str, ...], tuple[str, ...], dict[str, int]]:
    """A random binary network plus intervenable set, targets and desired
    realization; targets may or may not be intervenable themselves."""
    dag = random_dag(rng, n_nodes, edge_prob)
    cbn = random_cbn(rng, dag)
    nodes = dag.nodes
    n_targets = int(rng.integers(1, 3)) if n_nodes > 1 else 1
    target_idx = sorted(rng.choice(len(nodes), size=min(n_targets, len(nodes)), replace=False))
    targets = tuple(nodes[i] for i in target_idx)
    intervenable = tuple(n for n in nodes if rng.random() < 0.5)
    desired = {t: int(rng.integers(0, cbn.cards[t])) for t in targets}
    return cbn, intervenable, targets, desired


@dataclass(frozen=True)
class SuiteReport:
    name: str
    passed: bool
    details: tuple[str, ...]


def _drivers(dag: Dag, intervenable, targets, desired: Mapping[str, int]) -> tuple[str, ...]:
    # the `c_star` driver set, with the problem checked as `ControlProblem`
    # checks it
    target_list = tuple(targets)
    pool = dag.canon(intervenable)
    problem = ControlProblem(dag, pool, target_list, tuple(desired[t] for t in target_list))
    return c_star(problem).members


def verify_lemma3(
    cbn: Cbn,
    intervenable,
    desired: Mapping[str, int],
    levels: Iterable[int | float] = (1, 2, INF),
    budget: Budget | None = None,
) -> SuiteReport:
    """The un-intervened probability sits inside [best-min, best-max] for
    every intervened subset, at every requested class level >= 1.

    Levels are read as `IpClass` levels (``2.0`` is 2).  Level 0 is refused:
    an unconditional policy cannot reproduce the table it replaces, so the
    bracket can genuinely fail there.  Both ends of a bracket come from one
    optimizer plan, and levels that give a subset's drivers the same scopes
    share it.
    """
    budget = budget or DEFAULT_BUDGET
    classes = []
    for level in levels:
        try:
            cls = IpClass(level)
        except ValueError:
            cls = None
        if cls is None or cls.level == 0:
            raise ValueError(f"bracket levels must be >= 1 or inf, got {level!r}")
        classes.append(cls)
    dag = cbn.dag
    pool = dag.canon(intervenable)
    budget.check_set_size(len(pool))
    baseline = cbn.marginal_prob(desired, budget)
    failures: list[str] = []
    checked = 0
    for subset in iter_subsets(pool):
        brackets: dict[tuple, list] = {}
        for cls in classes:
            scopes = tuple(scope_for_class(dag, d, cls) for d in subset)
            if scopes not in brackets:
                brackets[scopes] = optimal_values(cbn, subset, cls, desired, BOTH, budget)
            high, low = brackets[scopes]
            checked += 1
            if not (low <= baseline + BRACKET_TOL and baseline <= high + BRACKET_TOL):
                failures.append(
                    f"subset={{{' '.join(subset)}}} {cls}: "
                    f"min={low:.9f} baseline={baseline:.9f} max={high:.9f}"
                )
    details = [f"baseline probability {baseline:.9f}", f"brackets checked: {checked}"]
    details.extend(failures)
    return SuiteReport("lemma3", not failures, tuple(details))


def verify_sufficiency(
    cbn: Cbn,
    intervenable,
    targets,
    desired: Mapping[str, int],
    budget: Budget | None = None,
) -> SuiteReport:
    """The backward-chaining driver set matches the exhaustive-subset
    optimum under full-ancestry policies, in both directions.

    One scan over the subsets serves both directions, and the subset equal
    to the driver set reuses the drivers' answers."""
    budget = budget or DEFAULT_BUDGET
    pool = tuple(intervenable)
    xstar = _drivers(cbn.dag, pool, targets, desired)
    details = [f"drivers: {{{' '.join(xstar)}}}"]
    failures: list[str] = []
    values = optimal_values(cbn, xstar, CLASS_INF, desired, BOTH, budget)
    optima = _subset_optima(cbn, pool, CLASS_INF, desired, BOTH, budget, {frozenset(xstar): values})
    for direction, mine, (best_value, best_subset) in zip(BOTH, values, optima):
        details.append(
            f"{direction.value}: drivers {mine:.9f}, exhaustive {best_value:.9f} "
            f"at {{{' '.join(best_subset)}}}"
        )
        if abs(mine - best_value) > BRACKET_TOL:
            failures.append(f"{direction.value}: drivers miss the exhaustive optimum")
    details.extend(failures)
    return SuiteReport("sufficiency", not failures, tuple(details))


def verify_usm(
    dag: Dag,
    intervenable,
    targets,
    budget: Budget | None = None,
) -> SuiteReport:
    """The adversarial parametrization rewards exactly the full driver set:
    forcing all drivers achieves the desired realization surely, and no
    proper subset can reach it at all."""
    budget = budget or DEFAULT_BUDGET
    target_list = tuple(targets)
    xstar = _drivers(dag, intervenable, target_list, dict.fromkeys(target_list, 1))
    budget.check_set_size(len(xstar))
    cbn, desired = usm_adversarial_cbn(dag, xstar, target_list)
    failures: list[str] = []
    full = InterventionPair(atomic_policy(d, 1, 2) for d in xstar)
    achieved = interventional_prob(cbn, full, desired, budget)
    if achieved != 1.0:
        failures.append(f"full driver set reaches only {achieved:.9f}")
    subset_count = 0
    for subset in iter_subsets(xstar):
        if len(subset) == len(xstar):
            continue
        (value,) = optimal_values(cbn, subset, CLASS_INF, desired, (Direction.MAX,), budget)
        subset_count += 1
        if value != 0.0:
            failures.append(f"proper subset {{{' '.join(subset)}}} reaches {value:.9f}")
    details = [
        f"drivers: {{{' '.join(xstar)}}}",
        f"full set: {achieved:.9f}",
        f"proper subsets checked: {subset_count}",
    ]
    details.extend(failures)
    return SuiteReport("usm", not failures, tuple(details))


def verify_extremality(
    cbn: Cbn,
    intervenable,
    targets,
    desired: Mapping[str, int],
    budget: Budget | None = None,
) -> SuiteReport:
    """Stochastic tables on the 0.25 grid never beat the deterministic
    optimum, in either direction, for the identified driver set.  One
    optimizer plan gives both optima and one grid scan both grid values."""
    budget = budget or DEFAULT_BUDGET
    xstar = _drivers(cbn.dag, intervenable, targets, desired)
    failures: list[str] = []
    details = [f"drivers: {{{' '.join(xstar)}}}"]
    optima = optimal_values(cbn, xstar, CLASS_INF, desired, BOTH, budget)
    grids = grid_policy_values(cbn, xstar, CLASS_INF, desired, BOTH, 0.25, budget)
    for direction, det, grid in zip(BOTH, optima, grids):
        maximize = direction is Direction.MAX
        details.append(f"{direction.value}: deterministic {det:.9f}, grid {grid:.9f}")
        if grid > det + BRACKET_TOL if maximize else grid < det - BRACKET_TOL:
            failures.append(f"grid search beat the deterministic {'maximum' if maximize else 'minimum'}")
    details.extend(failures)
    return SuiteReport("extremality", not failures, tuple(details))
