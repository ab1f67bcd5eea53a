"""Reference searches and verification suites.

`enumerate_prob` and `naive_policy_search` are the literal references, slow
on purpose.  `enumerate_prob` over `intervention.apply_intervention` is the
fully independent route: it sums CPD entries over completions and shares no
tensor code with `Cbn.joint`.  `naive_policy_search` reads `Cbn.joint`
through `interventional_prob`, but shares none of the optimizer's chain,
kernel or scan code.  `grid_policy_search` is not a reference: it searches
stochastic tables on the optimizer's kernel (`control.table_chunks`), to
check that deterministic tables are enough.

What a suite derives from the structure alone, the dag keeps through
`Dag.derived`, under names only this module uses, next to what `control`
keeps there: ``"drivers"``, a suite's `c_star` drivers per pool and
targets as given, once `ControlProblem`'s structure checks pass (the
desired values are checked on every call); ``"brackets"``,
`verify_lemma3`'s schedule of brackets and optimizer calls per pool, event
nodes and class levels; and ``"grid"``, `grid_policy_values`' work
estimate and, once a call passes its work check, its layout and kernel
steps, with their read-only grid factors, per cards, drivers, class level
and step.  `verify_usm`'s pair forcing every driver to 1 is made of
`control.atomic_policy_on`'s kept policies.  So a suite run again, on the
same network or on another parametrization of its structure, walks no
graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, groupby, product
from math import comb, prod
from typing import Iterable, Iterator, Mapping

import numpy as np

from .cbn import DEFAULT_BUDGET, Budget, Cbn, Cpd, _read_only
from .control import (
    ControlProblem,
    Direction,
    atomic_policy_on,
    c_star,
    checked_desired,
    checked_directions,
    chunk_optima,
    kernel_steps,
    live_drivers,
    optimal_policy_value,
    optimal_values,
    table_chunks,
    usm_adversarial_cbn,
)
from .graph import Dag, INF
from .intervention import (
    CLASS_INF,
    InterventionPair,
    IpClass,
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
    # the value and subset of `best_over_subsets` in each of ``directions``.
    # Only the subsets of the live pool (`live_drivers`) are scanned, in the
    # order they have among all subsets, and that is exact: a subset with a
    # dead driver gets its live part's answer bit for bit, the scan reaches
    # that part earlier, and every value scanned so far is at most the
    # incumbent plus `TIE_TOL` (mirrored for MIN), so it never replaces it.
    # ``known`` maps subsets of the live pool to values already at hand.
    # The arguments are checked up front, in the order of the empty
    # subset's call, so that the live pool can be read first.
    dag = cbn.dag
    pool = dag.canon(intervenable)
    budget.check_set_size(len(pool))
    checked_directions(directions, ip_class, desired)
    cbn.check_joint(desired, budget=budget)
    best: list = [None] * len(directions)
    for subset in iter_subsets(live_drivers(dag, pool, desired)):
        values = (known or {}).get(subset)
        if values is None:
            values = optimal_values(cbn, subset, ip_class, desired, directions, budget)
        for i, (direction, value) in enumerate(zip(directions, values)):
            if best[i] is None or direction.beats(value, best[i][0], TIE_TOL):
                best[i] = (value, subset)
    return best


def _grid_denominator(step: float) -> int:
    """The number of grid steps in 1; refused unless ``step`` divides 1."""
    denom = round(1.0 / step) if step > 0 else 0
    if denom < 1 or abs(denom * step - 1.0) > 1e-12:
        raise ValueError(f"step {step} does not divide 1")
    return denom


def simplex_grid_rows(card: int, step: float = 0.25) -> tuple[tuple[float, ...], ...]:
    """All distributions over ``card`` values with coordinates on the grid,
    ``comb(denom + card - 1, card - 1)`` of them for `_grid_denominator`'s
    ``denom``."""
    denom = _grid_denominator(step)
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
    pass over the table combinations.

    Each driver's table picks one `simplex_grid_rows` row per scope
    configuration.  The tables act on the joint's marginal over the
    drivers and their scopes in reverse node order, and the optimizer's
    kernel (`control.table_chunks`) contracts each driver's tables into it
    as one factor, with no chain, each chunk's values read once per
    direction.  The work estimate is the number of table combinations times
    the joint size; it is checked from the row counts, before any row is
    built, and it counts more work than the kernel does.  The dag keeps
    the estimate, and the kernel neither numbers nor copies the chunks,
    whose combination numbers the grid does not read.
    """
    directions = checked_directions(directions, ip_class, desired)
    budget = budget or DEFAULT_BUDGET
    dag = cbn.dag
    driver_list = dag.canon(drivers)
    # the joint is refused as `Cbn.joint` would refuse it, then the step,
    # with or without drivers, then the work, all before the rows and the
    # joint are built; the contractions below run no second check
    cbn.check_joint(desired, budget=budget)
    denom = _grid_denominator(step)
    if not driver_list:
        return [float(cbn._contract(desired, keep=()))] * len(directions)
    key = cbn.card_tuple, driver_list, ip_class.level, step

    def scopes() -> dict:
        return {d: scope_for_class(dag, d, ip_class) for d in driver_list}

    def work() -> int:
        cards = cbn.cards
        return prod(
            comb(denom + cards[d] - 1, cards[d] - 1) ** prod(cards[s] for s in scope)
            for d, scope in scopes().items()
        )

    def grid() -> tuple:
        # the layout in reduction order, reverse node order, as every other
        # node meets no policy factor and is summed out first, and the
        # kernel's steps over it, each driver's factor of its grid rows
        cards, held = cbn.cards, scopes()
        layout = dag.canon([*driver_list, *(s for d in driver_list for s in held[d])])[::-1]
        searched = [(d, held[d], _read_only(np.array(simplex_grid_rows(cards[d], step)))) for d in driver_list]
        segments = [(len(list(run)), None) for _, run in groupby(layout, lambda n: n if n in held else None)]
        return layout, kernel_steps(cards, layout, segments, searched, 1)[0]

    # the estimate is kept apart from the rows and steps, which only a call
    # that passes the work check builds
    budget.check_work(dag.derived("grid", (key, "work"), work) * cbn.state_space_size())
    layout, steps = dag.derived("grid", key, grid)
    base = cbn._contract(desired, driver_list, layout)
    # the sums are the same in every direction, and max and min are exact,
    # so the order the chunks come in leaves every optimum as it is
    chunks = table_chunks(base[None], steps, numbered=False)
    return [float(value) for value in chunk_optima(chunks, (), directions)]


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
    # checks it: the structure once per pool and targets as given, which the
    # dag keeps with the drivers (`Dag.derived`), the desired values on
    # every call
    key = tuple(intervenable), tuple(targets)
    drivers = dag.derived("drivers", key, lambda: _checked_drivers(dag, *key, desired))
    checked_desired(key[1], [desired[t] for t in key[1]])
    return drivers


def _checked_drivers(dag: Dag, intervenable, targets, desired) -> tuple[str, ...]:
    # `_drivers` on a cold key, in `ControlProblem`'s order of refusals
    pool = dag.canon(intervenable)
    return c_star(ControlProblem(dag, pool, targets, tuple(desired[t] for t in targets))).members


def bracket_classes(levels: Iterable[int | float]) -> list[IpClass]:
    """``levels`` read as `IpClass` levels, once there is at least one, each
    is one that `IpClass` takes and none is 0: `verify_lemma3`'s level
    check, which the CLI also runs before it prints anything."""
    classes = []
    for level in levels:
        try:
            cls = IpClass(level)
        except ValueError:
            cls = None
        if cls is None or cls.level == 0:
            raise ValueError(f"bracket levels must be >= 1 or inf, got {level!r}")
        classes.append(cls)
    if not classes:
        raise ValueError("bracket levels must name at least one level")
    return classes


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
    values-only optimizer call on the subset's live drivers (`live_drivers`),
    the only ones the optimizer searches, and every subset and level that
    gives the same live drivers the same scopes shares it.  Which call each
    bracket reads depends on the structure alone, so the dag keeps that
    schedule (`_bracket_schedule`).
    """
    budget = budget or DEFAULT_BUDGET
    classes = bracket_classes(levels)
    dag = cbn.dag
    pool = dag.canon(intervenable)
    budget.check_set_size(len(pool))
    baseline = cbn.marginal_prob(desired, budget)
    calls, schedule = dag.derived(
        "brackets", (pool, frozenset(desired), tuple(cls.level for cls in classes)),
        lambda: _bracket_schedule(dag, pool, desired, classes),
    )
    # the calls come in the order the schedule first reads them
    brackets = [optimal_values(cbn, live, cls, desired, BOTH, budget) for live, cls in calls]
    failures: list[str] = []
    for subset, cls, at in schedule:
        high, low = brackets[at]
        if not (low <= baseline + BRACKET_TOL and baseline <= high + BRACKET_TOL):
            failures.append(
                f"subset={{{' '.join(subset)}}} {cls}: "
                f"min={low:.9f} baseline={baseline:.9f} max={high:.9f}"
            )
    details = [f"baseline probability {baseline:.9f}", f"brackets checked: {len(schedule)}"]
    details.extend(failures)
    return SuiteReport("lemma3", not failures, tuple(details))


def _bracket_schedule(dag: Dag, pool: tuple[str, ...], desired, classes) -> tuple[tuple, tuple]:
    # `verify_lemma3`'s optimizer calls, each ``(live drivers, class)`` once
    # per live drivers and scopes, in the order the brackets first read
    # them, and its brackets, ``(subset, class, call index)`` per subset of
    # canonical ``pool`` and class in ``classes``
    index: dict[tuple, int] = {}
    calls, schedule = [], []
    for subset in iter_subsets(pool):
        live = live_drivers(dag, subset, desired)
        for cls in classes:
            scopes = live, tuple(scope_for_class(dag, d, cls) for d in live)
            if scopes not in index:
                index[scopes] = len(calls)
                calls.append((live, cls))
            schedule.append((subset, cls, index[scopes]))
    return tuple(calls), tuple(schedule)


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
    # c_star's terminals are targets or their ancestors, so all are live
    optima = _subset_optima(cbn, pool, CLASS_INF, desired, BOTH, budget, {xstar: values})
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
    # the pair forcing every driver to 1, of the dag's atomic policies, so
    # each of its tables builds its array once
    full = InterventionPair(atomic_policy_on(dag, d, 1, 2) for d in xstar)
    achieved = interventional_prob(cbn, full, desired, budget)
    if achieved != 1.0:
        failures.append(f"full driver set reaches only {achieved:.9f}")
    proper = [subset for subset in iter_subsets(xstar) if len(subset) < len(xstar)]
    for subset in proper:
        (value,) = optimal_values(cbn, subset, CLASS_INF, desired, (Direction.MAX,), budget)
        if value != 0.0:
            failures.append(f"proper subset {{{' '.join(subset)}}} reaches {value:.9f}")
    details = [
        f"drivers: {{{' '.join(xstar)}}}",
        f"full set: {achieved:.9f}",
        f"proper subsets checked: {len(proper)}",
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
    optimizer plan gives both optima and one grid pass both grid values."""
    budget = budget or DEFAULT_BUDGET
    xstar = _drivers(cbn.dag, intervenable, targets, desired)
    failures: list[str] = []
    details = [f"drivers: {{{' '.join(xstar)}}}"]
    optima = optimal_values(cbn, xstar, CLASS_INF, desired, BOTH, budget)
    grids = grid_policy_values(cbn, xstar, CLASS_INF, desired, BOTH, 0.25, budget)
    for direction, det, grid in zip(BOTH, optima, grids):
        details.append(f"{direction.value}: deterministic {det:.9f}, grid {grid:.9f}")
        if direction.beats(grid, det, BRACKET_TOL):
            optimum = "maximum" if direction is Direction.MAX else "minimum"
            failures.append(f"grid search beat the deterministic {optimum}")
    details.extend(failures)
    return SuiteReport("extremality", not failures, tuple(details))
