"""Driver-set identification and exact optimization of intervention policies.

The optimizer searches deterministic policies only.  The probability of any
event is affine in each policy row, so some extreme point of the policy
simplex attains every optimum; forcing one value per scope configuration
loses nothing.  That choice is what keeps exact search tractable at desk
scale, and `oracle.grid_policy_search` exists to double-check it against
stochastic tables.

`optimal_policy_value` chains the drivers whose scopes nest and enumerates
the tables of the rest.  An enumerated driver searches only its requisite
scope (`requisite_scopes`), the class-scope members that are not
d-separated from the targets given the driver and its other members; a
table that varies across the others never beats one that does not.  Its
witness is widened back to the class scope, constant across the dropped
members.  The search starts from the joint's marginal over the drivers
and their searched scopes, asked of `Cbn.joint` by node name; every other
node is summed out once, before the search.  `policy_batch` multiplies
the policy factors of a batch of numbered table combinations into a
tensor, and `scan_combinations` evaluates the combinations in chunks of
`CHUNK_ELEMENTS` tensor entries (or of one combination, if that is larger).
The tie-break is that of a one-by-one scan in lexicographic order: the
first optimum of a chunk replaces the incumbent only on a strict
improvement.  `oracle.grid_policy_search` runs on the same two functions,
with grid rows where the optimizer has one-hot rows.

One plan serves every direction.  `optimal_policy_values` does everything
up to the scan once and answers each requested direction from it: the
scan reduces each chunk once per direction, each direction with its own
incumbent, so each answer is exactly that of a single-direction call.
`optimal_policy_value` asks for one direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import groupby, product
from math import prod

import numpy as np

# Budget and its error live in cbn; they stay importable from here
from .cbn import DEFAULT_BUDGET, Budget, BudgetExceededError, Cbn, Cpd, value_index
from .graph import Dag
from .intervention import (
    CLASS_INF,
    InterventionPair,
    IpClass,
    atomic_policy,
    interventional_prob,
    scope_for_class,
    table_from_choices,
)


class Direction(Enum):
    MAX = "max"
    MIN = "min"

    def beats(self, value, incumbent) -> bool:
        """Whether ``value`` is strictly better than ``incumbent``."""
        return value > incumbent if self is Direction.MAX else value < incumbent

    @property
    def arg(self):
        """``np.argmax`` or ``np.argmin``: the first optimum's position."""
        return np.argmax if self is Direction.MAX else np.argmin

    @property
    def reduce(self):
        """``np.maximum.reduce`` or ``np.minimum.reduce``."""
        return np.maximum.reduce if self is Direction.MAX else np.minimum.reduce


class Objective(Enum):
    MIN_MIN = "min-min"
    MAX_MAX = "max-max"
    MIN_MAX = "min-max"
    MAX_MIN = "max-min"

    @classmethod
    def parse(cls, text: str) -> "Objective":
        for member in cls:
            if member.value == text.strip().lower():
                return member
        raise ValueError(f"unknown objective {text!r}")


class Provenance(Enum):
    C_STAR = "c-star"
    SHORTCUT = "shortcut"


@dataclass(frozen=True)
class ControlProblem:
    """What to steer: a structure, who may act, and where to aim.

    ``desired`` holds one value index per entry of ``targets``.
    ``objective`` may be left unset for structural-only queries.
    """

    dag: Dag
    intervenable: tuple[str, ...]
    targets: tuple[str, ...]
    desired: tuple[int, ...]
    objective: Objective | None = None

    def __post_init__(self):
        object.__setattr__(self, "intervenable", tuple(self.intervenable))
        object.__setattr__(self, "targets", tuple(self.targets))
        object.__setattr__(self, "desired", tuple(self.desired))
        if not self.targets:
            raise ValueError("targets must be non-empty")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError("duplicate target")
        if len(set(self.intervenable)) != len(self.intervenable):
            raise ValueError("duplicate intervenable node")
        for name in self.targets + self.intervenable:
            self.dag.index(name)
        if len(self.desired) != len(self.targets):
            raise ValueError("one desired value per target required")
        object.__setattr__(self, "desired", tuple(map(value_index, self.targets, self.desired)))
        for name, value in zip(self.targets, self.desired):
            if value < 0:
                raise ValueError(f"desired value for {name!r} must be non-negative")

    @property
    def desired_map(self) -> dict[str, int]:
        return dict(zip(self.targets, self.desired))


@dataclass(frozen=True)
class DriverSet:
    members: tuple[str, ...]
    provenance: Provenance

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))


@dataclass(frozen=True)
class SolveResult:
    """Drivers plus, when a parametrized network was supplied, the achieved
    probability and the witness policies; ``value`` is None for
    structural-only results."""

    drivers: DriverSet
    value: float | None
    pair: InterventionPair | None


def c_star(problem: ControlProblem) -> DriverSet:
    """Driver set: terminals of backward chaining from the targets into the
    intervenable set."""
    bc = problem.dag.backward_chain(problem.targets, problem.intervenable)
    return DriverSet(bc.terminals, Provenance.C_STAR)


def _pick_chain(
    drivers: tuple[str, ...],
    scope_sets: dict[str, frozenset],
    table_counts: dict[str, int],
    dag: Dag,
) -> tuple[list[str], list[str]]:
    """Split drivers into (chain, enumerated).

    A valid chain is an ordering d1..dm with scope(di) + {di} contained in
    scope(d(i+1)); those drivers are optimized per scope configuration by
    nested reductions, everything else by explicit table enumeration.  The
    split minimizes the number of enumerated table combinations, that is it
    maximizes the product of the chained table counts; ties go to the longer
    chain, then to the smaller bitmask over ``drivers``.

    Nesting is a strict partial order, so the best chain ending at a driver
    is the best chain ending at one of its predecessors plus that driver:
    appending one driver to two chains keeps their order under the key.
    """
    bit = {d: 1 << i for i, d in enumerate(drivers)}
    # per chain end: (table product, length, -bitmask, chain); higher is better
    best: dict[str, tuple] = {}
    for b in sorted(drivers, key=lambda d: (len(scope_sets[d]), dag.index(d))):
        head = (1, 0, 0, [])
        for a, entry in best.items():
            if entry[:3] > head[:3] and (scope_sets[a] | {a}) <= scope_sets[b]:
                head = entry
        product_, length, negmask, chain = head
        best[b] = (product_ * table_counts[b], length + 1, negmask - bit[b], chain + [b])
    chain = max(best.values(), key=lambda e: e[:3])[3] if best else []
    enumerated = [d for d in drivers if d not in chain]
    return chain, enumerated


def requisite_scopes(
    dag: Dag, scopes: dict[str, tuple[str, ...]], searched, targets
) -> dict[str, tuple[str, ...]]:
    """``scopes`` with the scope of each ``searched`` driver cut down to its
    requisite members; rounds repeat until no scope shrinks.

    The graph is ``dag`` with each driver's parents replaced by its current
    scope.  Driver d keeps the members that a Bayes-ball pass (Shachter
    1998) from ``targets`` reaches, with d and its scope observed.  The
    members it drops are d-separated from the targets given d and the
    members it keeps, so, whatever the other drivers' tables, some best
    table for d ignores them: they are the non-requisite observations of a
    LIMID (Lauritzen & Nilsson 2001), and the optimum over the cut scopes
    is the optimum over ``scopes``.  A cut removes edges, which can leave
    more members non-requisite; hence the rounds.
    """
    scopes = dict(scopes)
    graph = None  # (parents, children) under the current scopes
    changed = True
    while changed:
        changed = False
        for d in searched:
            if not scopes[d]:
                continue
            if graph is None:
                parents = {n: scopes[n] if n in scopes else dag.parents(n) for n in dag.nodes}
                children: dict[str, list[str]] = {n: [] for n in dag.nodes}
                for n, ps in parents.items():
                    for p in ps:
                        children[p].append(n)
                graph = parents, children
            reached = _ball_reach(*graph, targets, {d, *scopes[d]})
            kept = tuple(s for s in scopes[d] if s in reached)
            if kept != scopes[d]:
                # a cut changes the graph, which is rebuilt when next needed
                scopes[d], changed, graph = kept, True, None
    return scopes


def _ball_reach(parents: dict, children: dict, targets, observed: set) -> set:
    # Bayes-ball: a ball from a child passes an unobserved node to its
    # parents and children and stops at an observed one; a ball from a
    # parent passes an unobserved node to its children and bounces off an
    # observed one back to its parents.  Returns every node a ball visits.
    up: set[str] = set()
    down: set[str] = set()
    reached: set[str] = set()
    stack = [(t, True) for t in targets]
    while stack:
        node, from_child = stack.pop()
        reached.add(node)
        seen = node in observed
        if seen and from_child:
            continue
        if (from_child or seen) and node not in up:
            up.add(node)
            stack.extend((p, True) for p in parents[node])
        if not seen and node not in down:
            down.add(node)
            stack.extend((c, False) for c in children[node])
    return reached


#: elements of the batched tensor one chunk of the table search fills
CHUNK_ELEMENTS = 2 ** 15


def _clamp(value: float) -> float:
    # a sum over many worlds can land an ulp outside [0, 1]
    return min(max(value, 0.0), 1.0)


def policy_batch(
    cbn: Cbn, base: np.ndarray, axes, searched, flat: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray]]:
    """``base`` times the policy factors of each combination in ``flat``,
    one combination per entry of the leading axis, and per searched driver
    its row picks, one row of picks per combination.

    ``base`` has one axis per node of ``axes``, as `Cbn.joint` returns it
    with ``keep=axes``.  ``searched`` lists ``(driver, scope, rows)``: a table
    picks one row of the 2-d array ``rows`` per scope configuration.
    Increasing combination numbers scan the tables as nested loops over
    the drivers would, each driver's picks in lexicographic order.
    """
    cards = cbn.cards
    counts = [len(rows) ** prod(cards[s] for s in scope) for _, scope, rows in searched]
    stride = prod(counts)
    batch = np.broadcast_to(base, (len(flat), *base.shape)).copy()
    picks = []
    for (driver, scope, rows), count in zip(searched, counts):
        stride //= count
        scope_cards = tuple(cards[s] for s in scope)
        cells = prod(scope_cards)
        # big-endian digits: increasing table numbers enumerate pick
        # tuples in lexicographic order
        tables = flat // stride % count
        digits = tables[:, None] // len(rows) ** np.arange(cells - 1, -1, -1) % len(rows)
        factor = rows[digits].reshape(len(flat), *scope_cards, cards[driver])
        batch *= cbn.expand(factor, [*scope, driver], axes)
        picks.append(digits)
    return batch, picks


def scan_combinations(
    total: int, size: int, evaluate, directions: tuple[Direction, ...]
) -> list[tuple[float, int]]:
    """Per direction, the optimum of ``evaluate`` over combination numbers
    ``range(total)`` and the first number that attains it.

    ``evaluate`` maps an array of numbers to one array of values per
    direction; it gets chunks of ``CHUNK_ELEMENTS // size`` numbers (at
    least one), for tensors of ``size`` entries each.  In each direction the
    first optimum of a chunk replaces the incumbent only on a strict
    improvement, as a one-by-one scan would.
    """
    step = max(1, CHUNK_ELEMENTS // size)
    best: list = [(None, 0)] * len(directions)
    for start in range(0, total, step):
        chunk = evaluate(np.arange(start, min(start + step, total)))
        for i, (direction, values) in enumerate(zip(directions, chunk)):
            pos = int(direction.arg(values))
            if best[i][0] is None or direction.beats(values[pos], best[i][0]):
                best[i] = (values[pos], start + pos)
    return best


def optimal_policy_value(
    cbn: Cbn,
    drivers,
    ip_class: IpClass,
    desired,
    direction: Direction,
    budget: Budget | None = None,
) -> tuple[float, InterventionPair]:
    """Best achievable probability of ``desired`` over deterministic
    policies of ``ip_class`` on ``drivers``, with the witness pair.

    Ties are resolved deterministically: candidates are scanned in
    lexicographic choice order and only strict improvements replace the
    incumbent, so repeated runs return the identical witness.
    """
    return optimal_policy_values(cbn, drivers, ip_class, desired, (direction,), budget)[0]


def optimal_policy_values(
    cbn: Cbn,
    drivers,
    ip_class: IpClass,
    desired,
    directions,
    budget: Budget | None = None,
) -> list[tuple[float, InterventionPair]]:
    """`optimal_policy_value` in each of ``directions``, in order, from one
    plan.

    Everything up to the scan is the same in every direction: the checks,
    the scopes, the chain split, the requisite scopes, the axes, the base
    tensor and the work estimate.  The scan builds each chunk's batch once
    and reduces it once per direction; each direction keeps its own tie-break.
    """
    budget = budget or DEFAULT_BUDGET
    dag = cbn.dag
    driver_list = tuple(sorted(set(drivers), key=dag.index))
    if not desired:
        raise ValueError("desired event must be non-empty")
    directions = tuple(directions)
    for direction in directions:
        if not isinstance(direction, Direction):
            raise ValueError(f"direction must be a Direction, got {direction!r}")
    if not isinstance(ip_class, IpClass):
        raise ValueError(f"ip_class must be an IpClass, got {ip_class!r}")

    if not driver_list:
        value = _clamp(cbn.marginal_prob(desired, budget))
        return [(value, InterventionPair.empty()) for _ in directions]

    # before any table is sized: a driver's scope can hold every other node
    cbn.check_joint(desired, budget=budget)
    cards = cbn.cards
    scopes = {d: scope_for_class(dag, d, ip_class) for d in driver_list}
    scope_cards = {d: tuple(cards[s] for s in scopes[d]) for d in driver_list}
    table_counts = {d: cards[d] ** prod(scope_cards[d]) for d in driver_list}

    if cbn.deterministic:
        # A fully deterministic network realizes exactly one world per
        # forced choice of driver values, so each policy table is read at a
        # single scope configuration and constant tables already span every
        # reachable outcome.  Every sum is an exact 0/1 count, and the first
        # optimum of the C-order flattening is the first in product order.
        values = cbn.joint(desired, skip=driver_list, budget=budget, keep=driver_list).reshape(-1)
        budget.check_work(prod(cards[d] for d in driver_list) * len(driver_list))
        results = []
        for direction in directions:
            best = int(direction.arg(values))
            vector = np.unravel_index(best, tuple(cards[d] for d in driver_list))
            pair = InterventionPair(
                atomic_policy(d, int(v), cards[d]) for d, v in zip(driver_list, vector)
            )
            results.append((float(values[best]), pair))
        return results

    scope_sets = {d: frozenset(scopes[d]) for d in driver_list}
    chain, enumerated = _pick_chain(driver_list, scope_sets, table_counts, dag)
    # Enumerated drivers search only their requisite scope members, which
    # leaves the optimum as it is; chain drivers keep their class scopes, so
    # the chain stays valid.  Without a scoped enumerated driver there is
    # nothing to drop, and the analysis is skipped.
    searched_scopes = scopes
    if any(scopes[e] for e in enumerated):
        searched_scopes = requisite_scopes(dag, scopes, enumerated, desired)

    # A node outside the drivers and their searched scopes meets no policy
    # factor and is summed before any driver is reduced, so the search
    # starts from the marginal over the rest.  Its axes come in reduction
    # order, so each reduction runs over a leading axis and adds whole
    # contiguous blocks, and each chain driver comes right before its scope
    # (scopes come in dag order and nest along the chain), so the nested
    # optimum at its axis ranges over tables on exactly that scope.
    relevant = set(driver_list).union(*searched_scopes.values())
    order = [n for d in chain for n in (*scopes[d], d)] + sorted(relevant, key=dag.index)
    axes = list(dict.fromkeys(order))[::-1]
    base = cbn.joint(desired, skip=driver_list, budget=budget, keep=axes)
    outer_total = prod(cards[e] ** prod(cards[s] for s in searched_scopes[e]) for e in enumerated)
    budget.check_work(outer_total * cbn.state_space_size())
    # (width, chain driver or None for a sum), in reduction order.  A run of
    # chance axes is one sum; an enumerated driver's axis is summed on its
    # own, which picks its one-hot entry exactly, so tables that cannot
    # change the outcome tie exactly and the tie-break keeps the first.
    driver_of = {d: d for d in driver_list}
    segments = [
        (len(list(run)), key if key in chain else None)
        for key, run in groupby(axes, driver_of.get)
    ]

    def reduce_chain(
        batch: np.ndarray, direction: Direction, tables: dict | None = None
    ) -> np.ndarray:
        # one chain optimum per entry of the leading batch axis; given
        # ``tables``, also records each chain driver's table for entry 0
        arg, reduce = direction.arg, direction.reduce
        t = batch
        pos = 0
        for width, kind in segments:
            pos += width
            if kind is None:
                t = t.sum(axis=tuple(range(1, 1 + width)))
                continue
            if tables is not None:
                # the axes left are this driver's scope
                left = axes[pos:]
                choice = np.transpose(arg(t, axis=1)[0], [left.index(s) for s in scopes[kind]])
                tables[kind] = tuple(choice.reshape(-1).tolist())
            t = reduce(t, axis=1)
        return t

    searched = [(e, searched_scopes[e], np.eye(cards[e])) for e in enumerated]

    def evaluate(flat: np.ndarray) -> list[np.ndarray]:
        # one batch per chunk, reduced once per direction
        batch = policy_batch(cbn, base, axes, searched, flat)[0]
        return [reduce_chain(batch, direction) for direction in directions]

    optima = [(None, 0)] * len(directions)
    if enumerated:
        optima = scan_combinations(outer_total, base.size, evaluate, directions)
    results = []
    batches = {}  # per witness combination, shared by directions that agree
    for direction, (_, best_flat) in zip(directions, optima):
        if best_flat not in batches:
            batches[best_flat] = policy_batch(cbn, base, axes, searched, np.array([best_flat]))
        batch, picks = batches[best_flat]
        tables = {}
        for e, digits in zip(enumerated, picks):
            choice, kept = digits[0], searched_scopes[e]
            if kept != scopes[e]:
                # widened to the class scope, constant across the dropped members
                choice = cbn.expand(choice.reshape([cards[s] for s in kept]), kept, scopes[e])
                choice = np.broadcast_to(choice, scope_cards[e]).reshape(-1)
            tables[e] = tuple(choice.tolist())
        value = float(reduce_chain(batch, direction, tables)[0])
        pair = InterventionPair(
            table_from_choices(d, scopes[d], scope_cards[d], cards[d], tables[d])
            for d in driver_list
        )
        results.append((_clamp(value), pair))
    return results


def solve(
    problem: ControlProblem, cbn: Cbn | None = None, budget: Budget | None = None
) -> SolveResult:
    """Drivers, value and witness for the problem's objective.

    Structural shortcuts apply where the objective admits them: the
    adversarial objectives are settled by the empty set (an opponent with
    full-ancestry policies on any set can always restore the un-intervened
    probability, and intervening nothing concedes no more than that), and
    an intervenable target pins the min-min value to zero: the one of
    lowest `Dag.index`, forced off its desired value.  A shortcut's atomic
    pair goes through `interventional_prob`; otherwise the `c_star`
    drivers are optimized.  Without a Cbn the result is structural-only.
    """
    if problem.objective is None:
        raise ValueError("problem has no objective")
    if cbn is not None and cbn.dag != problem.dag:
        raise ValueError("cbn structure differs from the problem dag")

    objective = problem.objective
    desired = problem.desired_map
    reachable = [t for t in problem.targets if t in problem.intervenable]
    shortcut = None
    if objective in (Objective.MIN_MAX, Objective.MAX_MIN):
        shortcut = ()
    elif objective is Objective.MIN_MIN and reachable:
        shortcut = (min(reachable, key=problem.dag.index),)
    ds = c_star(problem) if shortcut is None else DriverSet(shortcut, Provenance.SHORTCUT)
    if cbn is None:
        return SolveResult(ds, None, None)
    if shortcut is None:
        direction = Direction.MAX if objective is Objective.MAX_MAX else Direction.MIN
        value, pair = optimal_policy_value(cbn, ds.members, CLASS_INF, desired, direction, budget)
        return SolveResult(ds, value, pair)
    pair = InterventionPair(
        atomic_policy(t, 1 if desired[t] == 0 else 0, cbn.cards[t]) for t in shortcut
    )
    return SolveResult(ds, interventional_prob(cbn, pair, desired, budget), pair)


def usm_adversarial_cbn(dag: Dag, drivers, targets) -> tuple[Cbn, dict[str, int]]:
    """A binary parametrization under which ``drivers`` is unique and
    minimal for reaching the desired target realization.

    Driver nodes are pinned to value zero; every driver descendant becomes
    a conjunction of its parents that lie in or below the driver set, with
    all other parents ineffective; remaining nodes are pinned to one.  The
    desired realization puts every target at one, so forcing the full
    driver set to one achieves it surely while any proper subset leaves a
    pinned zero in the way.
    """
    driver_list = tuple(sorted(set(drivers), key=dag.index))
    target_list = tuple(targets)
    if not target_list:
        raise ValueError("targets must be non-empty")
    for name in target_list:
        dag.index(name)

    driver_set = set(driver_list)
    downstream: set[str] = set()
    for d in driver_list:
        downstream.update(dag.descendants(d))
    effective = driver_set | downstream

    cpds: dict[str, Cpd] = {}
    cards = {name: 2 for name in dag.nodes}
    for node in dag.nodes:
        parents = dag.parents(node)
        parent_cards = tuple(2 for _ in parents)
        n_rows = prod(parent_cards)
        if node in driver_set:
            rows = tuple((1.0, 0.0) for _ in range(n_rows))
        elif node in downstream:
            gate = [i for i, p in enumerate(parents) if p in effective]
            rows = []
            for config in product(range(2), repeat=len(parents)):
                value = 1 if all(config[i] == 1 for i in gate) else 0
                rows.append((1.0, 0.0) if value == 0 else (0.0, 1.0))
            rows = tuple(rows)
        else:
            rows = tuple((0.0, 1.0) for _ in range(n_rows))
        cpds[node] = Cpd(node, parents, parent_cards, rows)

    desired = {t: 1 for t in target_list}
    return Cbn(dag, cards, cpds), desired
