"""Driver-set identification and exact optimization of intervention policies.

The optimizer searches deterministic policies only.  The probability of any
event is affine in each policy row, so some extreme point of the policy
simplex attains every optimum; forcing one value per scope configuration
loses nothing.  That choice is what keeps exact search tractable at desk
scale, and `oracle.grid_policy_search` exists to double-check it against
stochastic tables.

Only live drivers are searched (`live_drivers`): a driver that is neither
a node of the desired event nor an ancestor of one has no directed path to
it, so no table of it moves the event's probability.  Once a call's
arguments pass their checks, its plan, its work estimate and its scan
cover the live drivers alone, and each dead driver's witness is its first
table: all choices 0 on its class scope, or value 0 on the 0/1 path.

In a network whose tables are all 0 or 1, each forced choice of driver
values realizes one world, so `optimal_policy_value` reads the value of
every choice off one `Cbn.joint` over the drivers; a plan without live
drivers takes the same path, with one choice, the empty one.  Otherwise it
chains the drivers whose scopes nest and enumerates the tables of the
rest.  An enumerated driver searches only its requisite scope
(`requisite_scopes`), the class-scope members that are not d-separated
from the targets given the driver and its other members, as
`graph.bayes_ball` finds them; a table that varies across the others never
beats one that does not, and its witness is constant across them.  The
search starts from the joint's marginal over the drivers and their
searched scopes, asked of `Cbn.joint` by node name; every other node is
summed out once, before the search.  `policy_batch` multiplies the policy
factors of a batch of numbered table combinations into a tensor, and
`scan_combinations` evaluates the combinations in chunks of
`CHUNK_ELEMENTS` tensor entries (or of one combination, if that is
larger).  The tie-break is that of a one-by-one scan in lexicographic
order: the first optimum of a chunk replaces the incumbent only on a
strict improvement.  `oracle.grid_policy_search` runs on the same two
functions, with grid rows where the optimizer has one-hot rows.

One plan serves every direction.  `_scan_plan` does everything up to
and including the scan once: the scan reduces each chunk once per
direction, each direction with its own incumbent, so each answer is
exactly that of a single-direction call.  `optimal_values` reads the
values alone, as the verify suites do, and its scan reduces each chain
driver with ``np.maximum``/``np.minimum``.  `optimal_policy_value` asks
for one direction and its winner.  Its scan reduces by a recording sweep
over each chain driver's values instead: a strict comparison keeps the
first optimum, as ``argmax`` does, and since max and min are exact it
gives the same reduced tensor.  Next to the incumbent the scan keeps its
record, the enumerated drivers' digits and the chain drivers' choices,
copied out of the chunk only when the incumbent changes.  `_scan_plan`
returns the winner as data, each live driver's choices taken to its class
scope's row-major order by one gather index per driver (`_gather`), or on
the 0/1 path its chosen value.  `optimal_policy_value` builds the pair by
one rule and no tensor work: an atomic policy on a 0/1 network, otherwise
the driver's first table on its class scope, filled by `Cpd.with_choices`
for a live driver.  First tables are kept on the dag (`Dag.derived`) per
cards, class level and driver, which fix the scope, so each is built and
shape-checked once.

On the chain path, everything `_scan_plan` decides before it asks for
the base tensor depends only on the structure, the cards and the query's
shape: the live drivers, the policy class and the nodes the desired event
names.  The class scopes, the axes, the reduction segments, the enumerated
drivers with their requisite scopes and every driver's gather form one
`SearchPlan`, which the dag keeps per cards and shape, made on the first
call of any network on it.  The deterministic path plans nothing.  Every
call checks its arguments and its `Budget`, the work estimate included,
before any tensor is built, and each check runs once: the base tensor
comes from the contraction behind `Cbn.joint`, after the call's own
`Cbn.check_joint`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import groupby, product
from math import prod

import numpy as np

from .cbn import DEFAULT_BUDGET, Budget, Cbn, Cpd, _read_only, value_index
from .graph import Dag, bayes_ball
from .intervention import (
    CLASS_INF,
    InterventionPair,
    InterventionPolicy,
    IpClass,
    atomic_policy,
    interventional_prob,
    scope_for_class,
)


class Direction(Enum):
    MAX = "max"
    MIN = "min"

    def beats(self, value, incumbent, margin: float = 0.0) -> bool:
        """Whether ``value`` is better than ``incumbent`` by more than
        ``margin``; by default, whether it is strictly better."""
        if self is Direction.MAX:
            return value > incumbent + margin
        return value < incumbent - margin

    @property
    def arg(self):
        """``np.argmax`` or ``np.argmin``: the first optimum's position."""
        return np.argmax if self is Direction.MAX else np.argmin

    @property
    def pairwise(self):
        """``np.maximum`` or ``np.minimum``, elementwise and exact."""
        return np.maximum if self is Direction.MAX else np.minimum

    @property
    def improves(self):
        """``np.greater`` or ``np.less``: strict, so a tie is no
        improvement."""
        return np.greater if self is Direction.MAX else np.less


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
    """Split non-empty ``drivers`` into (chain, enumerated); the chain
    holds at least one driver.

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
    chain = max(best.values(), key=lambda e: e[:3])[3]
    enumerated = [d for d in drivers if d not in chain]
    return chain, enumerated


def requisite_scopes(
    dag: Dag, scopes: dict[str, tuple[str, ...]], searched, targets
) -> dict[str, tuple[str, ...]]:
    """``scopes`` with the scope of each ``searched`` driver cut down to its
    requisite members; rounds repeat until no scope shrinks.

    The graph is ``dag`` with each driver's parents replaced by its current
    scope.  Driver d keeps the members that `graph.bayes_ball` from
    ``targets`` reaches, with d and its scope observed.  The members it
    drops are d-separated from the targets given d and the members it
    keeps, so, whatever the other drivers' tables, some best table for d
    ignores them: they are the non-requisite observations of a LIMID
    (Lauritzen & Nilsson 2001), and the optimum over the cut scopes is the
    optimum over ``scopes``.  A cut removes edges, which can leave
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
            reached = bayes_ball(*graph, targets, {d, *scopes[d]})
            kept = tuple(s for s in scopes[d] if s in reached)
            if kept != scopes[d]:
                # a cut changes the graph, which is rebuilt when next needed
                scopes[d], changed, graph = kept, True, None
    return scopes


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
    if not searched:
        # one combination, the empty one, whose batch is ``base`` itself
        return base[None], []
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
) -> list[tuple[float, int, object]]:
    """Per direction, the optimum of ``evaluate`` over combination numbers
    ``range(total)``, the first number that attains it and that number's
    rows.

    ``evaluate`` maps an array of numbers to one ``(values, arrays)`` pair
    per direction: ``arrays`` lists what the caller keeps per number, one
    row per number each, and is ``()`` when it keeps nothing.  It gets
    chunks of ``CHUNK_ELEMENTS // size`` numbers (at least one), for
    tensors of ``size`` entries each.  In each direction the first optimum
    of a chunk replaces the incumbent only on a strict improvement, as a
    one-by-one scan would, and only then are its rows copied out of the
    chunk.
    """
    step = max(1, CHUNK_ELEMENTS // size)
    best: list = [(None, 0, None)] * len(directions)
    for start in range(0, total, step):
        chunk = evaluate(np.arange(start, min(start + step, total)))
        for i, (direction, (values, arrays)) in enumerate(zip(directions, chunk)):
            pos = int(direction.arg(values))
            if best[i][0] is None or direction.beats(values[pos], best[i][0]):
                best[i] = (values[pos], start + pos, [a[pos].copy() for a in arrays])
    return best


def live_drivers(dag: Dag, drivers: tuple[str, ...], desired) -> tuple[str, ...]:
    """The members of canonical ``drivers`` that are a node of the event
    ``desired`` or an ancestor of one, in order.

    Any other driver is dead: it has no directed path to the event, and
    none in a graph that policies make either, since a policy's scope lies
    in its owner's ancestry.  So no table of it moves the event's
    probability, and its observations are none of them requisite (Lauritzen
    & Nilsson 2001)."""
    upstream = set(desired).union(*map(dag.ancestors, desired))
    return tuple(d for d in drivers if d in upstream)


def checked_directions(directions, ip_class, desired) -> tuple[Direction, ...]:
    """``directions`` as a tuple, once ``desired`` is a non-empty event,
    each direction a `Direction` and ``ip_class`` an `IpClass`; a search
    checks all three before any work."""
    if not desired:
        raise ValueError("desired event must be non-empty")
    directions = tuple(directions)
    for direction in directions:
        if not isinstance(direction, Direction):
            raise ValueError(f"direction must be a Direction, got {direction!r}")
    if not isinstance(ip_class, IpClass):
        raise ValueError(f"ip_class must be an IpClass, got {ip_class!r}")
    return directions


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
    values, choices = _scan_plan(cbn, drivers, ip_class, desired, (direction,), budget, witness=True)
    dag, cards = cbn.dag, cbn.cards
    # the dag's first tables at this level, which with the driver fixes the
    # scope
    tables = cbn._first_tables.setdefault(ip_class.level, {})

    def policy(d: str) -> InterventionPolicy:
        # the one witness rule: on a 0/1 network, the atomic policy on the
        # chosen value, or on 0 for a dead driver; otherwise the driver's
        # first table, kept on the dag, filled with a live driver's choices
        if cbn.deterministic:
            return atomic_policy(d, choices.get(d, 0), cards[d])
        table = tables.get(d)
        if table is None:
            table = tables[d] = _first_table(cards, d, scope_for_class(dag, d, ip_class))
        return InterventionPolicy(table.with_choices(choices[d]) if d in choices else table)

    return values[0], InterventionPair(map(policy, dag.canon(drivers)))


def optimal_values(
    cbn: Cbn,
    drivers,
    ip_class: IpClass,
    desired,
    directions,
    budget: Budget | None = None,
) -> list[float]:
    """The value of `optimal_policy_value` in each of ``directions``, in
    order, with the same refusals, from one plan's scan: no winner is kept
    and no witness table is built."""
    return _scan_plan(cbn, drivers, ip_class, desired, directions, budget, witness=False)[0]


@dataclass(frozen=True, eq=False)
class SearchPlan:
    """What the chain search decides from the structure, the cards and a
    query's shape alone: the live drivers, the policy class and the nodes
    the desired event names.  It holds no budget, no event value and no CPD
    entry, so the dag keeps one per cards and shape (`Dag.derived`), which
    every network on it shares.

    ``scopes`` are the drivers' class scopes, and ``axes`` the base
    tensor's nodes in reduction order.  ``segments`` are the reduction's
    runs over ``axes``: ``(width, None)`` sums, and ``(width, driver)``
    reduces a chain driver; the chain drivers are the segments' drivers,
    in reduction order.  ``searched`` lists ``(driver, searched scope,
    read-only one-hot rows)`` per enumerated driver, in canonical order, as
    `policy_batch` takes it, and ``outer_total`` counts the table
    combinations scanned.  ``gathers`` maps each driver, in the order the
    scan records their rows (the enumerated drivers, then the chain), to
    the read-only `_gather` index that takes its row to its class scope's
    row-major order: an enumerated driver's digits are laid out over its
    searched scope, a chain driver's choices over the axes left when it is
    reduced.
    """

    scopes: dict[str, tuple[str, ...]]
    axes: tuple[str, ...]
    searched: tuple[tuple[str, tuple[str, ...], np.ndarray], ...]
    segments: tuple[tuple[int, str | None], ...]
    outer_total: int
    gathers: dict[str, np.ndarray]


def _gather(cards, scope, layout) -> np.ndarray:
    """For each configuration of ``scope``, in row-major order, its
    position in a row laid out row-major over ``layout``, which lists
    members of ``scope`` in any order: the gathered row is constant across
    the members ``layout`` leaves out.  Read-only."""
    index = np.arange(prod(cards[s] for s in layout)).reshape([cards[s] for s in layout])
    index = index.transpose([layout.index(s) for s in scope if s in layout])
    shape = [cards[s] if s in layout else 1 for s in scope]
    return _read_only(np.broadcast_to(index.reshape(shape), [cards[s] for s in scope]).reshape(-1))


def _first_table(cards, driver: str, scope: tuple[str, ...]) -> Cpd:
    # the table that chooses value 0 at every configuration of ``scope``,
    # built by `Cpd.from_choices`, which checks its shape
    scope_cards = tuple(cards[s] for s in scope)
    return Cpd.from_choices(driver, scope, scope_cards, cards[driver], (0,) * prod(scope_cards))


def _search_plan(
    cbn: Cbn, driver_list: tuple[str, ...], ip_class: IpClass, given: frozenset
) -> SearchPlan:
    # the chain search's plan for canonical, non-empty drivers and the nodes
    # ``given`` of the desired event; tables are sized here, so only once
    # `Cbn.check_joint` passed
    dag = cbn.dag
    cards = cbn.cards
    scopes = {d: scope_for_class(dag, d, ip_class) for d in driver_list}
    table_counts = {d: cards[d] ** prod(cards[s] for s in scopes[d]) for d in driver_list}
    scope_sets = {d: frozenset(scopes[d]) for d in driver_list}
    chain, enumerated = _pick_chain(driver_list, scope_sets, table_counts, dag)
    # Enumerated drivers search only their requisite scope members, which
    # leaves the optimum as it is; chain drivers keep their class scopes, so
    # the chain stays valid
    searched_scopes = requisite_scopes(dag, scopes, enumerated, given)

    # A node outside the drivers and their searched scopes meets no policy
    # factor and is summed before any driver is reduced, so the search
    # starts from the marginal over the rest.  Its axes come in reduction
    # order, so each reduction runs over a leading axis and adds whole
    # contiguous blocks, and each chain driver comes right before its scope
    # (scopes come in dag order and nest along the chain), so the nested
    # optimum at its axis ranges over tables on exactly that scope.
    relevant = set(driver_list).union(*searched_scopes.values())
    order = [n for d in chain for n in (*scopes[d], d)] + list(dag.canon(relevant))
    axes = tuple(dict.fromkeys(order))[::-1]
    # one combination, the empty one, when every driver is on the chain
    outer_total = prod(cards[e] ** prod(cards[s] for s in searched_scopes[e]) for e in enumerated)
    # In reduction order, a run of chance axes is one sum; an enumerated
    # driver's axis is summed on its own, which picks its one-hot entry
    # exactly, so tables that cannot change the outcome tie exactly and the
    # tie-break keeps the first.  The axes left when a chain driver is
    # reduced are its class scope, in reduction order.
    driver_of = {d: d for d in driver_list}
    gathers = {e: _gather(cards, scopes[e], searched_scopes[e]) for e in enumerated}
    segments, pos = [], 0
    for key, run in groupby(axes, driver_of.get):
        width = len(list(run))
        pos += width
        if key in chain:
            gathers[key] = _gather(cards, scopes[key], axes[pos:])
        segments.append((width, key if key in chain else None))
    searched = tuple((e, searched_scopes[e], _read_only(np.eye(cards[e]))) for e in enumerated)
    return SearchPlan(scopes, axes, searched, tuple(segments), outer_total, gathers)


def _scan_plan(cbn: Cbn, drivers, ip_class: IpClass, desired, directions, budget, *, witness: bool):
    # The checks, the work check, the base tensor and the scan, on the chain
    # path from the live drivers' `SearchPlan`.  Returns the value per
    # direction, then, given ``witness`` and one direction, each live
    # driver's winning choice: on the 0/1 path one value, on the chain path
    # one value per configuration of its class scope, in row-major order.
    budget = budget or DEFAULT_BUDGET
    dag = cbn.dag
    directions = checked_directions(directions, ip_class, desired)
    # before the plan: a driver's scope can hold every other node
    cbn.check_joint(desired, budget=budget)
    # Only the live drivers are searched, and only now, so that every
    # refusal above keeps its text and order.  Every table of a dead driver
    # ties with its first, which the scan's tie-break would keep.
    live = live_drivers(dag, dag.canon(drivers), desired)
    cards = cbn.cards

    if not live or cbn.deterministic:
        # A fully deterministic network realizes one world per forced choice
        # of driver values, so each policy table is read at one scope
        # configuration and constant tables span every reachable outcome.
        # Every sum is an exact 0/1 count, and the first optimum of the
        # C-order flattening is the first in product order.  Without live
        # drivers, the empty choice gives the marginal of ``desired``.
        budget.check_work(prod(cards[d] for d in live) * len(live))
        base = cbn._contract(desired, live, live)
        values = base.reshape(-1)
        bests = [int(direction.arg(values)) for direction in directions]
        chosen = np.unravel_index(bests[0], base.shape) if witness else ()
        return [_clamp(float(values[best])) for best in bests], dict(zip(live, map(int, chosen)))

    shape = (live, ip_class, frozenset(desired))
    plan = cbn._search_plans.get(shape)
    if plan is None:
        plan = cbn._search_plans[shape] = _search_plan(cbn, *shape)
    budget.check_work(plan.outer_total * cbn.state_space_size())
    base = cbn._contract(desired, live, plan.axes)

    def reduce_chain(
        batch: np.ndarray, direction: Direction, picks: list | None = None
    ) -> np.ndarray:
        # one chain optimum per entry of the leading batch axis; given
        # ``picks``, also appends each chain driver's choices per entry,
        # flattened over the axes left when it is reduced
        t = batch
        for width, kind in plan.segments:
            if kind is None:
                t = t.sum(axis=tuple(range(1, 1 + width)))
            elif picks is None:
                t = direction.pairwise.reduce(t, axis=1)
            else:
                # One sweep over the driver's values gives the choices and
                # the optimum.  A strict improvement keeps the first
                # optimum, as `Direction.arg` would, and max and min are
                # exact, so the optimum is bit-identical to `reduce`'s.
                # Value 1 against value 0 gives 0/1 choices, kept as bytes
                # for a binary driver.
                rows = t.reshape(len(t), t.shape[1], -1)
                better = direction.improves(rows[:, 1], rows[:, 0])
                chosen = better.view(np.uint8) if t.shape[1] == 2 else better.astype(np.intp)
                best = direction.pairwise(rows[:, 0], rows[:, 1])
                for value in range(2, t.shape[1]):
                    chosen[direction.improves(rows[:, value], best)] = value
                    best = direction.pairwise(best, rows[:, value])
                picks.append(chosen)
                t = best.reshape(t.shape[:1] + t.shape[2:])
        return t

    def evaluate(flat: np.ndarray) -> list:
        # one batch per chunk, reduced once per direction; with a witness
        # to build, the one direction keeps the enumerated drivers' digits
        # and its reduction's chain choices
        batch, digits = policy_batch(cbn, base, plan.axes, plan.searched, flat)
        if witness:
            return [(reduce_chain(batch, directions[0], digits), digits)]
        return [(reduce_chain(batch, direction), ()) for direction in directions]

    optima = scan_combinations(plan.outer_total, base.size, evaluate, directions)
    rows = optima[0][2] if witness else ()
    choices = {d: row[gather] for (d, gather), row in zip(plan.gathers.items(), rows)}
    return [_clamp(float(value)) for value, _, _ in optima], choices


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

    The network depends on the structure and the drivers alone, so the dag
    keeps one per canonical driver set (`Dag.derived`), with the plans its
    queries made; each call returns a desired realization of its own.
    """
    driver_list = dag.canon(drivers)
    target_list = tuple(targets)
    if not target_list:
        raise ValueError("targets must be non-empty")
    for name in target_list:
        dag.index(name)
    networks = dag.derived("usm")
    cbn = networks.get(driver_list)
    if cbn is None:
        cbn = networks[driver_list] = _usm_network(dag, driver_list)
    return cbn, {t: 1 for t in target_list}


def _usm_network(dag: Dag, driver_list: tuple[str, ...]) -> Cbn:
    # `usm_adversarial_cbn`'s network for canonical ``driver_list``
    driver_set = set(driver_list)
    downstream = set().union(*map(dag.descendants, driver_list))
    effective = driver_set | downstream

    cpds: dict[str, Cpd] = {}
    for node in dag.nodes:
        parents = dag.parents(node)
        # one value per parent configuration, in row-major order
        configs = product((0, 1), repeat=len(parents))
        if node in driver_set:
            choices = [0 for _ in configs]
        elif node in downstream:
            gate = [i for i, p in enumerate(parents) if p in effective]
            choices = [int(all(config[i] for i in gate)) for config in configs]
        else:
            choices = [1 for _ in configs]
        cpds[node] = Cpd.from_choices(node, parents, (2,) * len(parents), 2, choices)
    return Cbn(dag, dict.fromkeys(dag.nodes, 2), cpds)
