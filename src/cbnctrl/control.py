"""Driver-set identification and exact optimization of intervention policies.

The optimizer searches deterministic policies only.  The probability of any
event is affine in each policy row, so some extreme point of the policy
simplex attains every optimum; forcing one value per scope configuration
loses nothing.  That choice is what keeps exact search tractable at desk
scale, and `oracle.grid_policy_search` exists to double-check it against
stochastic tables, on the same kernel (`table_chunks`).  The independent
references are `oracle.naive_policy_search` and the tests'
`reference_batch` and `literal_grid_values`.

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
summed out once, before the search.  The table combinations are numbered
big-endian: the free drivers' values, then each factored driver's pick
per scope cell, in node order.  An enumerated driver is free when its
searched scope is empty, no other driver's scope, chained or searched,
holds it, and no factored driver comes before it in node order: its
tables are its values, read off the base's leading axis with no factor
and no sum.  Every other enumerated driver enters `table_chunks` as a
factor of one-hot rows that sums only its own axis, and each run of
chance axes is one sum, in the reduction's segment order, so each value,
and with it each witness and tie, is that of a scan of one combination at
a time.  The work estimate counts a free combination as it counts a
factored one, times the state space.  The winner is the first optimum in
number order, whatever order the chunks come in.

One plan serves every direction.  `_scan_plan` does everything up to and
including the scan once: the scan reduces each chunk once per direction,
each direction with its own incumbent, so each answer is exactly that of a
single-direction call.  `optimal_values` reads the values alone, as the
verify suites do, and its scan (`chunk_optima`, which
`oracle.grid_policy_values` shares) reduces each chain driver, then each
chunk, with ``np.maximum``/``np.minimum``, and keeps no number.
`optimal_policy_value` asks for one direction and its winner.  Its scan
reduces by a recording sweep over each chain driver's values instead: a
strict comparison keeps the first optimum, as ``argmax`` does, and since
max and min are exact it gives the same reduced tensor.  The scan keeps
the incumbent's number and chain choices, copied out of the chunk only
when the incumbent changes; the enumerated drivers' digits are the
number's digits.  `_scan_plan` returns the winner as data, each live
driver's choices taken to its class scope's row-major order by one gather
index per driver (`_gather`), or on the 0/1 path its chosen value.
`optimal_policy_value` builds the pair by one rule and no tensor work: an
atomic policy on a 0/1 network, otherwise the driver's first table on its
class scope, filled by `Cpd.with_choices` for a live driver.  First tables
are kept on the dag per cards, class level and driver, which fix the
scope, so each is built and shape-checked once.

On the chain path, everything `_scan_plan` decides before it asks for the
base tensor depends only on the structure, the cards and the query's
shape: the live drivers, the policy class and the nodes the desired event
names.  It forms one `SearchPlan`, which the dag keeps per cards and
shape, made on the first call of any network on it.  The plan builds its
kernel's steps and factors (`SearchPlan.kernel`) on the first scan, once
a call has passed its work checks, so a refused call builds no factor.
The deterministic path plans nothing.  Every call checks its arguments and
its `Budget`, the work estimate included, before any tensor is built, and
each check runs once: the base tensor comes from the contraction behind
`Cbn.joint`, after the call's own `Cbn.check_joint`.

The dag keeps what this module derives from the structure alone
(`Dag.derived`), under names no other module uses: ``"search"`` and
``"first tables"`` above, a call's canonical and live drivers per drivers
as given and event nodes (``"live"``), `c_star`'s drivers (``"c_star"``),
one atomic policy per driver, value and card (``"atomic"``), which the 0/1
witness path, `solve`'s min-min shortcut and `oracle.verify_usm` share,
and `usm_adversarial_cbn`'s networks (``"usm"``).  None depends on a CPD
entry, a budget or an event value, so a warm call walks no graph: it pays
for its checks, its contraction and its reductions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import groupby, product, takewhile
from math import prod

import numpy as np

from .cbn import DEFAULT_BUDGET, Budget, BudgetExceededError, Cbn, Cpd, _read_only, value_index
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
        """``np.ndarray.argmax`` or ``np.ndarray.argmin``, called with the
        array and an optional axis: the first optimum's position, as
        ``np.argmax`` gives it, without that function's Python wrapper."""
        return np.ndarray.argmax if self is Direction.MAX else np.ndarray.argmin

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
        object.__setattr__(self, "desired", checked_desired(self.targets, self.desired))

    @property
    def desired_map(self) -> dict[str, int]:
        return dict(zip(self.targets, self.desired))


def checked_desired(targets: tuple[str, ...], desired) -> tuple[int, ...]:
    """``desired``, one value per entry of ``targets``, as value indices,
    once each is an integer (`value_index`) and none is negative:
    `ControlProblem`'s check of the desired values."""
    desired = tuple(map(value_index, targets, desired))
    for name, value in zip(targets, desired):
        if value < 0:
            raise ValueError(f"desired value for {name!r} must be non-negative")
    return desired


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
    intervenable set.

    They depend on the structure alone, so the dag keeps them per targets
    and intervenable set as the checked problem gives them
    (`Dag.derived`)."""
    dag, key = problem.dag, (problem.targets, problem.intervenable)
    return DriverSet(dag.derived("c_star", key, lambda: dag.backward_chain(*key).terminals), Provenance.C_STAR)


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


#: entries within which the table kernel keeps each factor's output, bar
#: a single table's (`kernel_steps`)
CHUNK_ELEMENTS = 2 ** 15
#: the most table combinations a scan can number with numpy integers
_INDEX_LIMIT = np.iinfo(np.intp).max


def _clamp(value: float) -> float:
    # a sum over many worlds can land an ulp outside [0, 1]
    return min(max(value, 0.0), 1.0)


def kernel_steps(cards, axes, segments, factored, lead: int) -> tuple[tuple, tuple]:
    """The steps of `table_chunks` over a base of ``lead`` tables by the
    nodes ``axes``, in reduction order, and the ``segments`` (runs over
    ``axes``: ``(width, None)`` sums, ``(width, driver)`` reduces a chain
    driver) left from the first chain driver on.

    ``factored`` lists ``(driver, scope, rows)`` in canonical order.  A
    step is the width of a run of chance axes to sum, or a driver's factor,
    which sums only its driver's axis, unless the driver lies in the chain
    region or after one of its scope members: then it enters before any
    sum, keeps that axis, and its own width-1 segment sums it.  In step
    order, each factor runs in blocks over as many of its last scope cells
    as keep its output within `CHUNK_ELEMENTS` entries (or at one table).
    A factor step is ``(rows, keep, cells, low, weight, factor, where)``:
    ``factor`` holds the tables of the last ``low`` cells, read-only, laid
    out to broadcast over the running tensor, ``where`` places each cell's
    row in it, and ``weight`` is what one table adds to a combination's
    number."""
    label = {n: i for i, n in enumerate(axes)}
    head = list(takewhile(lambda s: s[1] is None, segments))
    chain_at = sum(width for width, _ in head)
    counts = [len(rows) ** prod(cards[s] for s in scope) for _, scope, rows in factored]
    index = {d: j for j, (d, _, _) in enumerate(factored)}
    masked = [j for j, (d, scope, _) in enumerate(factored)
              if label[d] >= chain_at or any(label[s] < label[d] for s in scope)]
    steps, kept = [], list(range(len(axes)))

    def enter(j: int, keep: bool) -> None:
        nonlocal lead, kept
        driver, scope, rows = factored[j]
        count, card = rows.shape
        out = [a for a in kept if keep or a != label[driver]]
        room = CHUNK_ELEMENTS // (lead * prod(cards[axes[a]] for a in out))
        cells, low = prod(cards[s] for s in scope), 0
        while low < cells and count ** (low + 1) <= room:
            low += 1
        lead *= count ** low
        # the factor's axes in label order, as the running tensor has them,
        # then its tables
        own = [label[s] for s in scope] + [label[driver]]
        order = sorted(range(len(own)), key=own.__getitem__)
        sizes = [cards[axes[own[k]]] for k in order]
        where = np.arange(cells * card).reshape(sizes).transpose(np.argsort(order)).reshape(cells, card)
        factor = np.zeros((cells * card, count ** low))
        picks = np.array(list(product(range(count), repeat=low)), dtype=np.intp)
        factor[where[cells - low:]] = np.moveaxis(rows[picks], 0, -1)
        factor = factor.reshape(*(cards[axes[a]] if a in own else 1 for a in kept), -1, 1)
        steps.append((rows, keep, cells, low, prod(counts[j + 1:]), _read_only(factor), where))
        kept = out

    for j in masked:
        enter(j, True)
    for width, _ in head:
        j = index.get(axes[kept[0]])
        if j is None or j in masked:
            steps.append(width)
            kept = kept[width:]
        else:
            enter(j, False)
    return tuple(steps), tuple(segments[len(head):])


def table_chunks(base: np.ndarray, steps, weight: int = 1, numbered: bool = True):
    """The value of every table combination that ``steps`` (`kernel_steps`)
    enter into ``base``, in chunks, each with its combination numbers.

    ``base`` leads with an axis over the free drivers' values, numbered
    ``weight`` apart, and so does each chunk over its combinations, newest
    factor's tables first.  A chunk's numbers are ``None`` while no factor
    has entered, as the one chunk is then numbered by position, and for a
    caller that keeps no number (``numbered`` false); otherwise chunks come
    in an order of their own.  From the first factor on, the tables axis
    comes last, so that each operation runs along it.  A factor adds its
    products over its driver's values in order, as ``np.einsum`` would, and
    a one-hot one picks one entry exactly; a run of chance axes adds its
    entries in row-major order, as over one combination's own tensor; and a
    chunk is handed on laid out as one combination's tensor after another,
    so that the chain's sums add as they would on each (a chunk of the
    tables axis alone is that already).  So each value is that of a scan of
    one combination at a time.  Without steps, the one chunk is ``base``
    itself."""
    if not steps:
        return ((base, None),)

    def run(t: np.ndarray, numbers, at: int, last: bool):
        for i in range(at, len(steps)):
            if isinstance(steps[i], int):
                lead = int(not last)
                t = t.sum(axis=tuple(range(lead, lead + steps[i])))
                continue
            rows, keep, cells, low, step_weight, factor, where = steps[i]
            count, size, high = len(rows), factor.shape[-2], cells - low
            if not last:
                # the tables axis last from the first factor on
                if numbered:
                    numbers = np.arange(len(t)) * weight
                t = t.transpose(*range(1, t.ndim), 0)
            if high:
                factor = factor.copy()
            for n in range(count ** high):
                if high:
                    digits = [n // count ** (high - 1 - k) % count for k in range(high)]
                    factor.reshape(-1, size)[where[:high]] = rows[digits][..., None]
                t_by_table = t[..., None, :]
                if keep:
                    out = factor * t_by_table
                else:
                    out = factor[0] * t_by_table[0]
                    for value in range(1, len(factor)):
                        out += factor[value] * t_by_table[value]
                if numbered:
                    offsets = (n * size + np.arange(size)) * step_weight
                    numbers_out = (offsets[:, None] + numbers).reshape(-1)
                else:
                    numbers_out = None
                yield from run(out.reshape(*out.shape[:-2], -1), numbers_out, i + 1, True)
            return
        yield (t if not last or t.ndim == 1 else np.ascontiguousarray(np.moveaxis(t, -1, 0))), numbers

    return run(base, None, 0, False)


def live_drivers(dag: Dag, drivers: tuple[str, ...], desired) -> tuple[str, ...]:
    """The members of canonical ``drivers`` that are a node of the event
    ``desired`` or an ancestor of one, in order.

    Any other driver is dead: it has no directed path to the event, and
    none in a graph that policies make either, since a policy's scope lies
    in its owner's ancestry.  So no table of it moves the event's
    probability, and its observations are none of them requisite (Lauritzen
    & Nilsson 2001).  Each node's ancestors are kept on the dag
    (`Dag.ancestors`)."""
    upstream = set(desired).union(*map(dag.ancestors, desired))
    return tuple(d for d in drivers if d in upstream)


def _driver_lists(dag: Dag, drivers: tuple, given: frozenset) -> tuple[tuple[str, ...], tuple[str, ...]]:
    # ``drivers`` as a call gave them, canonical (`Dag.canon`, whose refusal
    # a cold key runs), and the live ones for the event nodes ``given``
    # (`live_drivers`), which the dag keeps per drivers as given and event
    # nodes, so that a warm call neither sorts nor filters them
    def make():
        canonical = dag.canon(drivers)
        return canonical, live_drivers(dag, canonical, given)

    return dag.derived("live", (drivers, given), make)


def atomic_policy_on(dag: Dag, driver: str, value: int, card: int) -> InterventionPolicy:
    """`atomic_policy` forcing ``driver`` of ``card`` values to ``value``,
    which the dag keeps per driver, value and card (`Dag.derived`): each is
    built and checked once, and its table's array with it."""
    return dag.derived("atomic", (driver, value, card), lambda: atomic_policy(driver, value, card))


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

    Ties are resolved deterministically: the first optimum in lexicographic
    choice order wins, whatever order the scan's chunks come in, so
    repeated runs return the identical witness.
    """
    scan = _scan_plan(cbn, drivers, ip_class, desired, (direction,), budget, witness=True)
    (value,), choices, driver_list = scan
    dag, cards = cbn.dag, cbn.cards
    # the one witness rule: on a 0/1 network, the atomic policy on the
    # chosen value, or on 0 for a dead driver; otherwise the driver's first
    # table, filled with a live driver's choices.  The level and the driver
    # fix a first table's scope, so the dag keeps one per cards, level and
    # driver.
    if cbn.deterministic:
        policies = [atomic_policy_on(dag, d, choices.get(d, 0), cards[d]) for d in driver_list]
    else:
        card_tuple, level = cbn.card_tuple, ip_class.level
        policies = []
        for d in driver_list:
            table = dag.derived(
                "first tables", (card_tuple, level, d),
                lambda: _first_table(cards, d, scope_for_class(dag, d, ip_class)),
            )
            policies.append(InterventionPolicy(table.with_choices(choices[d]) if d in choices else table))
    return value, InterventionPair(policies)


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

    ``cards`` are the cards it was planned for, by node, and ``axes`` the
    base tensor's nodes in scan order, as `Cbn.joint` is asked for them: the
    free drivers' axes, in canonical order, then the others in reduction
    order.  ``searched`` lists, per enumerated driver in canonical order,
    ``(driver, searched scope, read-only one-hot rows)``; its first ``free``
    drivers are free, read off the base without a factor, and the rest are
    factored.  ``segments`` are the reduction's runs over the others:
    ``(width, None)`` sums, and ``(width, driver)`` reduces a chain driver;
    the runs on either side of a free driver's axis stay apart, so each adds
    as it would with that axis summed between them.  ``outer_total`` counts
    the table combinations, free ones included, and ``radices`` are a
    combination number's digits, one per enumerated driver's searched scope
    cell.  ``gathers`` maps each driver, enumerated drivers first, then the
    chain, to the read-only `_gather` index that takes its row to its class
    scope's row-major order: an enumerated driver's digits are laid out over
    its searched scope, a chain driver's choices over the axes left when it
    is reduced.  The plan builds its kernel (`kernel`) on the first scan.
    """

    cards: dict[str, int]
    axes: tuple[str, ...]
    free: int
    searched: tuple[tuple[str, tuple[str, ...], np.ndarray], ...]
    segments: tuple[tuple[int, str | None], ...]
    outer_total: int
    gathers: dict[str, np.ndarray]
    radices: tuple[int, ...]

    @cached_property
    def kernel(self) -> tuple[tuple, tuple]:
        """`kernel_steps` for this plan's scan, built on first read, which
        `_scan_plan` makes only once a call has passed its work checks."""
        lead = prod(self.cards[e] for e, _, _ in self.searched[:self.free])
        return kernel_steps(self.cards, self.axes[self.free:], self.segments, self.searched[self.free:], lead)


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
    dag: Dag, cards: tuple[int, ...], driver_list: tuple[str, ...], ip_class: IpClass, given: frozenset
) -> SearchPlan:
    # the chain search's plan for ``cards`` in node order, canonical,
    # non-empty drivers and the nodes ``given`` of the desired event; tables
    # are sized here, so only once `Cbn.check_joint` passed
    cards = dict(zip(dag.nodes, cards))
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
    # A free driver's tables are its values: a leading enumerated driver
    # with an empty searched scope, in no driver's scope as the search reads
    # it, so its digits lead the numbers and its values index the base with
    # its axis first.  The base is asked for in that scan order: a
    # contraction without stand-ins adds nothing after its fold, so its bits
    # are the same in any order of its axes.
    read = set().union(*searched_scopes.values())
    free = tuple(takewhile(lambda e: not searched_scopes[e] and e not in read, enumerated))
    rest = tuple(n for n in axes if n not in free)
    # In reduction order a run of chance axes is one sum and a factored
    # driver's axis is summed on its own, exactly, so tables that cannot
    # change the outcome tie exactly.  A free driver's axis has no segment,
    # and the runs around it stay two sums.  The axes left when a chain
    # driver is reduced are its class scope, in reduction order.
    driver_of = {d: d for d in driver_list}
    gathers = {e: _gather(cards, scopes[e], searched_scopes[e]) for e in enumerated}
    segments, pos = [], 0
    for key, run in groupby(axes, driver_of.get):
        if key in free:
            continue
        width = len(list(run))
        pos += width
        if key in chain:
            gathers[key] = _gather(cards, scopes[key], rest[pos:])
        segments.append((width, key if key in chain else None))
    searched = tuple((e, searched_scopes[e], _read_only(np.eye(cards[e]))) for e in enumerated)
    radices = tuple(cards[e] for e in enumerated for _ in range(prod(cards[s] for s in searched_scopes[e])))
    return SearchPlan(cards, free + rest, len(free), searched, tuple(segments), outer_total, gathers, radices)


def _scan_plan(cbn: Cbn, drivers, ip_class: IpClass, desired, directions, budget, *, witness: bool):
    # The checks, the work check, the base tensor and the scan, on the chain
    # path from the live drivers' `SearchPlan`.  Returns the value per
    # direction, each live driver's winning choice given ``witness`` and one
    # direction (on the 0/1 path one value, on the chain path one per class
    # scope configuration, in row-major order) and the canonical drivers.
    budget = budget or DEFAULT_BUDGET
    dag = cbn.dag
    directions = checked_directions(directions, ip_class, desired)
    # before the plan: a driver's scope can hold every other node
    cbn.check_joint(desired, budget=budget)
    # Only the live drivers are searched, and only now, so that every
    # refusal above keeps its text and order.  Every table of a dead driver
    # ties with its first, which the scan's tie-break would keep.
    cards, given = cbn.card_tuple, frozenset(desired)
    canonical, live = _driver_lists(dag, tuple(drivers), given)

    if not live or cbn.deterministic:
        # A fully deterministic network realizes one world per forced choice
        # of driver values, so each policy table is read at one scope
        # configuration and constant tables span every reachable outcome.
        # Every sum is an exact 0/1 count, and the first optimum of the
        # C-order flattening is the first in product order.  Without live
        # drivers, the empty choice gives the marginal of ``desired``.
        budget.check_work(prod(cards[dag.index(d)] for d in live) * len(live))
        base = cbn._contract(desired, live, live)
        values = base.reshape(-1)
        bests = [int(direction.arg(values)) for direction in directions]
        chosen = np.unravel_index(bests[0], base.shape) if witness else ()
        return [_clamp(float(values[best])) for best in bests], dict(zip(live, map(int, chosen))), canonical

    plan = dag.derived("search", (cards, live, ip_class.level, given),
                       lambda: _search_plan(dag, cards, live, ip_class, given))
    budget.check_work(plan.outer_total * cbn.state_space_size())
    if plan.outer_total > _INDEX_LIMIT:
        raise BudgetExceededError(
            f"a scan over {plan.outer_total} table combinations exceeds the {_INDEX_LIMIT} "
            "that a numpy index can number", plan.outer_total, _INDEX_LIMIT
        )
    # the kernel's factors only now, once both checks passed
    steps, tail = plan.kernel
    # the free drivers' axes flattened into one, one entry per combination
    # of their values
    base = cbn._contract(desired, live, plan.axes)
    base = base.reshape(-1, *base.shape[plan.free:])

    chunks = table_chunks(base, steps, plan.outer_total // len(base), numbered=witness)
    if not witness:
        return [_clamp(float(value)) for value in chunk_optima(chunks, tail, directions)], {}, canonical

    # Each chunk of `table_chunks` is reduced once.  Its candidate, its
    # smallest number at its optimum, replaces the incumbent on a strict
    # improvement or on a tie with a smaller number, so the winner is the
    # first optimum in number order, whatever order the chunks come in.  The
    # winner's number and its reduction's chain choices are copied out.
    (direction,) = directions
    best = None
    for t, numbers in chunks:
        picks = []
        values = reduce_chain(t, tail, direction, picks)
        pos = number = int(direction.arg(values))
        if numbers is not None:
            ties = np.flatnonzero(values == values[pos])
            pos = int(ties[numbers[ties].argmin()])
            number = int(numbers[pos])
        value = values[pos]
        if best is None or direction.beats(value, best[0]) or value == best[0] and number < best[1]:
            best = value, number, [row[pos].copy() for row in picks]
    # the enumerated drivers' digits, free drivers first, then the chain
    # drivers' choices
    value, number, chain_rows = best
    digits, rows = np.unravel_index(number, plan.radices), []
    for _, scope, _ in plan.searched:
        cells = prod(plan.cards[s] for s in scope)
        rows.append(np.array(digits[:cells], dtype=np.intp))
        digits = digits[cells:]
    choices = {d: row[gather] for (d, gather), row in zip(plan.gathers.items(), rows + chain_rows)}
    return [_clamp(float(value))], choices, canonical


def reduce_chain(t: np.ndarray, tail, direction: Direction, picks: list | None) -> np.ndarray:
    """One chain optimum in ``direction`` per entry of ``t``'s leading
    tables axis, over the runs ``tail`` that `kernel_steps` leaves: ``(width,
    None)`` sums, ``(width, driver)`` reduces a chain driver.  Given a list
    ``picks``, also appends each chain driver's choices per entry,
    flattened over the axes left when it is reduced."""
    for width, kind in tail:
        if kind is None:
            # `np.ndarray.sum` is this reduction behind a Python wrapper
            t = np.add.reduce(t, axis=tuple(range(1, 1 + width)))
        elif picks is None:
            t = direction.pairwise.reduce(t, axis=1)
        else:
            # One sweep over the driver's values gives the choices and the
            # optimum.  A strict improvement keeps the first optimum, as
            # `Direction.arg` would, and max and min are exact, so the
            # optimum is bit-identical to `reduce`'s.  Value 1 against
            # value 0 gives 0/1 choices, kept as bytes for a binary driver.
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


def chunk_optima(chunks, tail, directions) -> list:
    """Each direction's optimum over the combinations of `table_chunks`'
    ``chunks``, each reduced over ``tail`` by `reduce_chain`: exact in any
    chunk order, as max and min are.  A one-combination chunk is its own
    optimum."""
    optima: list = [None] * len(directions)
    for t, _ in chunks:
        for i, direction in enumerate(directions):
            values = reduce_chain(t, tail, direction, None)
            value = values[0] if len(values) == 1 else direction.pairwise.reduce(values)
            if optima[i] is None or direction.beats(value, optima[i]):
                optima[i] = value
    return optima


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
        atomic_policy_on(cbn.dag, t, 1 if desired[t] == 0 else 0, cbn.cards[t]) for t in shortcut
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
    cbn = dag.derived("usm", driver_list, lambda: _usm_network(dag, driver_list))
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
