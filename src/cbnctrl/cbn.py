"""Discrete Bayesian networks over a Dag, with exact inference by one
contraction.

Every probability the package computes is one contraction behind
`Cbn.joint`, under a `Budget`: the full-joint tensor, or with ``keep`` its
marginal over named nodes.  That keeps one inference engine, and every
probability query meets the state-space cap in `Cbn.check_joint`.  A
caller that multiplies factors into a marginal lays them out by the order
of ``keep``.  A policy table can also stand in for a skipped node's CPD as
one more operand (`Cbn._contract`): that is how
`intervention.interventional_prob` sums Pearl's truncated factorization in
the same contraction.  A query contracts only the tables it needs: nodes
that are neither kept, nor in the event, nor ancestors of those are barren,
and their tables, whose rows sum to one, are dropped (Shachter 1986).
Event values slice the tables they appear in, and one ``np.einsum`` sums
the rest.  What to contract depends only on the query's shape (the kept
nodes, the skipped set, the nodes the event names and each stand-in
table's owner and parents) and on the network's layout (its cards and each
CPD's parent order), never on a table's entries.  So the dag keeps one
plan per layout and shape (`Dag.derived`, under ``"joint"``), checked and
made on the first call of any network of that layout: the einsum's
operands and labels, with each CPD's owner named where its array goes and
a slot for each stand-in table and each operand an event value slices.
The plan also splits the operands: the per-call ones, which an event value
slices or a stand-in table fills, and the event-free rest.  Each network keeps that plan with its own CPD arrays
in place and its event-free operands folded into one read-only factor,
contracted once (Darwiche 2003: compile once per network, evaluate per
query).  So a repeated query only checks, puts in its stand-in tables,
slices in its event values and contracts the per-call operands with that
factor.  A network holds only its CPDs, those plans and its layout; what
other modules derive from the structure they keep on the dag themselves,
keyed by `Cbn.card_tuple`.
The literal sum over completions survives only as
`oracle.enumerate_prob`, the reference the engine is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import prod
from operator import itemgetter
from typing import Mapping

import numpy as np

from .graph import Dag

ROW_SUM_TOL = 1e-9
#: the most nodes one contraction can take, one per einsum label
MAX_LABELS = 52

Assignment = dict[str, int]

#: the index that keeps an axis whole
_WHOLE = slice(None)


class ZeroProbabilityError(ValueError):
    """Conditioning event has probability zero."""


class BudgetExceededError(RuntimeError):
    """An exhaustive computation would exceed the configured budget."""

    def __init__(self, message: str, estimate: int | None = None, limit: int | None = None):
        super().__init__(message)
        self.estimate = estimate
        self.limit = limit


@dataclass(frozen=True)
class Budget:
    """Caps for exhaustive searches; exceeding one raises, never subsamples."""

    max_state_space: int = 2 ** 14
    max_set_size: int = 10
    max_work: int = 50_000_000

    def check_state_space(self, size: int) -> None:
        self._check(size, self.max_state_space, "state space of {} configurations exceeds the cap of {}")

    def check_set_size(self, size: int) -> None:
        self._check(size, self.max_set_size, "subset search over {} candidates exceeds the cap of {}")

    def check_work(self, estimate: int) -> None:
        self._check(
            estimate,
            self.max_work,
            "estimated {0} elementary operations exceed the budget of {1}; "
            "raise the budget to at least {0} to run this",
        )

    @staticmethod
    def _check(estimate: int, limit: int, text: str) -> None:
        # ``text`` takes the estimate and the limit, and is formatted only
        # on a refusal: `check_joint` checks every query
        if estimate > limit:
            raise BudgetExceededError(text.format(estimate, limit), estimate=estimate, limit=limit)


DEFAULT_BUDGET = Budget()


def value_index(name: str, value, kind: str = "value") -> int:
    """``value`` as a value index (or, with ``kind``, a cardinality) of
    node ``name``.

    Only ints and numpy integers pass: numpy would read a bool as a mask,
    silently dropping the event, and cannot index with a float; ``int()``
    would silently truncate one.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{kind} {value!r} for {name!r} must be an integer")
    return int(value)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@cache
def _one_hot(card: int) -> dict[int, tuple[float, ...]]:
    # value -> the one-hot row on it, shared by every 0/1 table of ``card``
    return {hot: tuple(1.0 if v == hot else 0.0 for v in range(card)) for hot in range(card)}


@dataclass(frozen=True)
class Cpd:
    """Conditional probability table for one node.

    ``rows`` holds one distribution over the owner's values per parent
    configuration, indexed row-major over ``parents`` (last parent varies
    fastest).  Cardinalities are at least two everywhere.
    """

    owner: str
    parents: tuple[str, ...]
    parent_cards: tuple[int, ...]
    rows: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "parents", tuple(self.parents))
        object.__setattr__(self, "parent_cards", tuple(self.parent_cards))
        object.__setattr__(
            self, "rows", tuple(tuple(float(p) for p in row) for row in self.rows)
        )
        self._check_shape()
        card = self.card
        for i, row in enumerate(self.rows):
            if len(row) != card:
                raise ValueError(f"cpd for {self.owner!r}: row {i} has length {len(row)} != {card}")
            for p in row:
                if not (0.0 <= p <= 1.0):
                    raise ValueError(f"cpd for {self.owner!r}: row {i} entry {p} outside [0, 1]")
            if abs(sum(row) - 1.0) > ROW_SUM_TOL:
                raise ValueError(
                    f"cpd for {self.owner!r}: row {i} sums to {sum(row)!r}, not 1"
                )

    def _check_shape(self) -> None:
        # also stores the parent cardinalities as ints once they pass
        if not isinstance(self.owner, str) or not self.owner:
            raise ValueError("cpd owner must be a non-empty string")
        if len(self.parents) != len(set(self.parents)):
            raise ValueError(f"cpd for {self.owner!r} repeats a parent")
        if self.owner in self.parents:
            raise ValueError(f"cpd for {self.owner!r} lists itself as a parent")
        if len(self.parent_cards) != len(self.parents):
            raise ValueError(f"cpd for {self.owner!r}: one cardinality per parent required")
        for name, card in zip(self.parents, self.parent_cards):
            if value_index(name, card, "cardinality") < 2:
                raise ValueError(f"cpd for {self.owner!r}: parent {name!r} cardinality {card} < 2")
        object.__setattr__(self, "parent_cards", tuple(map(int, self.parent_cards)))
        expected = prod(self.parent_cards)
        if len(self.rows) != expected:
            raise ValueError(
                f"cpd for {self.owner!r}: {len(self.rows)} rows, expected {expected}"
            )
        if self.card < 2:
            raise ValueError(f"cpd for {self.owner!r}: cardinality {self.card} < 2")

    @property
    def card(self) -> int:
        return len(self.rows[0])

    def row_index(self, assignment: Mapping[str, int]) -> int:
        idx = 0
        for name, card in zip(self.parents, self.parent_cards):
            value = value_index(name, assignment[name])
            if not 0 <= value < card:
                raise ValueError(f"value {value} out of range for {name!r} (card {card})")
            idx = idx * card + value
        return idx

    def prob(self, value: int, assignment: Mapping[str, int]) -> float:
        if not 0 <= value_index(self.owner, value) < self.card:
            raise ValueError(f"value {value} out of range for {self.owner!r} (card {self.card})")
        return self.rows[self.row_index(assignment)][value]

    def array(self) -> np.ndarray:
        """The table as an array over ``(*parents, owner)``, built once, on
        first use; read-only, because every contraction shares it."""
        table = self.__dict__.get("_array")
        if table is None:
            table = _read_only(np.asarray(self.rows, dtype=float).reshape(*self.parent_cards, self.card))
            # not a dataclass field, so equality and hashing ignore it
            self.__dict__["_array"] = table
        return table

    @classmethod
    def from_choices(cls, owner: str, parents, parent_cards, card: int, choices) -> "Cpd":
        """The 0/1 table putting all mass on ``choices[i]`` in parent
        configuration ``i``.  ``choices`` is a sequence of ints or a 1-d
        integer array; a float or bool choice is refused by owner, as
        `value_index` refuses one.  Its rows are the shared one-hot tuples
        of `_one_hot`, distributions by construction, so only the shape and
        the choices are checked, not each row: a choice outside
        ``range(card)`` has no row to look up."""
        cpd = object.__new__(cls)
        cpd.__dict__.update(
            owner=owner, parents=tuple(parents), parent_cards=tuple(parent_cards),
            rows=_choice_rows(owner, card, prod(parent_cards), choices),
        )
        cpd._check_shape()
        return cpd

    def with_choices(self, choices) -> "Cpd":
        """`from_choices` on this table's owner, parents and cards, whose
        shape was checked when this table was built: only ``choices`` is
        checked, for its ndim, integer type, length and range."""
        cpd = object.__new__(type(self))
        cpd.__dict__.update(
            owner=self.owner, parents=self.parents, parent_cards=self.parent_cards,
            rows=_choice_rows(self.owner, self.card, len(self.rows), choices),
        )
        return cpd

    @classmethod
    def delta(cls, owner: str, value: int, card: int) -> "Cpd":
        """Parentless table putting all mass on ``value``."""
        if not 0 <= value_index(owner, value) < value_index(owner, card, "cardinality"):
            raise ValueError(f"value {value} out of range for {owner!r} (card {card})")
        return cls.from_choices(owner, (), (), card, (value,))


def _choice_rows(owner: str, card, cells: int, choices) -> tuple:
    # the one-hot row of each choice, once ``choices`` holds ``cells``
    # integers in ``range(card)``: the fill behind `Cpd.from_choices` and
    # `Cpd.with_choices`
    if isinstance(choices, np.ndarray):
        if choices.ndim != 1:
            raise ValueError("one choice per scope configuration required")
        if choices.dtype.kind not in "iu":
            raise ValueError(f"choices of dtype {choices.dtype} for {owner!r} must be integers")
        choices = choices.tolist()
    else:
        # per type, not per choice: 1.0 and True would find 1's row
        for kind in set(map(type, choices)):
            if kind is bool or not issubclass(kind, (int, np.integer)):
                value_index(owner, next(c for c in choices if type(c) is kind), "choice")
    if len(choices) != cells:
        raise ValueError("one choice per scope configuration required")
    onehot = _one_hot(value_index(owner, card, "cardinality"))
    try:
        # itemgetter of one index returns the item, not a tuple of one; a
        # negative choice is no key either
        return itemgetter(*choices)(onehot) if len(choices) > 1 else tuple(onehot[c] for c in choices)
    except KeyError:
        raise ValueError(f"every choice must lie in range({card})") from None


class Cbn:
    """A Dag plus per-node cardinalities and CPDs.

    :param dag: network structure.
    :param cards: cardinality (>= 2) for every node.
    :param cpds: one Cpd per node whose parent set matches the dag.
    """

    def __init__(self, dag: Dag, cards: Mapping[str, int], cpds: Mapping[str, Cpd]):
        self._dag = dag
        if set(cards) != set(dag.nodes):
            raise ValueError("cards must cover exactly the dag nodes")
        self._cards = {name: value_index(name, cards[name], "cardinality") for name in dag.nodes}
        for name, card in self._cards.items():
            if card < 2:
                raise ValueError(f"cardinality of {name!r} is {card}, must be >= 2")
        if set(cpds) != set(dag.nodes):
            raise ValueError("cpds must cover exactly the dag nodes")
        self._cpds: dict[str, Cpd] = {}
        for name in dag.nodes:
            cpd = cpds[name]
            if cpd.owner != name:
                raise ValueError(f"cpd stored under {name!r} is owned by {cpd.owner!r}")
            if set(cpd.parents) != set(dag.parents(name)):
                raise ValueError(
                    f"cpd for {name!r} conditions on {list(cpd.parents)}, "
                    f"dag parents are {list(dag.parents(name))}"
                )
            if cpd.card != self._cards[name]:
                raise ValueError(f"cpd for {name!r} has cardinality {cpd.card}, expected {self._cards[name]}")
            for pname, pcard in zip(cpd.parents, cpd.parent_cards):
                if pcard != self._cards[pname]:
                    raise ValueError(
                        f"cpd for {name!r}: parent {pname!r} cardinality {pcard}, expected {self._cards[pname]}"
                    )
            self._cpds[name] = cpd
        self._state_space = prod(self._cards.values())
        self._deterministic: bool | None = None
        # `joint`'s contraction plans with this network's arrays in place,
        # one per query shape
        self._plans: dict[tuple, tuple] = {}
        # the key of those plans on the dag: the cards and each CPD's parent
        # order, in node order
        self._layout = (tuple(self._cards.values()), tuple(cpd.parents for cpd in self._cpds.values()))

    @property
    def dag(self) -> Dag:
        return self._dag

    @property
    def cards(self) -> dict[str, int]:
        return dict(self._cards)

    @property
    def card_tuple(self) -> tuple[int, ...]:
        """The cards in node order, as the keys of what the dag derives
        for this network's cards (`Dag.derived`) hold them."""
        return self._layout[0]

    @property
    def cpds(self) -> dict[str, Cpd]:
        return dict(self._cpds)

    def cpd(self, name: str) -> Cpd:
        if name not in self._cpds:
            raise ValueError(f"unknown node {name!r}")
        return self._cpds[name]

    @property
    def deterministic(self) -> bool:
        """True when every CPD entry is 0 or 1; scanned once, on first use."""
        if self._deterministic is None:
            self._deterministic = all(
                p == 0.0 or p == 1.0
                for cpd in self._cpds.values()
                for row in cpd.rows
                for p in row
            )
        return self._deterministic

    def state_space_size(self) -> int:
        return self._state_space

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cbn):
            return NotImplemented
        return (
            self._dag == other._dag
            and self._cards == other._cards
            and self._cpds == other._cpds
        )

    def _check_assignment(self, assignment: Mapping[str, int], *, full: bool) -> None:
        for name, value in assignment.items():
            if name not in self._cards:
                raise ValueError(f"unknown node {name!r} in assignment")
            if not 0 <= value_index(name, value) < self._cards[name]:
                raise ValueError(
                    f"value {value} out of range for {name!r} (card {self._cards[name]})"
                )
        if full and len(assignment) != len(self._cards):
            missing = [n for n in self._dag.nodes if n not in assignment]
            raise ValueError(f"full assignment required, missing {missing}")

    def joint_prob(self, assignment: Mapping[str, int]) -> float:
        """Probability of one full assignment: the product of CPD entries."""
        self._check_assignment(assignment, full=True)
        p = 1.0
        for name in self._dag.nodes:
            p *= self._cpds[name].prob(assignment[name], assignment)
        return p

    def check_joint(self, event=None, budget: Budget | None = None) -> None:
        """Refuse, in `joint`'s order and without building a tensor, a bad
        ``event``, then a state space over the cap of ``budget``."""
        self._check_assignment(event or {}, full=False)
        (budget or DEFAULT_BUDGET).check_state_space(self.state_space_size())

    def joint(
        self,
        event: Mapping[str, int] | None = None,
        skip=(),
        budget: Budget | None = None,
        keep=None,
    ) -> np.ndarray:
        """Full-joint tensor, one axis per node in ``dag.nodes`` order; with
        a sequence ``keep`` of distinct nodes, its marginal over them, one
        axis per node in ``keep`` order, as a new C-contiguous array.

        That is the product of the CPDs of every node not in ``skip``, times
        an indicator for each value ``event`` pins, summed over the nodes
        outside ``keep``, after `check_joint`.  It is computed by one
        contraction over the nodes it needs: those of ``keep`` and
        ``event`` and, through every node not in ``skip``, their parents.
        The CPD of any other node sums to one over its own values, so it is
        dropped.  Event values of nodes outside ``keep`` slice the CPDs
        they appear in; an event node in ``keep`` is a one-hot factor.  A
        query that needs more than `MAX_LABELS` nodes is refused.

        The set-up depends only on the query's shape: ``keep``, the set
        ``skip`` and the nodes ``event`` names, and on the network's
        layout.  It is checked and planned by `_plan` on the first call of
        each shape by any network of that layout on this dag, and kept on
        the dag (a refused shape keeps none); the network keeps it with its
        own CPD arrays in place and its event-free tables folded into one
        factor.  So a later call of that shape only runs `check_joint`,
        slices in its event values and contracts the tables they slice with
        that factor.
        """
        self.check_joint(event, budget)
        return self._contract(event or {}, skip, keep)

    def _contract(self, event: Mapping[str, int], skip=(), keep=None, tables=()) -> np.ndarray:
        """`joint` without `check_joint`, for a caller that has run it on
        ``event`` already.  Each `Cpd` of ``tables`` (a sequence) stands in
        for its owner, a node of ``skip``: its table is one more factor of
        the product, laid out by its own parents, which must be ancestors of
        its owner, with the cards of the network's nodes.

        The first call of a shape on this network makes its plan (`_fill`),
        which contracts the shape's event-free tables once; every call then
        contracts only the tables that ``event`` slices and ``tables`` fill,
        with that factor."""
        kept = self._dag.nodes if keep is None else tuple(keep)
        shape = (kept, frozenset(skip), frozenset(event), tuple([(t.owner, t.parents) for t in tables]))
        plan = self._plans.get(shape)
        if plan is None:
            plan = self._plans[shape] = self._fill(shape)
        operands, places, slots, output, dims = plan
        operands = operands.copy()
        for at, table in zip(places, tables):
            operands[at] = table.array()
        for at, axes in slots:
            operands[at] = operands[at][tuple([_WHOLE if n is None else event[n] for n in axes])]
        return np.einsum(*operands, output, out=np.empty(dims), optimize=False)

    def _fill(self, shape: tuple) -> tuple:
        # the dag's plan of ``shape`` for this network's layout, made by
        # `_plan` on the first call of any network of that layout, with each
        # CPD owner's name swapped for this network's array of it and its
        # event-free operands contracted into one read-only factor, this
        # network's own: ``(operands, places, slots, output, dims)``
        operands, places, slots, output, dims, (split, labels, sizes) = self._dag.derived(
            "joint", (self._layout, shape), lambda: self._plan(*shape)
        )
        operands = [self._cpds[op].array() if isinstance(op, str) else op for op in operands]
        factor = np.einsum(*operands[split:], labels, out=np.empty(sizes), optimize=False)
        return [*operands[:split], _read_only(factor), labels], places, slots, output, dims

    def _plan(self, kept: tuple, skip: frozenset, given: frozenset, scopes: tuple) -> tuple:
        """`joint`'s contraction for one query shape, once ``kept`` holds
        distinct nodes and ``skip`` only nodes, with ``given`` the nodes the
        event names and ``scopes`` the ``(owner, parents)`` of each table
        that stands in for a skipped node (`_contract`):
        ``(operands, places, slots, output, dims, fold)``.  It depends
        on the dag, the cards, each CPD's parent order and each table's, and
        on no CPD or table entry.

        ``operands`` alternates arrays and label lists, as `np.einsum`
        takes them, with a CPD owner's name where its read-only CPD array
        goes and ``None`` where a stand-in table goes: the ``j``-th entry of
        ``places`` marks the operand that is the ``j``-th stand-in table,
        filled per call.  Each slot ``(at, axes)`` marks an operand that
        depends on the event values: it is indexed by the event value of
        each node named in ``axes`` (``None`` leaves that axis whole).  An
        event node in ``kept`` is a row of a read-only identity matrix; any
        other event node slices the tables it appears in, stand-ins
        included.

        ``fold`` is ``(split, labels, sizes)``.  The per-call operands, the
        slots and the stand-ins, come first, each in dag order; the rest,
        ``operands[split:]``, are event-free: the count, then the other
        tables in dag order.  Those contract into one factor over
        ``labels``, of ``sizes``, the labels of theirs that the output or a
        per-call operand reads.  So a call contracts no more operands, and
        no more label states, than the whole product in one einsum would.
        """
        if len(set(map(self._dag.index, kept))) != len(kept):
            raise ValueError(f"keep repeats a node: {list(kept)}")
        self._dag.canon(skip)
        nodes = self._dag.nodes
        cards = self._cards
        # each node with a factor, by the parents its factor reads: a
        # stand-in's parents are its table's, not its CPD's
        stand_ins = dict(scopes)
        parents = {name: cpd.parents for name, cpd in self._cpds.items() if name not in skip}
        parents.update(stand_ins)
        needed = {*kept, *given, *stand_ins}
        stack = [name for name in needed if name in parents]
        while stack:
            for parent in parents[stack.pop()]:
                if parent not in needed:
                    needed.add(parent)
                    if parent in parents:
                        stack.append(parent)
        # labels are numbered per shape over the needed nodes, which may be
        # far fewer than a network's nodes
        if len(needed) > MAX_LABELS:
            raise BudgetExceededError(
                f"a contraction over {len(needed)} nodes exceeds the {MAX_LABELS} "
                "that one einsum can label", len(needed), MAX_LABELS
            )
        labelled = [n for n in nodes if n in needed]
        label = {name: i for i, name in enumerate(labelled)}
        pinned = given.difference(kept)
        # a skipped node that nothing needs has no factor left: summing its
        # free axis multiplies by its cardinality
        count = prod(cards[n] for n in nodes if n in skip and n not in needed)
        per_call: list = []
        free: list = [float(count), []]
        place = {}
        slots = []
        covered = set()
        # operands in dag order, never in set order, so the sums run in the
        # same order under every hash seed
        for name in nodes:
            if name not in needed:
                continue
            if name in given and name not in pinned:
                slots.append((len(per_call), (name,)))
                per_call += [_read_only(np.eye(cards[name])), [label[name]]]
                covered.add(name)
            if name not in parents:
                continue
            involved = (*parents[name], name)
            sliced = not pinned.isdisjoint(involved)
            held = per_call if sliced or name in stand_ins else free
            if sliced:
                slots.append((len(held), tuple(n if n in pinned else None for n in involved)))
            if name in stand_ins:
                place[name] = len(held)
            involved = [n for n in involved if n not in pinned]
            held += [None if name in stand_ins else name, [label[n] for n in involved]]
            covered.update(involved)
        for name in kept:
            if name not in covered:
                free += [_read_only(np.ones(cards[name])), [label[name]]]
        output = [label[name] for name in kept]
        split = len(per_call)
        read = {n for labels in per_call[1::2] for n in labels}.union(output)
        folded = sorted(read.intersection(n for labels in free[1::2] for n in labels))
        return (
            per_call + free, tuple(map(place.get, stand_ins)), tuple(slots),
            output, [cards[name] for name in kept], (split, folded, [cards[labelled[i]] for i in folded]),
        )

    def marginal_prob(self, event: Mapping[str, int], budget: Budget | None = None) -> float:
        """Probability of a partial assignment."""
        return float(self.joint(event, budget=budget, keep=()))

    def conditional_prob(self, event: Mapping[str, int], given: Mapping[str, int]) -> float:
        """P(event | given); raises ZeroProbabilityError when P(given) = 0."""
        overlap = set(event) & set(given)
        if overlap:
            raise ValueError(f"event and given overlap on {sorted(overlap)}")
        self._check_assignment(event, full=False)
        joint = self.joint(given, keep=tuple(event))
        denom = float(joint.sum())
        if denom == 0.0:
            raise ZeroProbabilityError(f"conditioning event {dict(given)} has probability zero")
        return float(joint[tuple(event.values())]) / denom
