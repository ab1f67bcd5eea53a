"""Intervention policies, the policy-class ladder, and intervened graphs.

An intervention replaces a node's CPD with a new table (its policy) whose
conditioning set (the scope) may only contain ancestors of the node in the
original graph.  Policy classes grade how deep into the ancestry the scope
may reach: class-0 is unconditional, class-1 sees parents, class-j sees
ancestors up to j levels, and class-inf sees the full ancestry.

The checks of a pair against a network depend on the cards and each
table's owner, parents, parent cards and card alone, so the dag keeps
their outcome per pair shape under ``"pairs"`` (`Dag.derived`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod
from typing import Iterable, Mapping

import numpy as np

from .cbn import Budget, Cbn, Cpd
from .graph import INF, Dag

#: Reserved name for the clamp node that marks intervened targets in the
#: dashed-edge layer of an intervened graph.
CLAMP = "@clamp"


@dataclass(frozen=True)
class IpClass:
    """Policy class: ``level`` is a non-negative integer or infinity.

    As in `value_index`, ints and numpy integers pass and bools do not; an
    integral float is read as its int.
    """

    level: int | float

    def __post_init__(self):
        lv = self.level
        if lv == INF:
            object.__setattr__(self, "level", INF)
            return
        if isinstance(lv, np.integer) or isinstance(lv, float) and lv.is_integer():
            lv = int(lv)
            object.__setattr__(self, "level", lv)
        if not isinstance(lv, int) or isinstance(lv, bool) or lv < 0:
            raise ValueError(f"policy class level must be a non-negative integer or inf, got {self.level!r}")

    @classmethod
    def parse(cls, text: str) -> "IpClass":
        text = text.strip()
        if text.lower() in ("inf", "infinity", "∞"):
            return cls(INF)
        if text.isdecimal():
            return cls(int(text))
        raise ValueError(f"cannot parse policy class {text!r}")

    def __str__(self) -> str:
        return "class-inf" if self.level == INF else f"class-{self.level}"


CLASS0 = IpClass(0)
CLASS1 = IpClass(1)
CLASS_INF = IpClass(INF)


@dataclass(frozen=True)
class InterventionPolicy:
    """A replacement table for one node: the policy is its table.

    ``target`` and ``scope`` are the table's owner and parents, so they
    cannot disagree with it; scope membership against a concrete graph is
    checked by the operations that receive one.
    """

    table: Cpd

    @property
    def target(self) -> str:
        return self.table.owner

    @property
    def scope(self) -> tuple[str, ...]:
        return self.table.parents

    @property
    def card(self) -> int:
        return self.table.card


class InterventionPair:
    """An intervened set together with one policy per member."""

    def __init__(self, policies: Iterable[InterventionPolicy] = ()):
        self._policies: dict[str, InterventionPolicy] = {}
        for policy in policies:
            if policy.target in self._policies:
                raise ValueError(f"duplicate policy for {policy.target!r}")
            self._policies[policy.target] = policy

    @classmethod
    def of(cls, *policies: InterventionPolicy) -> "InterventionPair":
        return cls(policies)

    @classmethod
    def empty(cls) -> "InterventionPair":
        return cls(())

    @property
    def targets(self) -> tuple[str, ...]:
        return tuple(self._policies)

    @property
    def policies(self) -> tuple[InterventionPolicy, ...]:
        return tuple(self._policies.values())

    def policy(self, target: str) -> InterventionPolicy:
        return self._policies[target]

    def __len__(self) -> int:
        return len(self._policies)

    def __contains__(self, target: str) -> bool:
        return target in self._policies

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InterventionPair):
            return NotImplemented
        return self._policies == other._policies

    def __repr__(self) -> str:
        return f"InterventionPair({list(self._policies.values())!r})"


def scope_for_class(dag: Dag, target: str, ip_class: IpClass) -> tuple[str, ...]:
    """Widest scope a policy of ``ip_class`` on ``target`` may condition on."""
    if ip_class.level == 0:
        dag.index(target)
        return ()
    return dag.ancestors(target, ip_class.level)


def atomic_policy(target: str, value: int, card: int) -> InterventionPolicy:
    """Unconditional policy forcing ``target`` to ``value``."""
    return InterventionPolicy(Cpd.delta(target, value, card))


def classify_policy(dag: Dag, policy: InterventionPolicy) -> IpClass:
    """Smallest class whose scope contains the policy's scope."""
    dag.index(policy.target)
    if not policy.scope:
        return CLASS0
    scope = set(policy.scope)
    full = set(dag.ancestors(policy.target))
    if not scope <= full:
        extra = sorted(scope - full)
        raise ValueError(f"scope of policy on {policy.target!r} leaves the ancestry: {extra}")
    level = 1
    while not scope <= set(dag.ancestors(policy.target, level)):
        level += 1
    return IpClass(level)


def check_policies(dag: Dag, pair: InterventionPair) -> None:
    """Validate every policy's target and scope against ``dag``."""
    for policy in pair.policies:
        full = set(dag.ancestors(policy.target))
        bad = [s for s in policy.scope if s not in full]
        if bad:
            raise ValueError(
                f"policy on {policy.target!r} conditions on non-ancestors {bad}"
            )


@dataclass(frozen=True)
class IDag:
    """Intervened graph: retained solid edges plus a dashed policy layer.

    Dashed edges run from scope members into their targets, and from the
    clamp node into every intervened target, so an intervention is always
    visible in the dashed layer no matter how small its scope is.
    """

    base: Dag
    clamp: str
    solid: frozenset[tuple[str, str]]
    dashed: frozenset[tuple[str, str]]

    def graph(self) -> Dag:
        """The intervened structure as a plain Dag (clamp node included)."""
        return Dag(self.base.nodes + (self.clamp,), self.solid | self.dashed)

    def plain_edges(self) -> frozenset[tuple[str, str]]:
        return self.solid | self.dashed


def build_idag(dag: Dag, pair: InterventionPair) -> IDag:
    """Construct the intervened graph for ``pair`` over ``dag``.

    Solid edges are the base edges minus those into intervened nodes;
    dashed edges are scope-to-target edges plus one clamp edge per
    intervened node.
    """
    if CLAMP in dag:
        raise ValueError(f"{CLAMP!r} is reserved for the clamp node")
    check_policies(dag, pair)
    intervened = set(pair.targets)
    solid = frozenset(e for e in dag.edges if e[1] not in intervened)
    dashed: set[tuple[str, str]] = set()
    for policy in pair.policies:
        dashed.add((CLAMP, policy.target))
        for member in policy.scope:
            dashed.add((member, policy.target))
    idag = IDag(dag, CLAMP, solid, frozenset(dashed))
    idag.graph()  # re-validates acyclicity of the combined layers
    return idag


def subsumes(g1: Dag, g2: Dag) -> bool:
    """True when the graphs share nodes and g1's edges contain g2's."""
    return set(g1.nodes) == set(g2.nodes) and g2.edges <= g1.edges


def surplus(g1: Dag, g2: Dag) -> frozenset[tuple[str, str]]:
    """Edges of g1 absent from g2."""
    return frozenset(g1.edges - g2.edges)


def i_subsumes(id1: IDag, id2: IDag) -> bool:
    """Subsumption between intervened graphs over the same base.

    Requires (i) id1's combined edges to contain id2's, (ii) id1's dashed
    layer to contain id2's, and (iii) the combined-edge surplus of id1 to
    consist of dashed edges only.
    """
    if id1.base != id2.base:
        raise ValueError("intervened graphs must share the same base dag")
    plain1, plain2 = id1.plain_edges(), id2.plain_edges()
    if not plain2 <= plain1:
        return False
    if not id2.dashed <= id1.dashed:
        return False
    return (plain1 - plain2) <= id1.dashed


def _check_pair(cbn: Cbn, pair: InterventionPair) -> list[Cpd]:
    # the pair's tables, once its targets, scopes and every table
    # cardinality pass against the network.  They depend on the cards and
    # each table's owner, parents, parent cards and card alone, so the dag
    # keeps the outcome per pair shape (`Dag.derived`): a shape is checked
    # once, and a refused one keeps nothing
    tables = [policy.table for policy in pair.policies]
    shape = cbn.card_tuple, tuple([(t.owner, t.parents, t.parent_cards, t.card) for t in tables])
    cbn.dag.derived("pairs", shape, lambda: _check_pair_shape(cbn, pair))
    return tables


def _check_pair_shape(cbn: Cbn, pair: InterventionPair) -> bool:
    # `_check_pair`'s checks, in their order
    check_policies(cbn.dag, pair)
    cards = cbn.cards
    for policy in pair.policies:
        if policy.card != cards[policy.target]:
            raise ValueError(
                f"policy on {policy.target!r} has cardinality {policy.card}, expected {cards[policy.target]}"
            )
        for member, mcard in zip(policy.scope, policy.table.parent_cards):
            if mcard != cards[member]:
                raise ValueError(
                    f"policy on {policy.target!r}: scope member {member!r} cardinality "
                    f"{mcard}, expected {cards[member]}"
                )
    return True


def apply_intervention(cbn: Cbn, pair: InterventionPair) -> Cbn:
    """The intervened network itself, for callers that want it.

    Edges into intervened nodes are replaced by scope edges; untouched
    nodes keep their CPDs.  The result is a plain Cbn (no clamp node), so
    every inference routine applies to it unchanged.  Probabilities under
    a pair come from `interventional_prob`, which builds no network.
    """
    _check_pair(cbn, pair)
    dag = cbn.dag
    intervened = set(pair.targets)
    edges = {e for e in dag.edges if e[1] not in intervened}
    for policy in pair.policies:
        for member in policy.scope:
            edges.add((member, policy.target))
    new_dag = Dag(dag.nodes, edges)
    cpds = cbn.cpds
    for policy in pair.policies:
        cpds[policy.target] = policy.table
    return Cbn(new_dag, cbn.cards, cpds)


def interventional_prob(
    cbn: Cbn, pair: InterventionPair, event: Mapping[str, int], budget: Budget | None = None
) -> float:
    """Probability of ``event`` in the intervened network.

    Pearl's truncated factorization: the product of the CPDs of every node
    outside the pair's targets and of the policy tables, summed with the
    event's values pinned.  It is one contraction of `Cbn`'s, in which each
    policy table stands in for its target's CPD (`Cbn._contract`), so no
    intervened network is built.  The pair is checked against the network
    first, with the same errors as `apply_intervention`, then the event and
    the state space, as `Cbn.joint` checks them.
    """
    tables = _check_pair(cbn, pair)
    cbn.check_joint(event, budget)
    return float(cbn._contract(event or {}, pair.targets, (), tables))


def enumerate_deterministic_tables(
    target: str, scope: tuple[str, ...], scope_cards: tuple[int, ...], card: int
):
    """Yield every deterministic policy in lexicographic choice order."""
    cells = prod(scope_cards)
    for choices in product(range(card), repeat=cells):
        yield InterventionPolicy(Cpd.from_choices(target, scope, scope_cards, card, choices))
