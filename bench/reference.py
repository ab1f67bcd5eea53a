"""Independent reference evaluator for the benchmark's checks.

Works on the network description as the benchmark generated it (a dict in
the ``cbn-net/1`` file layout), never on ``cbnctrl`` objects.  Inference is
one ``numpy.einsum`` sum over the tables of the event's ancestors in the
intervened graph (no contraction path: at these sizes one loop is fastest),
a different route from both the enumerator in
``cbnctrl.cbn`` and the full-joint tensor in ``cbnctrl.control``.
"""

from __future__ import annotations

from itertools import product
from math import prod

import numpy as np


class Net:
    """Structure and tables read straight from a network document."""

    def __init__(self, doc: dict):
        self.names = [entry["name"] for entry in doc["nodes"]]
        self.card = {entry["name"]: entry["card"] for entry in doc["nodes"]}
        self.parents: dict[str, list[str]] = {name: [] for name in self.names}
        for parent, child in doc["edges"]:
            self.parents[child].append(parent)
        self.intervenable = list(doc["intervenable"])
        self.desired = {t["name"]: t["desired"] for t in doc["targets"]}
        self.tables = {
            name: self.table(entry["parents"], name, entry["rows"])
            for name, entry in doc.get("cpds", {}).items()
        }
        self.policies = {
            name: self.table(entry["scope"], name, entry["rows"])
            for name, entry in doc.get("policies", {}).items()
        }
        self.extremes: dict[tuple, tuple[float, float]] = {}

    def table(self, scope, owner: str, rows) -> tuple[tuple[str, ...], np.ndarray]:
        """A (scope, array) pair; the array's axes are ``scope`` then ``owner``."""
        shape = [self.card[s] for s in scope] + [self.card[owner]]
        return tuple(scope), np.asarray(rows, dtype=float).reshape(shape)

    def ancestors(self, name: str) -> set[str]:
        found: set[str] = set()
        stack = [name]
        while stack:
            for parent in self.parents[stack.pop()]:
                if parent not in found:
                    found.add(parent)
                    stack.append(parent)
        return found

    def drivers(self) -> list[str]:
        """Intervenable nodes with a directed path to a target whose later
        nodes are all non-intervenable, in document order."""
        found: set[str] = set()
        seen: set[str] = set()
        stack = list(self.desired)
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            if node in self.intervenable:
                found.add(node)
            else:
                stack.extend(self.parents[node])
        return [n for n in self.names if n in found]


def prob(net: Net, event: dict, policies: dict | None = None) -> float:
    """P(event) after swapping in ``policies`` (node -> (scope, array));
    without ``policies`` the document's own policies block is not applied."""
    policies = policies or {}
    tables = {name: policies.get(name, net.tables[name]) for name in net.names}
    needed: set[str] = set()
    stack = list(event)
    while stack:
        node = stack.pop()
        if node not in needed:
            needed.add(node)
            stack.extend(tables[node][0])
    axis = {name: i for i, name in enumerate(net.names)}
    operands: list = []
    for name in net.names:
        if name in needed:
            scope, array = tables[name]
            operands += [array, [axis[s] for s in scope] + [axis[name]]]
    for name, value in event.items():
        indicator = np.zeros(net.card[name])
        indicator[value] = 1.0
        operands += [indicator, [axis[name]]]
    return float(np.einsum(*operands, []))


def conditional(net: Net, event: dict, given: dict, policies: dict | None = None) -> float:
    return prob(net, {**event, **given}, policies) / prob(net, given, policies)


def one_hot_table(net: Net, node: str, scope, choices) -> tuple[tuple[str, ...], np.ndarray]:
    rows = np.zeros((len(choices), net.card[node]))
    rows[np.arange(len(choices)), list(choices)] = 1.0
    return net.table(scope, node, rows)


def full_scope(net: Net, node: str) -> list[str]:
    """Class-inf scope: every ancestor, in document order."""
    up = net.ancestors(node)
    return [n for n in net.names if n in up]


def exhaustive(net: Net, drivers, maximize: bool, cap: int = 4096) -> float:
    """Best P(desired) over every combination of deterministic class-inf
    tables on ``drivers``; refuses (ValueError) above ``cap`` combinations.
    Both extremes are kept on ``net``, so the other direction is free."""
    key = tuple(drivers)
    if key not in net.extremes:
        scopes = {d: full_scope(net, d) for d in drivers}
        cells = {d: prod(net.card[s] for s in scopes[d]) for d in drivers}
        total = prod(net.card[d] ** cells[d] for d in drivers)
        if total > cap:
            raise ValueError(f"{total} table combinations exceed the cap {cap}")
        per_driver = [
            [one_hot_table(net, d, scopes[d], c)
             for c in product(range(net.card[d]), repeat=cells[d])]
            for d in drivers
        ]
        values = [prob(net, net.desired, dict(zip(drivers, combo)))
                  for combo in product(*per_driver)]
        net.extremes[key] = (min(values), max(values))
    return net.extremes[key][1 if maximize else 0]
