"""Directed acyclic graphs with deterministic query ordering.

Nodes are plain non-empty strings.  Every set-valued query returns a tuple
ordered by the graph's node insertion order, so repeated runs over the same
input produce byte-identical downstream reports.
"""

from __future__ import annotations

import heapq
from collections import defaultdict, deque
from numbers import Integral
from typing import Iterable, NamedTuple

INF = float("inf")


class CycleError(ValueError):
    """Raised when an edge set admits a directed cycle."""


class BcResult(NamedTuple):
    """Result of a backward chaining sweep."""

    visited: tuple[str, ...]
    terminals: tuple[str, ...]


class Dag:
    """Immutable directed acyclic graph.

    :param nodes: unique non-empty node names; iteration order is preserved
        and fixes the canonical order of every query result.
    :param edges: (parent, child) pairs over ``nodes``; no self loops, no
        duplicates.
    """

    def __init__(self, nodes: Iterable[str], edges: Iterable[tuple[str, str]] = ()):
        self._nodes = tuple(nodes)
        seen: set[str] = set()
        for name in self._nodes:
            if not isinstance(name, str) or not name:
                raise ValueError(f"node name must be a non-empty string, got {name!r}")
            if name in seen:
                raise ValueError(f"duplicate node {name!r}")
            seen.add(name)
        self._index = {name: i for i, name in enumerate(self._nodes)}

        parents: dict[str, list[str]] = {name: [] for name in self._nodes}
        children: dict[str, list[str]] = {name: [] for name in self._nodes}
        edge_set: set[tuple[str, str]] = set()
        for edge in edges:
            parent, child = edge
            if parent not in self._index or child not in self._index:
                raise ValueError(f"edge ({parent!r}, {child!r}) mentions an unknown node")
            if parent == child:
                raise ValueError(f"self loop on {parent!r}")
            if (parent, child) in edge_set:
                raise ValueError(f"duplicate edge ({parent!r}, {child!r})")
            edge_set.add((parent, child))
            parents[child].append(parent)
            children[parent].append(child)
        for name in self._nodes:
            parents[name].sort(key=self._index.__getitem__)
            children[name].sort(key=self._index.__getitem__)
        self._parents = {k: tuple(v) for k, v in parents.items()}
        self._children = {k: tuple(v) for k, v in children.items()}
        self._edges = frozenset(edge_set)
        self._topo = self._toposort()
        # the store behind `derived`: per name, the values by key
        self._derived: defaultdict[str, dict] = defaultdict(dict)

    @property
    def nodes(self) -> tuple[str, ...]:
        return self._nodes

    @property
    def edges(self) -> frozenset[tuple[str, str]]:
        return self._edges

    def sorted_edges(self) -> tuple[tuple[str, str], ...]:
        """Edges ordered by (parent index, child index)."""
        return tuple(sorted(self._edges, key=lambda e: (self._index[e[0]], self._index[e[1]])))

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dag):
            return NotImplemented
        return self._nodes == other._nodes and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._nodes, self._edges))

    def __repr__(self) -> str:
        return f"Dag(nodes={list(self._nodes)!r}, edges={sorted(self._edges)!r})"

    def index(self, name: str) -> int:
        self._require(name)
        return self._index[name]

    def parents(self, name: str) -> tuple[str, ...]:
        self._require(name)
        return self._parents[name]

    def children(self, name: str) -> tuple[str, ...]:
        self._require(name)
        return self._children[name]

    def _require(self, name: str) -> None:
        if name not in self._index:
            raise ValueError(f"unknown node {name!r}")

    def _known(self, names: Iterable[str]) -> set[str]:
        # ``names`` as a set once each is a node; otherwise the unknown of
        # smallest repr is refused, the same one under every hash seed
        found = set(names)
        if not self._index.keys() >= found:
            self._require(min(found - self._index.keys(), key=repr))
        return found

    def canon(self, names: Iterable[str]) -> tuple[str, ...]:
        """``names`` without repeats, in node order; an unknown name raises
        the ``unknown node`` `ValueError`."""
        return self._canon(self._known(names))

    def _canon(self, found: set[str]) -> tuple[str, ...]:
        # the node order itself, for sets of known nodes
        return tuple(sorted(found, key=self._index.__getitem__))

    def _toposort(self) -> tuple[str, ...]:
        indeg = {name: len(self._parents[name]) for name in self._nodes}
        ready = [self._index[n] for n in self._nodes if indeg[n] == 0]
        heapq.heapify(ready)
        order: list[str] = []
        while ready:
            node = self._nodes[heapq.heappop(ready)]
            order.append(node)
            for child in self._children[node]:
                indeg[child] -= 1
                if indeg[child] == 0:
                    heapq.heappush(ready, self._index[child])
        if len(order) != len(self._nodes):
            stuck = [n for n in self._nodes if indeg[n] > 0]
            raise CycleError(f"directed cycle through {stuck}")
        return tuple(order)

    @property
    def topological_order(self) -> tuple[str, ...]:
        """Parents before children; ties broken by insertion order."""
        return self._topo

    def ancestors(self, name: str, level: int | float = INF) -> tuple[str, ...]:
        """Nodes with a directed path of length <= ``level`` into ``name``.

        ``level`` must be a positive integer (numpy integers pass, bools
        and floats do not) or ``math.inf``.  ``name`` itself is never
        included.  The graph is immutable, so each answer is computed once
        and kept (`derived`); the key is looked up only after both
        arguments pass, since ``True`` and ``1.0`` hash as ``1`` does.
        """
        self._require(name)
        if level != INF and (not isinstance(level, Integral) or isinstance(level, bool) or level < 1):
            raise ValueError(f"level must be a positive integer or inf, got {level!r}")
        return self.derived("ancestors", (name, level), lambda: self._walk(name, self._parents, level))

    def derived(self, name: str, key, make):
        """The value kept under ``name`` and ``key``: what ``make()``
        returned on the first lookup, the only one that calls it.

        The one store for what is derived from the structure alone: a key
        holds the graph's terms (the cards, a query's shape), never a
        parametrization, a budget or an event value.  Each ``name`` is one
        module's, which alone builds its keys.  Every network on this graph
        shares each value, which lives as long as the graph.  ``make`` is
        not kept, and one that raises keeps nothing.  A value holds no
        network, bar `control.usm_adversarial_cbn`'s, a cycle through this
        graph that the collector frees with it.
        """
        store = self._derived[name]
        try:
            return store[key]
        except KeyError:
            pass
        found = store[key] = make()
        return found

    def descendants(self, name: str) -> tuple[str, ...]:
        """Nodes reachable from ``name`` by a directed path (excluding it)."""
        self._require(name)
        return self._walk(name, self._children)

    def _walk(self, name: str, step: dict, level: int | float = INF) -> tuple[str, ...]:
        # breadth-first closure of ``name`` along ``step`` (the parents or
        # the children map), at most ``level`` steps deep
        found: set[str] = set()
        frontier = [name]
        depth = 0
        while frontier and depth < level:
            depth += 1
            nxt: list[str] = []
            for node in frontier:
                for other in step[node]:
                    if other not in found:
                        found.add(other)
                        nxt.append(other)
            frontier = nxt
        return self._canon(found)

    def backward_chain(self, start: Iterable[str], stop: Iterable[str]) -> BcResult:
        """Breadth-first sweep from ``start`` along reverse edges.

        Stop-set nodes are recorded when reached but never expanded; in
        particular a start node that is also a stop node terminates on the
        spot.  Parentless nodes outside the stop set end the sweep without
        becoming terminals.  ``terminals`` is ``visited`` intersected with
        the stop set.
        """
        start_t = tuple(start)
        if not start_t:
            raise ValueError("start set must be non-empty")
        for name in start_t:
            self._require(name)
        stop_s = self._known(stop)
        visited: set[str] = set(start_t)
        queue = deque(dict.fromkeys(start_t))
        while queue:
            node = queue.popleft()
            if node in stop_s:
                continue
            for parent in self._parents[node]:
                if parent not in visited:
                    visited.add(parent)
                    queue.append(parent)
        return BcResult(self._canon(visited), self._canon(visited & stop_s))

    def d_separated(self, a: Iterable[str], b: Iterable[str], z: Iterable[str] = ()) -> bool:
        """True when every path between ``a`` and ``b`` is blocked by ``z``:
        no ball that `bayes_ball` starts at ``a``, given ``z``, reaches ``b``."""
        a_s, b_s, z_s = set(a), set(b), set(z)
        if not a_s or not b_s:
            raise ValueError("a and b must be non-empty")
        self._known(a_s | b_s | z_s)
        if a_s & b_s or a_s & z_s or b_s & z_s:
            raise ValueError("a, b and z must be pairwise disjoint")
        return b_s.isdisjoint(bayes_ball(self._parents, self._children, a_s, z_s))


def bayes_ball(parents: dict, children: dict, sources: Iterable[str], observed) -> set[str]:
    """Every node that a Bayes ball (Shachter 1998) from ``sources`` visits,
    given ``observed``.

    ``parents`` and ``children`` map every node to its parents and its
    children.  Each source is visited as if from a child.  A ball visiting
    a node from a child passes an unobserved node on to its parents and
    children, and stops at an observed one.  A ball visiting from a parent
    passes an unobserved node on to its children, and bounces off an
    observed one back to its parents.  Each node passes a ball up at most
    once and down at most once, so the pass is linear in the edges.

    The unobserved nodes visited are those not d-separated from
    ``sources`` given ``observed``.  The observed nodes visited are the
    observations that can matter to ``sources``, the requisite
    observations.
    """
    up: set[str] = set()
    down: set[str] = set()
    reached: set[str] = set()
    stack = [(s, True) for s in sources]
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
