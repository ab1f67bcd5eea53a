"""JSON network files.

A file carries the structure, the intervenable set and the targets, and
optionally a full parametrization and a set of policy tables.  Parsing is
strict: unknown and repeated keys are rejected and every error message
names the field path it came from.  ``parse(serialize(spec))`` reproduces
``spec`` exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .cbn import Cbn, Cpd
from .control import ControlProblem, Objective
from .graph import Dag
from .intervention import InterventionPair, InterventionPolicy, check_policies

FORMAT = "cbn-net/1"


class NetFormatError(ValueError):
    """A network file failed validation."""


def _fail(path: str, msg: str) -> None:
    raise NetFormatError(f"{path}: {msg}")


class _Object(dict):
    """A JSON object as `_pairs` parsed it, with the first key its text
    repeats, if any."""

    repeated = None


def _pairs(pairs) -> _Object:
    # ``json.loads``'s object hook: every key kept, the last value of a
    # repeated one, as ``json.loads`` keeps it, and the first repeat noted
    obj = _Object()
    for key, value in pairs:
        if key in obj and obj.repeated is None:
            obj.repeated = key
        obj[key] = value
    return obj


def _check_unique(obj: _Object, path: str) -> None:
    if obj.repeated is not None:
        _fail(path, f"duplicate key {obj.repeated!r}")


def _check_keys(obj, required: tuple[str, ...], optional: tuple[str, ...], path: str) -> None:
    if not isinstance(obj, dict):
        _fail(path, f"expected an object, got {type(obj).__name__}")
    _check_unique(obj, path)
    for key in obj:
        if key not in required and key not in optional:
            _fail(path, f"unknown key {key!r}")
    for key in required:
        if key not in obj:
            _fail(path, f"missing key {key!r}")


def _string(value, path: str) -> str:
    if not isinstance(value, str) or not value:
        _fail(path, f"expected a non-empty string, got {value!r}")
    return value


def _int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    return value


def _string_list(value, path: str) -> list[str]:
    if not isinstance(value, list):
        _fail(path, f"expected a list, got {type(value).__name__}")
    out = [_string(item, f"{path}[{i}]") for i, item in enumerate(value)]
    seen = set()
    for i, name in enumerate(out):
        if name in seen:
            _fail(f"{path}[{i}]", f"duplicate entry {name!r}")
        seen.add(name)
    return out


def _rows(value, path: str) -> tuple[tuple[float, ...], ...]:
    if not isinstance(value, list) or not value:
        _fail(path, "expected a non-empty list of rows")
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or not row:
            _fail(f"{path}[{i}]", "expected a non-empty list of numbers")
        cells = []
        for j, cell in enumerate(row):
            if isinstance(cell, bool) or not isinstance(cell, (int, float)):
                _fail(f"{path}[{i}][{j}]", f"expected a number, got {cell!r}")
            cells.append(float(cell))
        rows.append(tuple(cells))
    return tuple(rows)


def _table(name: str, parents: tuple[str, ...], rows, cards: dict[str, int], path: str) -> Cpd:
    # the table of ``name`` over ``parents`` from a file's ``rows``, refused
    # under ``path`` unless each row has one entry per value of ``name``
    rows = _rows(rows, f"{path}.rows")
    try:
        table = Cpd(name, parents, tuple(cards[p] for p in parents), rows)
    except ValueError as exc:
        raise NetFormatError(f"{path}: {exc}") from exc
    if table.card != cards[name]:
        _fail(path, f"rows have {table.card} entries, node cardinality is {cards[name]}")
    return table


@dataclass(frozen=True)
class NetworkSpec:
    """Everything a network file can describe.

    ``cbn`` is None when the file has no ``cpds`` block, ``pair`` is None
    when it has no ``policies`` block.
    """

    dag: Dag
    cards: dict[str, int]
    intervenable: tuple[str, ...]
    targets: tuple[str, ...]
    desired: dict[str, int]
    cbn: Cbn | None = None
    pair: InterventionPair | None = None

    def problem(self, objective: Objective | None = None) -> ControlProblem:
        return ControlProblem(
            self.dag,
            self.intervenable,
            self.targets,
            tuple(self.desired[t] for t in self.targets),
            objective,
        )

    @classmethod
    def from_cbn(
        cls,
        cbn: Cbn,
        intervenable,
        targets,
        desired: dict[str, int],
        pair: InterventionPair | None = None,
    ) -> "NetworkSpec":
        return cls(
            cbn.dag,
            dict(cbn.cards),
            tuple(intervenable),
            tuple(targets),
            dict(desired),
            cbn,
            pair,
        )


def parse(text: str) -> NetworkSpec:
    try:
        doc = json.loads(text, object_pairs_hook=_pairs)
    except (ValueError, RecursionError) as exc:
        # besides a syntax error, ``json.loads`` refuses an integer past
        # Python's digit limit (a ValueError) and nesting past the
        # recursion limit
        raise NetFormatError(f"not valid JSON: {exc}") from exc
    _check_keys(
        doc,
        ("format", "nodes", "edges", "intervenable", "targets"),
        ("cpds", "policies"),
        "top level",
    )
    if doc["format"] != FORMAT:
        _fail("format", f"expected {FORMAT!r}, got {doc['format']!r}")

    if not isinstance(doc["nodes"], list) or not doc["nodes"]:
        _fail("nodes", "expected a non-empty list")
    names: list[str] = []
    cards: dict[str, int] = {}
    for i, entry in enumerate(doc["nodes"]):
        path = f"nodes[{i}]"
        _check_keys(entry, ("name", "card"), (), path)
        name = _string(entry["name"], f"{path}.name")
        card = _int(entry["card"], f"{path}.card")
        if card < 2:
            _fail(f"{path}.card", f"cardinality must be >= 2, got {card}")
        if name in cards:
            _fail(f"{path}.name", f"duplicate node {name!r}")
        names.append(name)
        cards[name] = card

    if not isinstance(doc["edges"], list):
        _fail("edges", "expected a list")
    edges: dict[tuple[str, str], None] = {}  # in file order
    for i, entry in enumerate(doc["edges"]):
        path = f"edges[{i}]"
        if not isinstance(entry, list) or len(entry) != 2:
            _fail(path, "expected a [parent, child] pair")
        edge = (_string(entry[0], f"{path}[0]"), _string(entry[1], f"{path}[1]"))
        for j, name in enumerate(edge):
            if name not in cards:
                _fail(f"{path}[{j}]", f"unknown node {name!r}")
        if edge[0] == edge[1]:
            _fail(path, f"self loop on {edge[0]!r}")
        if edge in edges:
            _fail(path, f"duplicate edge {edge!r}")
        edges[edge] = None
    # every entry passed, so only a directed cycle is left to refuse
    try:
        dag = Dag(names, edges)
    except ValueError as exc:
        raise NetFormatError(f"structure: {exc}") from exc

    intervenable = tuple(_string_list(doc["intervenable"], "intervenable"))
    for i, name in enumerate(intervenable):
        if name not in dag:
            _fail(f"intervenable[{i}]", f"unknown node {name!r}")

    if not isinstance(doc["targets"], list) or not doc["targets"]:
        _fail("targets", "expected a non-empty list")
    targets: list[str] = []
    desired: dict[str, int] = {}
    for i, entry in enumerate(doc["targets"]):
        path = f"targets[{i}]"
        _check_keys(entry, ("name", "desired"), (), path)
        name = _string(entry["name"], f"{path}.name")
        if name not in dag:
            _fail(f"{path}.name", f"unknown node {name!r}")
        if name in desired:
            _fail(f"{path}.name", f"duplicate target {name!r}")
        value = _int(entry["desired"], f"{path}.desired")
        if not 0 <= value < cards[name]:
            _fail(f"{path}.desired", f"value {value} outside range of {name!r} (card {cards[name]})")
        targets.append(name)
        desired[name] = value

    cbn = None
    if "cpds" in doc:
        block = doc["cpds"]
        if not isinstance(block, dict):
            _fail("cpds", "expected an object keyed by node name")
        _check_unique(block, "cpds")
        missing = [n for n in dag.nodes if n not in block]
        if missing:
            _fail("cpds", f"missing tables for {missing}")
        cpds: dict[str, Cpd] = {}
        for name in block:
            path = f"cpds.{name}"
            if name not in dag:
                _fail(path, f"unknown node {name!r}")
            entry = block[name]
            _check_keys(entry, ("parents", "rows"), (), path)
            parents = tuple(_string_list(entry["parents"], f"{path}.parents"))
            if set(parents) != set(dag.parents(name)):
                _fail(
                    f"{path}.parents",
                    f"expected the parents of {name!r} {list(dag.parents(name))}, got {list(parents)}",
                )
            cpds[name] = _table(name, parents, entry["rows"], cards, path)
        # each table passed every check of `Cbn` above, under its own path
        cbn = Cbn(dag, cards, cpds)

    pair = None
    if "policies" in doc:
        block = doc["policies"]
        if not isinstance(block, dict):
            _fail("policies", "expected an object keyed by node name")
        _check_unique(block, "policies")
        policies: list[InterventionPolicy] = []
        for name in block:
            path = f"policies.{name}"
            if name not in dag:
                _fail(path, f"unknown node {name!r}")
            if name not in intervenable:
                _fail(path, f"{name!r} is not listed as intervenable")
            entry = block[name]
            _check_keys(entry, ("scope", "rows"), (), path)
            scope = tuple(_string_list(entry["scope"], f"{path}.scope"))
            for i, member in enumerate(scope):
                if member not in dag:
                    _fail(f"{path}.scope[{i}]", f"unknown node {member!r}")
            policy = InterventionPolicy(_table(name, scope, entry["rows"], cards, path))
            try:
                check_policies(dag, InterventionPair.of(policy))
            except ValueError as exc:
                raise NetFormatError(f"{path}.scope: {exc}") from exc
            policies.append(policy)
        pair = InterventionPair(policies)

    return NetworkSpec(dag, cards, intervenable, tuple(targets), desired, cbn, pair)


def serialize(spec: NetworkSpec) -> str:
    """Canonical text form: fixed key order, two-space indent, one
    trailing newline.  Serializing the same spec twice is byte-identical."""
    doc: dict = {
        "format": FORMAT,
        "nodes": [{"name": n, "card": spec.cards[n]} for n in spec.dag.nodes],
        "edges": [[p, c] for p, c in spec.dag.sorted_edges()],
        "intervenable": list(spec.intervenable),
        "targets": [{"name": t, "desired": spec.desired[t]} for t in spec.targets],
    }
    if spec.cbn is not None:
        doc["cpds"] = {
            name: {
                "parents": list(cpd.parents),
                "rows": [list(row) for row in cpd.rows],
            }
            for name, cpd in ((n, spec.cbn.cpd(n)) for n in spec.dag.nodes)
        }
    if spec.pair is not None:
        doc["policies"] = {
            policy.target: {
                "scope": list(policy.scope),
                "rows": [list(row) for row in policy.table.rows],
            }
            for policy in spec.pair.policies
        }
    return json.dumps(doc, indent=2) + "\n"


def load(path: str | Path) -> NetworkSpec:
    """`parse` of the UTF-8 text at ``path``; a file that cannot be read,
    or is not UTF-8, is refused with its path."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise NetFormatError(f"cannot read {path}: {exc}") from exc
    return parse(text)


def save(spec: NetworkSpec, path: str | Path) -> None:
    try:
        Path(path).write_text(serialize(spec), encoding="utf-8")
    except OSError as exc:
        raise NetFormatError(f"cannot write {path}: {exc}") from exc
