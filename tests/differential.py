"""Seeded differential corpus: the answers a change must keep.

Each entry is one call into ``cbnctrl`` on a seeded network: an optimizer
call (`optimal_policy_value`), a marginal, conditional or interventional
probability, a kept marginal of `Cbn.joint`, a grid search, the MAX and
MIN `optimal_values` without drivers, the first optimizer call again
with the target's desired value moved on by one, or the MAX and MIN
subset scans of `best_over_subsets` over the drivers.  It records the
value ``repr`` (or the ``repr`` of each entry of a returned tensor), the
witness as choice tuples (a subset scan's witness names its winning
subset) and a refusal as its type and message.  Networks are
drawn again from the seed on replay; each entry stores a digest of its
inputs, so a drifting generator shows as a changed input, not as a
changed answer.

The draws cover 2-7 nodes, cards 2/3, positive, mixed and 0/1 rows,
classes 0/1/2/inf, MAX and MIN, small budgets, and the shapes where the
optimizer's plan matters: nested chains, fans, confounded fans,
explaining-away and deep chains.  Half the random networks take their
rows from `oracle.random_cbn`; the target is the last node, so what a
driver sees can change its best table.

Usage, from the repository root, with ``PYTHONPATH=src`` pointing at the
tree under test:

    python tests/differential.py write tests/differential.json
    python tests/differential.py write OUT.json --scale 10
    python tests/differential.py diff OLD.json NEW.json
    python tests/differential.py print --kinds marginal,conditional

``write`` runs the corpus (``--scale`` multiplies its size, to diff two
trees at full size), ``diff`` compares two written files by the replay
rules below and ``print`` prints each entry as one JSON line.  The
committed snapshot is only ever rewritten by ``write`` at the parent of a
change, with every changed entry named in CHANGES.md.

Replay rules (`compare`): every value within `VALUE_TOL` of the snapshot,
refusals identical, and every witness identical, or, where it changed
among ties, replaying within `VALUE_TOL` of the snapshot value.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from math import prod

import numpy as np

from cbnctrl import (
    Budget,
    Cbn,
    Cpd,
    Dag,
    Direction,
    InterventionPair,
    InterventionPolicy,
    IpClass,
    grid_policy_values,
    interventional_prob,
    optimal_policy_value,
    optimal_values,
    scope_for_class,
)
from cbnctrl.oracle import best_over_subsets, random_cbn, random_dag

SEED = 20141
VALUE_TOL = 1e-12
KINDS = ("opv", "marginal", "conditional", "interventional", "joint", "grid", "values", "revalue",
         "subsets")
SHAPES = ("random", "random", "random", "nest", "fan", "cfan", "explain", "chain")
CLASSES = (IpClass(0), IpClass(1), IpClass(2), IpClass(float("inf")))
#: every optimizer call runs under this budget unless it draws a smaller
#: one, so no draw runs into seconds of scanning
OPV_BUDGET = Budget(max_work=200_000)
SMALL_BUDGETS = (Budget(max_work=60), Budget(max_state_space=16), Budget(max_work=2_000))


# ------------------------------------------------------------------ networks


def draw_rows(rng, card: int, count: int, mode: str) -> tuple[tuple[float, ...], ...]:
    # "positive": every entry positive; "01": one-hot rows; "mixed": each
    # row one-hot with probability 1/2
    rows = []
    for _ in range(count):
        if mode == "01" or (mode == "mixed" and rng.random() < 0.5):
            hot = int(rng.integers(card))
            rows.append(tuple(1.0 if v == hot else 0.0 for v in range(card)))
        else:
            raw = rng.uniform(0.05, 1.0, card)
            rows.append(tuple(float(p) for p in raw / raw.sum()))
    return tuple(rows)


def parametrize(rng, dag: Dag, cards: dict[str, int], mode: str) -> Cbn:
    if mode == "random_cbn":
        return random_cbn(rng, dag, cards)
    cpds = {}
    for node in dag.nodes:
        parents = dag.parents(node)
        parent_cards = tuple(cards[p] for p in parents)
        rows = draw_rows(rng, cards[node], prod(parent_cards), mode)
        cpds[node] = Cpd(node, parents, parent_cards, rows)
    return Cbn(dag, cards, cpds)


def structure(rng, shape: str) -> tuple[Dag, tuple[str, ...]]:
    """A dag whose last node is the target, and the drivers its shape
    suggests (empty for random dags, whose drivers are drawn later)."""
    if shape == "random":
        return random_dag(rng, int(rng.integers(2, 8)), float(rng.uniform(0.3, 0.6))), ()
    if shape == "nest":
        # class-inf scopes nest: {r} within {r, d0} within {r, d0, d1}
        k = int(rng.integers(2, 4))
        drivers = [f"d{i}" for i in range(k)]
        edges = [("r", d) for d in drivers] + [("r", "o")]
        edges += [(a, b) for i, a in enumerate(drivers) for b in drivers[i + 1:]]
        edges += [(d, "o") for d in drivers]
        return Dag(["r", *drivers, "o"], edges), tuple(drivers)
    if shape == "fan":
        # incomparable scopes: each driver sees its own parent
        k = int(rng.integers(2, 4))
        nodes = [n for i in range(k) for n in (f"p{i}", f"d{i}")] + ["o"]
        edges = [(f"p{i}", f"d{i}") for i in range(k)] + [(f"d{i}", "o") for i in range(k)]
        edges += [(f"p{i}", "o") for i in range(k) if rng.random() < 0.5]
        return Dag(nodes, edges), tuple(f"d{i}" for i in range(k))
    if shape == "cfan":
        # drivers share one root, which also feeds the mediator
        k = int(rng.integers(2, 4))
        drivers = [f"d{i}" for i in range(k)]
        edges = [("r", d) for d in drivers] + [(d, "m") for d in drivers] + [("r", "m"), ("m", "o")]
        return Dag(["r", *drivers, "m", "o"], edges), tuple(drivers)
    if shape == "explain":
        # a collider between the drivers' parents explains one away
        edges = [("a", "c"), ("b", "c"), ("a", "d0"), ("b", "d1"),
                 ("c", "o"), ("d0", "o"), ("d1", "o")]
        return Dag(["a", "b", "c", "d0", "d1", "o"], edges), ("d0", "d1")
    # deep chain with drivers partway down
    n = int(rng.integers(4, 8))
    names = [f"v{i}" for i in range(n)]
    edges = list(zip(names, names[1:]))
    drivers = tuple(sorted(rng.choice(names[1:-1], size=min(2, n - 2), replace=False).tolist(),
                           key=names.index))
    return Dag(names, edges), drivers


def network(rng, shape: str) -> tuple[Cbn, tuple[str, ...]]:
    dag, drivers = structure(rng, shape)
    cards = {n: int(rng.choice((2, 2, 3))) for n in dag.nodes}
    if prod(cards.values()) > 300:
        cards = dict.fromkeys(dag.nodes, 2)
    mode = ("random_cbn", "positive", "mixed", "01")[int(rng.integers(4))]
    if shape == "random" and rng.random() < 0.5:
        mode = "random_cbn"
    return parametrize(rng, dag, cards, mode), drivers


# --------------------------------------------------------------------- calls


def random_event(rng, cbn: Cbn, size: int) -> dict[str, int]:
    nodes = cbn.dag.nodes
    picked = rng.permutation(len(nodes))[: min(size, len(nodes))]
    return {nodes[i]: int(rng.integers(cbn.cards[nodes[i]])) for i in sorted(picked)}


def random_pair(rng, cbn: Cbn) -> InterventionPair:
    # 1-2 stochastic policies, scopes drawn from the ancestry in any order
    dag, cards = cbn.dag, cbn.cards
    targets = rng.permutation(len(dag.nodes))[: int(rng.integers(1, 3))]
    policies = []
    for i in targets:
        target = dag.nodes[i]
        ancestry = list(dag.ancestors(target))
        scope = tuple(ancestry[j] for j in rng.permutation(len(ancestry))[: int(rng.integers(0, 3))])
        scope_cards = tuple(cards[s] for s in scope)
        rows = draw_rows(rng, cards[target], prod(scope_cards), "positive")
        policies.append(InterventionPolicy(Cpd(target, scope, scope_cards, rows)))
    return InterventionPair(policies)


def pick_drivers(rng, cbn: Cbn, suggested: tuple[str, ...]) -> tuple[str, ...]:
    if suggested:
        return suggested
    nodes = cbn.dag.nodes[:-1]
    with_parents = [n for n in nodes if cbn.dag.parents(n)]
    pool = with_parents if len(with_parents) >= 2 else list(nodes)
    if not pool:
        return ()
    k = int(rng.integers(1, min(3, len(pool)) + 1))
    return tuple(sorted(rng.choice(pool, size=k, replace=False).tolist(), key=cbn.dag.index))


def calls(rng, cbn: Cbn, drivers: tuple[str, ...]):
    """(kind, args, thunk) for each call drawn on one network."""
    dag, cards = cbn.dag, cbn.cards
    nodes = dag.nodes
    target = nodes[-1]
    desired = {target: int(rng.integers(cards[target]))}
    first = None  # the first optimizer call's class and direction
    for _ in range(3):
        ip_class = CLASSES[int(rng.integers(len(CLASSES)))]
        direction = (Direction.MAX, Direction.MIN)[int(rng.integers(2))]
        first = first or (ip_class, direction)
        budget = OPV_BUDGET
        if rng.random() < 0.2:
            budget = SMALL_BUDGETS[int(rng.integers(len(SMALL_BUDGETS)))]
        args = (drivers, str(ip_class), desired, direction.value, budget)
        yield "opv", args, lambda c=ip_class, d=direction, b=budget: optimal_policy_value(
            cbn, drivers, c, desired, d, b)
    for size in (1, int(rng.integers(1, len(nodes) + 1))):
        event = random_event(rng, cbn, size)
        yield "marginal", (event,), lambda e=event: cbn.marginal_prob(e)
    if len(nodes) >= 2:
        both = random_event(rng, cbn, int(rng.integers(2, len(nodes) + 1)))
        split = int(rng.integers(1, len(both)))
        event, given = dict(list(both.items())[:split]), dict(list(both.items())[split:])
        yield "conditional", (event, given), lambda: cbn.conditional_prob(event, given)
    pair = random_pair(rng, cbn)
    event = random_event(rng, cbn, int(rng.integers(1, 3)))
    yield "interventional", (pair_choices(pair, rows=True), event), lambda: interventional_prob(
        cbn, pair, event)
    event = random_event(rng, cbn, int(rng.integers(0, len(nodes) + 1)))
    skip = tuple(n for n in nodes if rng.random() < 0.3)
    keep = [nodes[i] for i in rng.permutation(len(nodes))[: int(rng.integers(0, len(nodes) + 1))]]
    yield "joint", (event, skip, keep), lambda: cbn.joint(event, skip, keep=keep)
    small = [d for d in drivers if prod(cards[s] for s in scope_for_class(dag, d, CLASSES[1])) <= 3]
    if small and rng.random() < 0.5:
        grid_drivers = tuple(small[:2])
        ip_class = CLASSES[int(rng.integers(2))]
        both = (Direction.MAX, Direction.MIN)
        budget = Budget(max_work=400_000)
        yield "grid", (grid_drivers, str(ip_class), desired), lambda: grid_policy_values(
            cbn, grid_drivers, ip_class, desired, both, 0.5, budget)
    # the optimizer without drivers, whose base tensor has the shape of
    # `marginal_prob`'s; last and drawing nothing, so earlier entries keep
    # their ids and inputs
    yield "values", ((), str(CLASSES[1]), desired), lambda: optimal_values(
        cbn, (), CLASSES[1], desired, (Direction.MAX, Direction.MIN), OPV_BUDGET)
    # the first optimizer call again, aiming at the target's next value: a
    # search of a shape already asked, for another event value; last and
    # drawing nothing, as above
    ip_class, direction = first
    moved = {target: (desired[target] + 1) % cards[target]}
    args = (drivers, str(ip_class), moved, direction.value, OPV_BUDGET)
    yield "revalue", args, lambda: optimal_policy_value(
        cbn, drivers, ip_class, moved, direction, OPV_BUDGET)
    # the best subset of the drivers in the first call's class, as (value,
    # witness), whose targets are the subset; last and drawing nothing, as
    # above
    for direction in (Direction.MAX, Direction.MIN):
        args = (drivers, str(ip_class), desired, direction.value, OPV_BUDGET)
        yield "subsets", args, lambda d=direction: best_over_subsets(
            cbn, drivers, ip_class, desired, d, OPV_BUDGET)[::2]


def pair_choices(pair: InterventionPair, rows: bool = False) -> list:
    """A pair as ``[target, scope, choices]`` per policy, in pair order; with
    ``rows``, its rows instead of one-hot choices."""
    out = []
    for policy in pair.policies:
        table = policy.table.rows if rows else [row.index(1.0) for row in policy.table.rows]
        out.append([policy.target, list(policy.scope), [list(r) for r in table] if rows else table])
    return out


def digest(cbn: Cbn, kind: str, args) -> str:
    parts = [cbn.dag.nodes, sorted(cbn.dag.edges), [cbn.cards[n] for n in cbn.dag.nodes],
             [cbn.cpd(n) for n in cbn.dag.nodes], kind, args]
    return hashlib.md5(repr(parts).encode()).hexdigest()[:12]


def outcome(thunk) -> dict:
    try:
        result = thunk()
    except Exception as exc:  # a refusal is an answer: record it
        return {"refusal": [type(exc).__name__, str(exc)]}
    if isinstance(result, tuple):
        value, pair = result
        return {"value": repr(value), "witness": pair_choices(pair)}
    if isinstance(result, np.ndarray):
        return {"value": [repr(float(v)) for v in result.reshape(-1)], "dims": list(result.shape)}
    if isinstance(result, list):
        return {"value": [repr(v) for v in result]}
    return {"value": repr(result)}


def corpus(scale: int = 1, kinds=KINDS):
    """Yield ``(entry, cbn, args)`` per drawn call, in a fixed order."""
    rng = np.random.default_rng(SEED)
    for i in range(48 * scale):
        shape = SHAPES[i % len(SHAPES)]
        cbn, suggested = network(rng, shape)
        drivers = pick_drivers(rng, cbn, suggested)
        for j, (kind, args, thunk) in enumerate(calls(rng, cbn, drivers)):
            if kind not in kinds:
                continue
            entry = {"id": f"{i}.{j}", "shape": shape, "kind": kind, "digest": digest(cbn, kind, args)}
            entry.update(outcome(thunk))
            yield entry, cbn, args


# ------------------------------------------------------------------- replay


def close(a: str, b: str) -> bool:
    return abs(float(a) - float(b)) <= VALUE_TOL


def compare(old: dict, new: dict, replay=None) -> str | None:
    """Why ``new`` breaks the replay rules against ``old``, or None.

    ``replay`` maps a changed witness to its value; without it a changed
    witness is reported as one."""
    if old["digest"] != new["digest"]:
        return "input changed: rewrite the snapshot at the parent"
    if "refusal" in old or "refusal" in new:
        if old.get("refusal") != new.get("refusal"):
            return f"refusal {old.get('refusal')} became {new.get('refusal', new.get('value'))}"
        return None
    a, b = old["value"], new["value"]
    if isinstance(a, list):
        if old.get("dims") != new.get("dims") or len(a) != len(b):
            return f"dims {old.get('dims')} became {new.get('dims')}"
        bad = [(x, y) for x, y in zip(a, b) if not close(x, y)]
        return f"values moved: {bad[:3]}" if bad else None
    if not close(a, b):
        return f"value {a} became {b}"
    if old.get("witness") != new.get("witness"):
        if replay is None:
            return f"witness changed: {old.get('witness')} -> {new.get('witness')}"
        value = replay(new["witness"])
        if abs(value - float(a)) > VALUE_TOL:
            return f"new witness replays to {value!r}, not {a}"
        return "witness changed among ties"
    return None


def witness_pair(cbn: Cbn, witness: list) -> InterventionPair:
    cards = cbn.cards
    return InterventionPair(
        InterventionPolicy(
            Cpd.from_choices(t, tuple(scope), tuple(cards[s] for s in scope), cards[t], tuple(choices))
        )
        for t, scope, choices in witness
    )


def replay_witness(cbn: Cbn, args):
    """Value of a witness of the ``opv``, ``revalue`` or ``subsets`` call
    ``args`` on ``cbn``."""
    desired = args[2]
    return lambda witness: interventional_prob(cbn, witness_pair(cbn, witness), desired)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    write = sub.add_parser("write", help="run the corpus and write it as JSON")
    write.add_argument("out")
    write.add_argument("--scale", type=int, default=1)
    show = sub.add_parser("print", help="print each entry as one JSON line")
    show.add_argument("--kinds", default=",".join(KINDS))
    diff = sub.add_parser("diff", help="compare two written corpora")
    diff.add_argument("old")
    diff.add_argument("new")
    args = parser.parse_args(argv)
    if args.command == "write":
        entries = [entry for entry, _, _ in corpus(args.scale)]
        with open(args.out, "w") as fh:
            fh.write("[\n" + ",\n".join(json.dumps(e, separators=(",", ":")) for e in entries) + "\n]\n")
        print(f"{len(entries)} entries written to {args.out}")
        return 0
    if args.command == "print":
        for entry, _, _ in corpus(kinds=tuple(args.kinds.split(","))):
            print(json.dumps(entry, separators=(",", ":")))
        return 0
    with open(args.old) as fh:
        old = {e["id"]: e for e in json.load(fh)}
    with open(args.new) as fh:
        new = {e["id"]: e for e in json.load(fh)}
    problems = 0
    for key in sorted(old.keys() | new.keys(), key=lambda k: tuple(map(int, k.split(".")))):
        if key not in old or key not in new:
            print(f"{key}: only in {'new' if key in new else 'old'}")
            problems += 1
            continue
        why = compare(old[key], new[key])
        if why:
            print(f"{key} ({old[key]['kind']}): {why}")
            problems += 1
    print(f"{len(old)} old, {len(new)} new, {problems} differing")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
