"""One witness rule, in `optimal_policy_value`.

`control._scan_plan` returns the winner as data: per live driver, its
chosen value on the 0/1 path, or its choices on its class scope on the
chain path.  `optimal_policy_value` turns that into the pair by one rule.
`reference_pair` is a literal copy of the three builders that the rule
replaced (``witness_pair``, ``atomic_witness`` and ``table_witness``), fed
the same gathered choices, and every pair must equal the one it builds.
"""

import numpy as np
import pytest

import cbnctrl.control as control
from cbnctrl import (
    CLASS0,
    CLASS1,
    CLASS_INF,
    Dag,
    Direction,
    InterventionPair,
    InterventionPolicy,
    IpClass,
    atomic_policy,
    interventional_prob,
    optimal_policy_value,
    random_cbn,
)
from cbnctrl.control import _first_table, live_drivers
from cbnctrl.intervention import scope_for_class

from test_control import dead_fan, deterministic_copy, fan_dag, kept_plan, live_and_dead, spy_chunks
from test_requisite import nest

CLASSES = (CLASS0, CLASS1, IpClass(2), CLASS_INF)


def reference_pair(cbn, drivers, ip_class, desired, direction, choices):
    """The witness pair as the three builders built it, from the winner's
    ``choices`` that `control._scan_plan` returned, per live driver on its
    class scope (unused on the 0/1 path, which reads its winner off the
    joint)."""
    dag, cards = cbn.dag, cbn.cards
    driver_list = dag.canon(drivers)
    live = live_drivers(dag, driver_list, desired)

    def witness_pair(policies: dict) -> InterventionPair:
        return InterventionPair(
            policies[d] if d in policies
            else atomic_policy(d, 0, cards[d]) if cbn.deterministic
            else InterventionPolicy(_first_table(cards, d, scope_for_class(dag, d, ip_class)))
            for d in driver_list
        )

    if not live or cbn.deterministic:
        base = cbn._contract(desired, live, live)
        best = int(direction.arg(base.reshape(-1)))

        def atomic_witness(i: int) -> InterventionPair:
            vector = np.unravel_index(best, base.shape)
            return witness_pair({d: atomic_policy(d, int(v), cards[d]) for d, v in zip(live, vector)})

        return atomic_witness(0)

    # the call kept a chain-search plan
    kept_plan(cbn, live, ip_class, desired)

    def table_witness(i: int) -> InterventionPair:
        tables = {d: _first_table(cards, d, scope_for_class(dag, d, ip_class)) for d in live}
        return witness_pair({d: InterventionPolicy(tables[d].with_choices(choices[d])) for d in live})

    return table_witness(0)


def witness_cases():
    """(name, network, drivers, desired) on every path of the rule."""
    rng = np.random.default_rng(26)
    chain = random_cbn(rng, nest(4))
    mixed = random_cbn(rng, fan_dag(3))
    confounded = random_cbn(
        rng, Dag(["a", "d1", "d2", "o"], [("a", "d1"), ("a", "d2"), ("d1", "o"), ("d2", "o")])
    )
    dead = live_and_dead(rng)
    only_dead = dead_fan(rng, k=2)
    nest_drivers = ("d0", "d1", "d2", "d3")
    return [
        ("0/1 nest", deterministic_copy(chain, rng), nest_drivers, {"o": 1}),
        ("0/1 live and dead", deterministic_copy(dead, rng), ("x", "d"), {"o": 1}),
        ("0/1 only dead", deterministic_copy(only_dead, rng), ("x", "y"), {"t": 1}),
        ("chain only", chain, nest_drivers, {"o": 1}),
        ("mixed fan", mixed, ("d0", "d1", "d2"), {"o": 1}),
        ("mixed confounded", confounded, ("d1", "d2"), {"o": 0}),
        ("live and dead", dead, ("d", "x"), {"o": 1}),
        ("only dead", only_dead, ("y", "x"), {"t": 1}),
    ]


CASES = witness_cases()


@pytest.mark.parametrize("name, cbn, drivers, desired", CASES, ids=[case[0] for case in CASES])
def test_pairs_equal_the_three_builders(monkeypatch, name, cbn, drivers, desired):
    # each call plans once, and the chain path's winner feeds the
    # reference; the 0/1 path runs no kernel
    scan_plan = control._scan_plan
    records = []

    def recording(*args, **kwargs):
        records.append(scan_plan(*args, **kwargs))
        return records[-1]

    monkeypatch.setattr(control, "_scan_plan", recording)
    batches = spy_chunks(monkeypatch)
    chain = bool(live_drivers(cbn.dag, cbn.dag.canon(drivers), desired)) and not cbn.deterministic
    for ip_class in CLASSES:
        for direction in Direction:
            records.clear()
            batches.clear()
            value, pair = optimal_policy_value(cbn, drivers, ip_class, desired, direction)
            assert len(records) == 1 and bool(batches) == chain
            expected = reference_pair(cbn, drivers, ip_class, desired, direction, records[0][1])
            assert pair.targets == expected.targets, (name, ip_class, direction)
            assert pair == expected, (name, ip_class, direction)
            assert interventional_prob(cbn, pair, desired) == pytest.approx(value, abs=1e-12)


def first_tables(cbn, ip_class, drivers):
    """The first tables the dag keeps for ``cbn``'s cards at ``ip_class``
    for ``drivers``, by driver."""
    key = cbn.card_tuple, ip_class.level
    return {d: cbn.dag.derived("first tables", (*key, d), lambda: pytest.fail("no first table kept")) for d in drivers}


def test_dead_driver_table_is_built_once_per_plan():
    # x is dead; on the chain path its first table is the dag's, and each
    # witness hands out that one object
    cbn = live_and_dead(np.random.default_rng(8))
    assert not cbn.deterministic
    for ip_class in (CLASS1, CLASS_INF):
        _, first = optimal_policy_value(cbn, ("d", "x"), ip_class, {"o": 1}, Direction.MAX)
        _, second = optimal_policy_value(cbn, ("d", "x"), ip_class, {"o": 1}, Direction.MIN)
        tables = first_tables(cbn, ip_class, cbn.dag.canon(("d", "x")))
        assert first.policy("x").table is second.policy("x").table is tables["x"]
        assert set(tables) == {"d", "x"}
