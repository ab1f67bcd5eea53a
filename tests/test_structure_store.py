"""What the structure decides, kept once per `Dag`.

Contraction plans, search plans, first tables and `usm_adversarial_cbn`'s
network depend on the structure (and the cards) alone, so the dag keeps
them (`Dag.derived`) and every network on it shares them.  A network keeps
its own CPD arrays in its plans, and the dag keeps none, so sweeping
parametrizations keeps nothing alive.  Each answer must be bit for bit
that of a network on a new, equal dag, which plans everything afresh.
"""

import gc
import json
import weakref
from itertools import product

import numpy as np
import pytest

from cbnctrl import (
    CLASS1,
    CLASS_INF,
    Cbn,
    Dag,
    Direction,
    IpClass,
    optimal_policy_value,
    optimal_values,
    random_cbn,
    usm_adversarial_cbn,
    verify_usm,
)
from cbnctrl.netfile import parse
from cbnctrl.oracle import enumerate_prob

import test_cbn
from test_control import dead_fan, fan_dag, fresh, spy_on
from test_requisite import nest

BOTH = (Direction.MAX, Direction.MIN)


def answers(cbn, drivers):
    """Joints of three shapes over every event value, and optimizer values
    and witnesses at three classes in both directions, as comparable data."""
    nodes = cbn.dag.nodes
    out = []
    for given, skip, keep in (((nodes[-1],), (), ()), ((nodes[-1],), drivers, nodes[:2]), ((), (), None)):
        for values in product(*(range(cbn.cards[n]) for n in given)):
            out.append(cbn.joint(dict(zip(given, values)), skip, keep=keep).tobytes())
    for ip_class in (CLASS1, IpClass(2), CLASS_INF):
        for direction in BOTH:
            value, pair = optimal_policy_value(cbn, drivers, ip_class, {"o": 1}, direction)
            out.append((repr(value), pair))
        out.append(list(map(repr, optimal_values(cbn, drivers, ip_class, {"o": 1}, BOTH))))
    return out


@pytest.mark.parametrize("structure", [fan_dag, nest])
def test_networks_on_one_dag_plan_each_shape_once(monkeypatch, structure):
    # a dag of this test's own, so that nothing on it is planned yet
    dag, drivers = structure(2), ("d0", "d1")
    rng = np.random.default_rng(27)
    first, second = random_cbn(rng, dag), random_cbn(rng, dag)
    assert first.cpds != second.cpds
    own = [answers(fresh(cbn), drivers) for cbn in (first, second)]
    shapes = test_cbn.TestPlanCache.plans_built(monkeypatch)
    searches = spy_on(monkeypatch, "_search_plan")
    assert answers(first, drivers) == own[0]
    made = (list(shapes), list(searches))
    assert made[0] and made[1]
    assert len(set(made[0])) == len(made[0]) and len(set(map(repr, made[1]))) == len(made[1])
    # the second network plans nothing, and answers as it does alone
    assert answers(second, drivers) == own[1]
    assert (shapes, searches) == made
    assert second._search_plans is first._search_plans


def test_other_cards_on_one_dag_plan_apart(monkeypatch):
    dag = fan_dag(2)
    rng = np.random.default_rng(28)
    binary, ternary = random_cbn(rng, dag), random_cbn(rng, dag, {n: 3 if n == "o" else 2 for n in dag.nodes})
    shapes = test_cbn.TestPlanCache.plans_built(monkeypatch)
    for cbn in (binary, ternary):
        assert cbn.marginal_prob({"o": 1}) == pytest.approx(enumerate_prob(cbn, {"o": 1}), abs=1e-12)
    assert len(shapes) == 2
    assert binary._search_plans is not ternary._search_plans


def test_a_netfile_parent_order_shares_no_contraction_plan(monkeypatch, fixtures_dir):
    # o's table lists its parents as (y, x); the dag's order is (x, y)
    doc = json.loads((fixtures_dir / "xor_gate.json").read_text())
    rows = doc["cpds"]["o"]["rows"]
    doc["cpds"]["o"] = {"parents": ["y", "x"], "rows": [rows[0], rows[2], rows[1], [0.25, 0.75]]}
    swapped = parse(json.dumps(doc)).cbn
    assert swapped.cpd("o").parents == ("y", "x")
    ordered = random_cbn(np.random.default_rng(29), swapped.dag)
    assert ordered.cpd("o").parents == ("x", "y") and ordered.dag is swapped.dag
    shapes = test_cbn.TestPlanCache.plans_built(monkeypatch)
    events = [dict(zip(("x", "y", "o"), values)) for values in product(range(2), repeat=3)]
    events += [{"o": 1}, {"x": 0, "o": 1}, {"y": 1}]
    for cbn in (swapped, ordered):
        for event in events:
            assert cbn.marginal_prob(event) == pytest.approx(enumerate_prob(cbn, event), abs=1e-12)
    # each network made every shape: neither used the other's plans
    assert len(shapes) == 2 * len({frozenset(event) for event in events})
    assert swapped._shapes is not ordered._shapes


def test_verify_usm_builds_one_adversarial_network_per_dag(monkeypatch):
    dag = fan_dag(3)
    args = (dag, ("d0", "d1", "d2", "r0"), ("o",))
    expect = verify_usm(Dag(dag.nodes, dag.edges), *args[1:])
    built = []
    init = Cbn.__init__

    def recording(self, *a, **k):
        built.append(a[0])
        init(self, *a, **k)

    monkeypatch.setattr(Cbn, "__init__", recording)
    first = verify_usm(*args)
    second = verify_usm(*args)
    assert first == second == expect and first.passed
    assert built == [dag]


def test_each_usm_call_returns_its_own_desired():
    dag = fan_dag(2)
    cbn, desired = usm_adversarial_cbn(dag, ("d1", "d0"), ("o", "m"))
    again, other = usm_adversarial_cbn(dag, ("d0", "d1", "d0"), ("m", "o"))
    assert again is cbn
    assert desired == other == {"o": 1, "m": 1} and desired is not other
    assert list(desired) == ["o", "m"] and list(other) == ["m", "o"]
    desired["o"] = 0
    assert usm_adversarial_cbn(dag, ("d0", "d1"), ("o",))[1] == {"o": 1}
    # another driver set is another network
    assert usm_adversarial_cbn(dag, ("d0",), ("o",))[0] is not cbn


def test_an_all_dead_witness_builds_each_first_table_once(monkeypatch):
    # x and y have no directed path to t, so the call takes the 0/1 path on
    # a stochastic network, and each witness table is a driver's first
    cbn = dead_fan(np.random.default_rng(5))
    assert not cbn.deterministic
    built = spy_on(monkeypatch, "_first_table")
    value, pair = optimal_policy_value(cbn, ("x", "y"), CLASS_INF, {"t": 1}, Direction.MAX)
    assert [args[1] for args in built] == ["x", "y"]
    again, same = optimal_policy_value(cbn, ("x", "y"), CLASS_INF, {"t": 1}, Direction.MIN)
    assert len(built) == 2
    assert value == again == cbn.marginal_prob({"t": 1})
    assert all(a.table is b.table for a, b in zip(pair.policies, same.policies))


def test_a_sweep_of_parametrizations_keeps_nothing_alive():
    # the dag keeps plans and first tables, but no network, CPD or array
    dag = fan_dag(2)
    rng = np.random.default_rng(30)
    refs = []
    for _ in range(3):
        cbn = random_cbn(rng, dag)
        answers(cbn, ("d0", "d1"))
        refs += [weakref.ref(cbn), *(weakref.ref(cbn.cpd(n).array()) for n in dag.nodes)]
        del cbn
    assert dag.derived("first tables", (2,) * len(dag.nodes))
    assert all(ref() is None for ref in refs)


def test_the_adversarial_network_is_freed_with_its_dag():
    # the kept network refers to its dag, a cycle the collector frees
    dag = fan_dag(2)
    verify_usm(dag, ("d0", "d1"), ("o",))
    (network,) = dag.derived("usm").values()
    refs = weakref.ref(dag), weakref.ref(network)
    del dag, network
    gc.collect()
    assert refs[0]() is None and refs[1]() is None
