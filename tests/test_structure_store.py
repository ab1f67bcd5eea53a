"""What the structure decides, kept once per `Dag`.

Contraction plans, search plans, first tables, `usm_adversarial_cbn`'s
network, `c_star`'s drivers, each node's ancestors, the optimizer's
canonical and live drivers (``"live"``), the outcome of the pair checks
(``"pairs"``), the suites' checked drivers (``"drivers"``), atomic
policies, the grid's rows and `verify_lemma3`'s schedule depend on the
structure (and the cards and the query's shape) alone, so the dag keeps
them (`Dag.derived`) and every network on it shares them.  A warm key must
answer and refuse as a cold one, and a refused call keeps nothing.  A network keeps
its own CPD arrays and folded factors in its plans, and the dag keeps none, so sweeping
parametrizations keeps nothing alive; nor does a network hold any of the
dag's stores.  Each answer must be bit for bit that of a network on a
new, equal dag, which plans everything afresh.
"""

import gc
import json
import re
import weakref
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import cbnctrl.oracle as oracle
from cbnctrl import (
    CLASS1,
    CLASS_INF,
    Budget,
    BudgetExceededError,
    Cbn,
    ControlProblem,
    Cpd,
    Dag,
    Direction,
    InterventionPair,
    InterventionPolicy,
    IpClass,
    Objective,
    interventional_prob,
    optimal_policy_value,
    optimal_values,
    random_cbn,
    solve,
    usm_adversarial_cbn,
    verify_extremality,
    verify_lemma3,
    verify_sufficiency,
    verify_usm,
)
from cbnctrl.graph import INF
from cbnctrl.netfile import parse
from cbnctrl.oracle import enumerate_prob

import test_cbn
from test_control import confounded_fan, dead_fan, deterministic_copy, fan_dag, fresh, spy_on
from test_requisite import nest

BOTH = (Direction.MAX, Direction.MIN)


def kept(dag):
    """Every value the dag keeps, by store name and key."""
    return {(name, key): value for name, store in dag._derived.items() for key, value in store.items()}


def fail():
    pytest.fail("nothing kept under this key")


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
    planned = kept(dag)
    # the second network plans nothing, answers as it does alone, and reads
    # the very objects the first one's calls made
    assert answers(second, drivers) == own[1]
    assert (shapes, searches) == made
    now = kept(dag)
    assert now.keys() == planned.keys() and all(now[key] is value for key, value in planned.items())


@pytest.mark.parametrize("structure", [fan_dag, nest])
def test_a_network_holds_no_store_of_its_dag(structure):
    # what the dag keeps is reached through `Dag.derived` alone: no
    # attribute of a network is one of the dag's stores or a value kept in
    # one, and two networks of one layout share each contraction plan's
    # parts, each with its own CPD arrays in place
    dag, drivers = structure(2), ("d0", "d1")
    rng = np.random.default_rng(32)
    first, second = random_cbn(rng, dag), random_cbn(rng, dag)
    for cbn in (first, second):
        answers(cbn, drivers)
    stores = [dag._derived, *dag._derived.values(), *kept(dag).values()]
    for cbn in (first, second):
        held = list(vars(cbn).values())
        assert not [value for value in held if any(value is store for store in stores)]
    assert first._plans.keys() == second._plans.keys()
    folds = 0
    for shape, (operands, *rest) in first._plans.items():
        other, *same = second._plans[shape]
        assert all(a is b for a, b in zip(rest, same))
        assert operands is not other
        # each network's places, slots, output and dims are the dag plan's
        # own objects, at the dag plan's positions; every plan folds: its
        # CPDs are each network's own read-only factor, made from its own
        # tables, in the fold's place after the dag plan's per-call operands
        planned, places, slots, output, dims, fold = dag._derived["joint"][(first._layout, shape)]
        assert all(a is b for a, b in zip(rest, (places, slots, output, dims), strict=True))
        terms, labels, sizes = fold
        at = len(planned) - 2
        assert set(planned[-1]) <= set(labels)
        for held in (operands, other):
            assert len(held) == len(planned) and held[-1] is planned[-1]
            assert held[at].shape == tuple(sizes) and not held[at].flags.writeable
            assert all(held[i] is planned[i] for i in range(1, at, 2))
        assert operands[at] is not other[at]
        # a CPD: its owner's name among the fold's terms
        if any(isinstance(term, str) for term in terms[::2]):
            folds += 1
            assert not np.array_equal(operands[at], other[at])
    assert folds


def test_other_cards_on_one_dag_plan_apart(monkeypatch):
    dag = fan_dag(2)
    rng = np.random.default_rng(28)
    binary, ternary = random_cbn(rng, dag), random_cbn(rng, dag, {n: 3 if n == "o" else 2 for n in dag.nodes})
    shapes = test_cbn.TestPlanCache.plans_built(monkeypatch)
    searches = spy_on(monkeypatch, "_search_plan")
    for cbn in (binary, ternary):
        assert cbn.marginal_prob({"o": 1}) == pytest.approx(enumerate_prob(cbn, {"o": 1}), abs=1e-12)
        optimal_values(cbn, ("d0", "d1"), CLASS_INF, {"o": 1}, BOTH)
    # one query shape per network for the joint (the marginal; the scan's
    # base), and one search plan per network for one search shape
    assert len(shapes) == 4
    assert [args[1] for args in searches] == [binary.card_tuple, ternary.card_tuple]


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
    # each network made every shape: neither used the other's plans, since
    # their layouts differ in o's parent order alone
    assert len(shapes) == 2 * len({frozenset(event) for event in events})
    assert swapped.card_tuple == ordered.card_tuple


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
    for level, d in product((1, 2, INF), ("d0", "d1")):
        assert dag.derived("first tables", ((2,) * len(dag.nodes), level, d), fail)
    assert all(ref() is None for ref in refs)


def test_the_adversarial_network_is_freed_with_its_dag():
    # the kept network refers to its dag, a cycle the collector frees
    dag = fan_dag(2)
    verify_usm(dag, ("d0", "d1"), ("o",))
    network = dag.derived("usm", ("d0", "d1"), fail)
    refs = weakref.ref(dag), weakref.ref(network)
    del dag, network
    gc.collect()
    assert refs[0]() is None and refs[1]() is None


def suite_answers(cbn, pool, targets, desired):
    """The four suites' reports, then `solve`'s drivers, value and witness
    under every objective, and under min-min with a target in the pool."""
    dag = cbn.dag
    out = [
        verify_lemma3(cbn, pool, desired),
        verify_sufficiency(cbn, pool, targets, desired),
        verify_usm(dag, pool, targets),
        verify_extremality(cbn, pool, targets, desired),
    ]
    wanted = tuple(desired[t] for t in targets)
    problems = [ControlProblem(dag, pool, targets, wanted, objective) for objective in Objective]
    problems.append(ControlProblem(dag, (*pool, targets[0]), targets, wanted, Objective.MIN_MIN))
    for problem in problems:
        result = solve(problem, cbn)
        out.append((result.drivers, repr(result.value), result.pair))
    return out


def suite_refusals(cbn, pool, targets, desired):
    """Each suite and `solve` refused by a budget of one step, and the
    bracket suite by a desired value out of range, as (type, text)."""
    tight = Budget(max_work=1)
    dag = cbn.dag
    wanted = tuple(desired[t] for t in targets)
    calls = [
        lambda: verify_lemma3(cbn, pool, desired, budget=tight),
        lambda: verify_sufficiency(cbn, pool, targets, desired, tight),
        lambda: verify_usm(dag, pool, targets, tight),
        lambda: verify_extremality(cbn, pool, targets, desired, tight),
        lambda: solve(ControlProblem(dag, pool, targets, wanted, Objective.MAX_MAX), cbn, tight),
        lambda: verify_lemma3(cbn, pool, {targets[0]: 2}),
    ]
    out = []
    for call in calls:
        with pytest.raises((BudgetExceededError, ValueError)) as info:
            call()
        out.append((type(info.value), str(info.value)))
    return out


def test_suites_on_one_dag_answer_and_refuse_as_on_a_fresh_one(monkeypatch):
    # x is dead, r0 and r1 are roots behind the drivers d0 and d1; one
    # parametrization is stochastic and one 0/1, which takes the atomic path
    dag = fan_dag(2, lead=("x",))
    pool, targets, desired = ("x", "d0", "d1"), ("o",), {"o": 1}
    rng = np.random.default_rng(31)
    stochastic = random_cbn(rng, dag)
    networks = (stochastic, deterministic_copy(stochastic, rng))
    assert not networks[0].deterministic and networks[1].deterministic
    expect = [
        (suite_refusals(fresh(cbn), pool, targets, desired), suite_answers(fresh(cbn), pool, targets, desired))
        for cbn in networks
    ]
    chains, grids = [], []
    chain, rows = Dag.backward_chain, oracle.simplex_grid_rows

    def chaining(self, start, stop):
        if self is dag:
            chains.append((tuple(start), tuple(stop)))
        return chain(self, start, stop)

    def gridding(card, step):
        grids.append((card, step))
        return rows(card, step)

    monkeypatch.setattr(Dag, "backward_chain", chaining)
    monkeypatch.setattr(oracle, "simplex_grid_rows", gridding)
    made = None
    for _ in range(2):
        for cbn, (refused, answered) in zip(networks, expect):
            # refused first, so that the stores a refused call fills are
            # the ones every answer reads
            assert suite_refusals(cbn, pool, targets, desired) == refused
            assert suite_answers(cbn, pool, targets, desired) == answered
            if made is None:
                made = list(chains), list(grids)
    # the first network's first round made every shape once; nothing since
    assert made[0] and len(set(made[0])) == len(made[0])
    assert made[1] == [(2, 0.25), (2, 0.25)]
    assert (chains, grids) == made


def outcome(call):
    """What ``call()`` returns, or its refusal as (type, text)."""
    try:
        return "answered", call()
    except (BudgetExceededError, KeyError, ValueError) as error:
        return type(error), str(error)


def assert_warm_as_cold(network, store, calls):
    """Each of ``calls``, a function of a network, answers or refuses on
    ``network``'s dag, warmed by every call before it, as on a fresh dag.
    A call refused by its shape keeps nothing under ``store`` on either
    dag, and every value the warm dag kept before it stays as it was.  An
    event value out of range is refused after the shape's checks passed,
    and the shape is kept."""
    dag = network.dag

    def keys(on):
        return {key for name, key in kept(on) if name == store}

    for call in calls:
        cold = fresh(network)
        expect = outcome(lambda: call(cold))
        before = kept(dag)
        got = outcome(lambda: call(network))
        assert got == expect
        if expect[0] != "answered" and "out of range" not in expect[1]:
            assert not keys(cold.dag) and keys(dag) == {key for name, key in before if name == store}
            now = kept(dag)
            assert all(now[key] is value for key, value in before.items())


def optimizer_answers(drivers):
    """Values in both directions and one witness per direction, at class 1
    and class inf, as comparable data."""

    def call(cbn):
        out = []
        for ip_class in (CLASS1, CLASS_INF):
            out.append(list(map(repr, optimal_values(cbn, drivers, ip_class, {"o": 1}, BOTH))))
            for direction in BOTH:
                value, pair = optimal_policy_value(cbn, drivers, ip_class, {"o": 1}, direction)
                out.append((repr(value), pair))
        return out

    return call


@pytest.mark.parametrize("deterministic", [False, True])
def test_drivers_as_given_answer_and_refuse_as_on_a_fresh_dag(deterministic):
    # x is dead; the same drivers as a list, reordered, repeated, with the
    # dead one, with an unknown name, and again after each of those
    rng = np.random.default_rng(33)
    cbn = random_cbn(rng, fan_dag(2, lead=("x",)))
    if deterministic:
        cbn = deterministic_copy(cbn, rng)
    given = [
        ["d0", "d1"], ("d1", "d0"), ("d0", "d1", "d0"), ("x", "d1"), ("d1", "zz"), ["zz"], ("x",), (),
        ("d0", "d1"), ["d1", "d0", "x"],
    ]
    calls = [optimizer_answers(drivers) for drivers in given]
    assert_warm_as_cold(cbn, "live", calls + calls)
    # one entry per drivers as given and event nodes, none for a refusal
    live = {key for name, key in kept(cbn.dag) if name == "live"}
    assert live == {(tuple(d), frozenset({"o"})) for d in given if "zz" not in d}


def test_suite_desired_values_refuse_on_a_warm_dag_as_on_a_fresh_one():
    # a bool, a negative number, a float and a missing target, before and
    # after the suites have kept their drivers for this pool and targets
    dag = fan_dag(2, lead=("x",))
    cbn = random_cbn(np.random.default_rng(34), dag)
    pool, targets = ("x", "d1", "d0"), ("o",)

    def suites(desired):
        def call(network):
            return [
                verify_sufficiency(network, pool, targets, desired),
                verify_extremality(network, list(pool), targets, desired),
            ]
        return call

    bad = [{"o": True}, {"o": -1}, {"o": 1.0}, {"m": 1}]
    calls = [suites(desired) for desired in bad] + [suites({"o": 1}), suites({"o": 0})]
    assert_warm_as_cold(cbn, "drivers", calls + calls)
    # the list and the tuple of one pool are one key
    assert [key for name, key in kept(dag) if name == "drivers"] == [(pool, targets)]


def test_pair_shapes_answer_and_refuse_as_on_a_fresh_dag():
    # good pairs, then tables of a wrong card, a wrong scope card, a scope
    # outside the ancestry and an unknown owner, each with several event
    # values, one of them out of range, which each call checks
    dag = fan_dag(2)
    cbn = random_cbn(np.random.default_rng(35), dag)
    tables = [
        Cpd.from_choices("d0", ("r0",), (2,), 2, (1, 0)),
        Cpd.from_choices("d1", (), (), 2, (1,)),
        Cpd.from_choices("d0", (), (), 3, (2,)),
        Cpd.from_choices("d0", ("r0",), (3,), 2, (1, 0, 1)),
        Cpd.from_choices("d0", ("o",), (2,), 2, (1, 0)),
        Cpd.from_choices("zz", (), (), 2, (0,)),
    ]
    pairs = [(0,), (0, 1), (1,), (2,), (1, 3), (4,), (5,), (), (1, 0)]

    def query(picks, event):
        pair = InterventionPair(InterventionPolicy(tables[i]) for i in picks)
        return lambda network: repr(interventional_prob(network, pair, event))

    events = ({"o": 1}, {"o": 0, "m": 1}, {"o": 2})
    calls = [query(picks, event) for picks in pairs for event in events]
    assert_warm_as_cold(cbn, "pairs", calls + calls)
    shapes = [key[1] for name, key in kept(dag) if name == "pairs"]
    assert sorted(len(shape) for shape in shapes) == [0, 1, 1, 2, 2]


def test_a_warm_optimizer_call_reads_each_derived_value_once(monkeypatch):
    # on a warm chain-path shape, a call reads its drivers and its plan,
    # which builds its own kernel, and a witness one first table per
    # driver: no store is read twice, and no other store at all
    dag, drivers, card = confounded_fan(3, 2)
    cbn = random_cbn(np.random.default_rng(41), dag, dict.fromkeys(dag.nodes, card))
    desired = {"o": 1}
    optimal_policy_value(cbn, drivers, CLASS_INF, desired, Direction.MAX)
    reads = []
    real = Dag.derived

    def recording(self, name, key, make):
        reads.append(name)
        return real(self, name, key, make)

    monkeypatch.setattr(Dag, "derived", recording)
    optimal_values(cbn, drivers, CLASS_INF, desired, BOTH)
    assert sorted(reads) == ["live", "search"]
    reads.clear()
    optimal_policy_value(cbn, drivers, CLASS_INF, desired, Direction.MIN)
    assert sorted(reads) == ["first tables"] * len(drivers) + ["live", "search"]


def test_the_readme_names_every_store_a_dag_holds(fixtures_dir):
    # solve, the four suites and one interventional_prob on xor_gate leave
    # on the dag exactly the stores the README lists, module by module
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    listed = text[text.index("Each store name"):text.index("A `Cbn` holds none of these stores")]
    names = re.findall(r'`"([^"`]+)"`', listed)
    spec = parse((fixtures_dir / "xor_gate.json").read_text(encoding="utf-8"))
    cbn, dag = spec.cbn, spec.dag
    wanted = tuple(spec.desired[t] for t in spec.targets)
    result = solve(ControlProblem(dag, spec.intervenable, spec.targets, wanted, Objective.MAX_MAX), cbn)
    suite_answers(cbn, spec.intervenable, spec.targets, spec.desired)
    interventional_prob(cbn, result.pair, spec.desired)
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(dag._derived)
