"""Property tests over random networks, drawn by hypothesis.

Networks have two to four nodes (three to six for the requisite-scope
and both-directions properties), binary and ternary, with rows that may put
zero or all of their mass on one value.  Half the optimizer searches use
`random_cbn` rows instead, and their last node is always a target.
Examples are derandomized, so every run checks the same ones, and capped so
the module stays quick.

The requisite-scope analysis runs only on `pruned_searches`: with at most
two drivers and 256 combinations, `searches` never leaves an enumerated
driver with a scope to cut.  `test_requisite.py` checks it on 60
numpy-seeded networks too, and asserts that it cuts scopes there.
"""

from math import prod

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cbnctrl import (  # noqa: E402
    Budget,
    BudgetExceededError,
    CLASS0,
    CLASS1,
    CLASS_INF,
    Cbn,
    Cpd,
    Dag,
    Direction,
    InterventionPair,
    InterventionPolicy,
    IpClass,
    NetworkSpec,
    interventional_prob,
    naive_policy_search,
    optimal_policy_value,
    optimal_values,
    parse,
    serialize,
)
from cbnctrl.intervention import scope_for_class  # noqa: E402
from cbnctrl.oracle import random_cbn  # noqa: E402

from test_requisite import constant_across, record_requisite  # noqa: E402

SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=60)


@st.composite
def rows(draw, card: int, count: int):
    """``count`` distributions over ``card`` values: one-hot, or integer
    weights (zeros allowed) normalised."""
    out = []
    for _ in range(count):
        if draw(st.booleans()):
            hot = draw(st.integers(0, card - 1))
            out.append(tuple(1.0 if v == hot else 0.0 for v in range(card)))
        else:
            weights = draw(st.lists(st.integers(0, 9), min_size=card, max_size=card))
            if not any(weights):
                weights[draw(st.integers(0, card - 1))] = 1
            out.append(tuple(w / sum(weights) for w in weights))
    return tuple(out)


@st.composite
def networks(draw, max_nodes: int = 4, min_nodes: int = 2) -> Cbn:
    n = draw(st.integers(min_nodes, max_nodes))
    names = [f"v{i}" for i in range(n)]
    edges = [(names[i], names[j]) for j in range(n) for i in range(j) if draw(st.booleans())]
    dag = Dag(names, edges)
    cards = {v: draw(st.sampled_from((2, 2, 3))) for v in names}
    cpds = {}
    for v in names:
        parents = dag.parents(v)
        parent_cards = tuple(cards[p] for p in parents)
        cpds[v] = Cpd(v, parents, parent_cards, draw(rows(cards[v], prod(parent_cards))))
    return Cbn(dag, cards, cpds)


@st.composite
def specs(draw) -> NetworkSpec:
    cbn = draw(networks())
    dag, cards = cbn.dag, cbn.cards
    intervenable = tuple(v for v in dag.nodes if draw(st.booleans()))
    targets = tuple(draw(st.lists(st.sampled_from(dag.nodes), min_size=1, max_size=2, unique=True)))
    desired = {t: draw(st.integers(0, cards[t] - 1)) for t in targets}
    policies = []
    for v in intervenable:
        if draw(st.booleans()):
            scope = tuple(a for a in dag.ancestors(v) if draw(st.booleans()))
            scope_cards = tuple(cards[s] for s in scope)
            table = Cpd(v, scope, scope_cards, draw(rows(cards[v], prod(scope_cards))))
            policies.append(InterventionPolicy(table))
    pair = InterventionPair(policies) if draw(st.booleans()) else None
    return NetworkSpec.from_cbn(cbn, intervenable, targets, desired, pair)


def generic_rows(draw, cbn: Cbn) -> Cbn:
    """``cbn``, or for half the draws the same structure with `random_cbn`
    rows, under which what a driver sees usually matters."""
    if draw(st.booleans()):
        return random_cbn(np.random.default_rng(draw(st.integers(0, 2 ** 16))), cbn.dag, cbn.cards)
    return cbn


@st.composite
def searches(draw, max_drivers: int = 2, max_combos: int | None = 256):
    """A network, drivers, a class, a desired event and a direction whose
    deterministic tables number at most ``max_combos`` (None: any)."""
    cbn = generic_rows(draw, draw(networks()))
    dag, cards = cbn.dag, cbn.cards
    drivers = tuple(
        draw(st.lists(st.sampled_from(dag.nodes), min_size=1, max_size=max_drivers, unique=True))
    )
    ip_class = draw(st.sampled_from((CLASS0, CLASS1, IpClass(2), CLASS_INF)))
    if max_combos is not None:
        combos = prod(
            cards[d] ** prod(cards[s] for s in scope_for_class(dag, d, ip_class)) for d in drivers
        )
        hypothesis.assume(combos <= max_combos)
    # the last node is always a target, so most drivers have one below them
    targets = [dag.nodes[-1]] + draw(st.lists(st.sampled_from(dag.nodes[:-1]), max_size=1))
    desired = {t: draw(st.integers(0, cards[t] - 1)) for t in targets}
    direction = draw(st.sampled_from((Direction.MAX, Direction.MIN)))
    return cbn, drivers, ip_class, desired, direction


@SETTINGS
@given(specs())
def test_serialize_then_parse_is_identity(spec):
    assert parse(serialize(spec)) == spec


@SETTINGS
@given(searches())
def test_optimizer_matches_naive_search(case):
    cbn, drivers, ip_class, desired, direction = case
    value, _ = optimal_policy_value(cbn, drivers, ip_class, desired, direction)
    naive, _ = naive_policy_search(cbn, drivers, ip_class, desired, direction)
    assert value == pytest.approx(naive, abs=1e-9)


@SETTINGS
@given(searches(max_drivers=3, max_combos=None))
def test_witness_replays_its_value(case):
    # up to three drivers, so nested scopes put some of them on a chain
    cbn, drivers, ip_class, desired, direction = case
    try:
        value, pair = optimal_policy_value(
            cbn, drivers, ip_class, desired, direction, Budget(max_work=200_000)
        )
    except BudgetExceededError:
        hypothesis.reject()
    assert interventional_prob(cbn, pair, desired) == pytest.approx(value, abs=1e-12)


@st.composite
def pruned_searches(draw):
    """3-6 node networks, 2-3 drivers, classes 1, 2 and inf, and both
    directions, with at most 1024 table combinations on the class scopes."""
    cbn = generic_rows(draw, draw(networks(max_nodes=6, min_nodes=3)))
    dag, cards = cbn.dag, cbn.cards
    # a root's scope is empty, so roots are drawn only when too few nodes
    # have parents
    scoped = [v for v in dag.nodes if dag.parents(v)]
    pool = scoped if len(scoped) >= 2 else dag.nodes
    drivers = tuple(draw(st.lists(st.sampled_from(pool), min_size=2, max_size=3, unique=True)))
    classes = [
        c for c in (CLASS1, IpClass(2), CLASS_INF)
        if prod(cards[d] ** prod(cards[s] for s in scope_for_class(dag, d, c)) for d in drivers) <= 1024
    ]
    hypothesis.assume(classes)
    ip_class = draw(st.sampled_from(classes))
    # the last node is always a target, so most drivers have one below them
    targets = [dag.nodes[-1]] + draw(st.lists(st.sampled_from(dag.nodes[:-1]), max_size=1))
    desired = {t: draw(st.integers(0, cards[t] - 1)) for t in targets}
    direction = draw(st.sampled_from((Direction.MAX, Direction.MIN)))
    return cbn, drivers, ip_class, desired, direction


@settings(SETTINGS, max_examples=100)
@given(pruned_searches())
def test_requisite_scopes_keep_the_optimum(case):
    # the search on requisite scopes against the literal one on class
    # scopes; each witness is printed on its class scope, constant across
    # the members the search dropped
    cbn, drivers, ip_class, desired, direction = case
    patch, seen = record_requisite()
    with patch:
        value, pair = optimal_policy_value(cbn, drivers, ip_class, desired, direction)
    naive, _ = naive_policy_search(cbn, drivers, ip_class, desired, direction)
    assert value == pytest.approx(naive, abs=1e-9)
    assert interventional_prob(cbn, pair, desired) == pytest.approx(value, abs=1e-12)
    scopes = {d: scope_for_class(cbn.dag, d, ip_class) for d in pair.targets}
    # a dead driver, one with no directed path to a desired node, is not
    # searched, so it keeps no scope member
    upstream = set(desired).union(*map(cbn.dag.ancestors, desired))
    kept = {d: (seen[0] if seen else scopes)[d] if d in upstream else () for d in scopes}
    hypothesis.event(f"scope members dropped: {kept != scopes}")
    if cbn.deterministic:
        return  # the fast path's witnesses are atomic
    for d, scope in scopes.items():
        assert pair.policy(d).scope == scope
        assert constant_across(pair, d, [s for s in scope if s not in kept[d]])


@settings(SETTINGS, max_examples=100)
@given(pruned_searches())
def test_both_directions_match_single_calls(case):
    # one plan for MAX and MIN gives each direction's value exactly as a
    # call for that direction alone does, and that call's witness replays it
    cbn, drivers, ip_class, desired, _ = case
    directions = (Direction.MAX, Direction.MIN)
    values = optimal_values(cbn, drivers, ip_class, desired, directions)
    for direction, value in zip(directions, values):
        alone, pair = optimal_policy_value(cbn, drivers, ip_class, desired, direction)
        assert repr(value) == repr(alone)
        assert interventional_prob(cbn, pair, desired) == pytest.approx(value, abs=1e-12)
