"""Driver identification, exact policy optimization, objectives, budgets.

The optimizer has three internal strategies (deterministic-network fast
path, chained tensor reductions, literal table enumeration); every test
that touches it cross-checks against `naive_policy_search`, which reaches
the answer by asking `interventional_prob` for every table combination.
"""

import re
import time
from itertools import product
from math import prod

import numpy as np
import pytest

import cbnctrl.control as control
from cbnctrl import (
    Budget,
    BudgetExceededError,
    CLASS0,
    CLASS1,
    CLASS_INF,
    Cbn,
    ControlProblem,
    Cpd,
    Dag,
    Direction,
    InterventionPair,
    IpClass,
    Objective,
    Provenance,
    atomic_policy,
    c_star,
    interventional_prob,
    naive_policy_search,
    optimal_policy_value,
    optimal_values,
    solve,
    usm_adversarial_cbn,
)
from cbnctrl.control import CHUNK_ELEMENTS, _gather, _pick_chain
from cbnctrl.intervention import scope_for_class
from cbnctrl.graph import INF
from cbnctrl.oracle import (
    BOTH,
    iter_subsets,
    random_cbn,
    random_dag,
    random_problem,
    verify_lemma3,
    verify_sufficiency,
)

from test_cbn import xor_gate
from test_graph import junction


def screening_chain():
    # y1 screens y2 off from the target once y1 is set by policy
    dag = Dag(["y2", "y1", "o"], [("y2", "y1"), ("y1", "o")])
    cpds = {
        "y2": Cpd("y2", (), (), ((0.4, 0.6),)),
        "y1": Cpd("y1", ("y2",), (2,), ((0.8, 0.2), (0.25, 0.75))),
        "o": Cpd("o", ("y1",), (2,), ((0.9, 0.1), (0.3, 0.7))),
    }
    return Cbn(dag, {"y2": 2, "y1": 2, "o": 2}, cpds)


def joint_calls(monkeypatch):
    """Record the arguments of every contraction `Cbn.joint` runs, and of
    every one the optimizer runs after its own `Cbn.check_joint`: each
    builds a tensor."""
    calls = []
    contract = Cbn._contract

    def recording(self, *args, **kwargs):
        calls.append((args, kwargs))
        return contract(self, *args, **kwargs)

    monkeypatch.setattr(Cbn, "_contract", recording)
    return calls


class TestProblem:
    def test_targets_required(self):
        with pytest.raises(ValueError):
            ControlProblem(junction(), ("t3",), (), ())

    def test_desired_must_align(self):
        with pytest.raises(ValueError):
            ControlProblem(junction(), ("t3",), ("o",), (1, 0))

    def test_duplicate_targets_rejected(self):
        with pytest.raises(ValueError):
            ControlProblem(junction(), (), ("o", "o"), (1, 1))

    def test_desired_values_must_be_integers(self):
        # a value index is never truncated: 1.7 must not become 1
        for value in (1.7, 1.0, True):
            with pytest.raises(ValueError, match="value .* for 'o' must be an integer"):
                ControlProblem(junction(), ("t3",), ("o",), (value,))
        problem = ControlProblem(junction(), ("t3",), ("o",), (np.int64(1),))
        assert problem.desired == (1,) and type(problem.desired[0]) is int

    def test_desired_map(self):
        problem = ControlProblem(junction(), ("t3",), ("o",), (1,))
        assert problem.desired_map == {"o": 1}

    def test_repeated_intervenable_and_negative_desired_rejected(self):
        with pytest.raises(ValueError, match="^duplicate intervenable node$"):
            ControlProblem(junction(), ("t3", "t4", "t3"), ("o",), (1,))
        with pytest.raises(ValueError, match="^desired value for 'o' must be non-negative$"):
            ControlProblem(junction(), ("t3",), ("o",), (-1,))


class TestCStar:
    def test_junction(self):
        problem = ControlProblem(junction(), ("t3", "t4"), ("o",), (1,))
        ds = c_star(problem)
        assert ds.members == ("t3", "t4")
        assert ds.provenance is Provenance.C_STAR

    def test_screening_chain(self):
        cbn = screening_chain()
        problem = ControlProblem(cbn.dag, ("y1", "y2"), ("o",), (1,))
        assert c_star(problem).members == ("y1",)

    def test_intervenable_target_terminates_at_itself(self):
        dag = Dag(["a", "o"], [("a", "o")])
        problem = ControlProblem(dag, ("a", "o"), ("o",), (1,))
        assert c_star(problem).members == ("o",)


class TestGateValues:
    def test_atomic_best_is_the_marginal_vertex(self):
        cbn = xor_gate()
        value, pair = optimal_policy_value(cbn, ("y",), CLASS0, {"o": 1}, Direction.MAX)
        assert value == pytest.approx(0.7, abs=1e-9)
        assert pair.policy("y").table.rows == ((1.0, 0.0),)

    def test_parent_scope_restores_certainty(self):
        cbn = xor_gate()
        value, pair = optimal_policy_value(cbn, ("y",), CLASS1, {"o": 1}, Direction.MAX)
        assert value == pytest.approx(1.0, abs=1e-9)
        assert pair.policy("y").scope == ("x",)
        assert pair.policy("y").table.rows == ((0.0, 1.0), (1.0, 0.0))
        assert interventional_prob(cbn, pair, {"o": 1}) == pytest.approx(value, abs=1e-12)

    def test_min_direction(self):
        cbn = xor_gate()
        value, pair = optimal_policy_value(cbn, ("y",), CLASS1, {"o": 1}, Direction.MIN)
        assert value == pytest.approx(0.0, abs=1e-9)
        assert interventional_prob(cbn, pair, {"o": 1}) == pytest.approx(0.0, abs=1e-12)


class TestOptimizerAgainstNaive:
    def test_random_instances_all_classes_and_directions(self):
        rng = np.random.default_rng(8821)
        checked = 0
        for _ in range(40):
            cbn, intervenable, targets, desired = random_problem(rng, int(rng.integers(2, 6)))
            if not intervenable:
                continue
            drivers = intervenable[: int(rng.integers(1, len(intervenable) + 1))]
            for ip_class in (CLASS0, CLASS1, IpClass(2), CLASS_INF):
                for direction in (Direction.MAX, Direction.MIN):
                    try:
                        expect, _ = naive_policy_search(
                            cbn, drivers, ip_class, desired, direction, max_combos=4096
                        )
                    except ValueError:
                        continue
                    got, pair = optimal_policy_value(cbn, drivers, ip_class, desired, direction)
                    assert got == pytest.approx(expect, abs=1e-9)
                    replay = interventional_prob(cbn, pair, desired)
                    assert replay == pytest.approx(got, abs=1e-9)
                    checked += 1
        assert checked >= 100

    def test_ternary_cardinalities(self):
        rng = np.random.default_rng(300)
        for _ in range(6):
            dag = random_dag(rng, 3)
            cbn = random_cbn(rng, dag, card=3)
            drivers = (dag.nodes[0],)
            desired = {dag.nodes[-1]: 2}
            for direction in (Direction.MAX, Direction.MIN):
                expect, _ = naive_policy_search(cbn, drivers, CLASS_INF, desired, direction)
                got, _ = optimal_policy_value(cbn, drivers, CLASS_INF, desired, direction)
                assert got == pytest.approx(expect, abs=1e-9)

    def test_incomparable_scopes_force_mixed_strategy(self):
        # two drivers whose scopes share a root but do not nest
        dag = Dag(["a", "d1", "d2", "o"], [("a", "d1"), ("a", "d2"), ("d1", "o"), ("d2", "o")])
        rng = np.random.default_rng(17)
        for _ in range(8):
            cbn = random_cbn(rng, dag)
            desired = {"o": 1}
            for direction in (Direction.MAX, Direction.MIN):
                expect, _ = naive_policy_search(cbn, ("d1", "d2"), CLASS_INF, desired, direction)
                got, pair = optimal_policy_value(cbn, ("d1", "d2"), CLASS_INF, desired, direction)
                assert got == pytest.approx(expect, abs=1e-9)
                assert interventional_prob(cbn, pair, desired) == pytest.approx(got, abs=1e-9)

    def test_deterministic_networks_take_the_fast_path(self):
        rng = np.random.default_rng(92)
        for _ in range(10):
            dag = random_dag(rng, int(rng.integers(3, 6)))
            soft = random_cbn(rng, dag)
            cpds = {}
            for name in dag.nodes:
                cpd = soft.cpd(name)
                rows = tuple(
                    tuple(1.0 if i == int(np.argmax(row)) else 0.0 for i in range(len(row)))
                    for row in cpd.rows
                )
                cpds[name] = Cpd(name, cpd.parents, cpd.parent_cards, rows)
            hard = Cbn(dag, soft.cards, cpds)
            drivers = tuple(n for n in dag.nodes[:-1] if rng.random() < 0.5)
            desired = {dag.nodes[-1]: 1}
            for direction in (Direction.MAX, Direction.MIN):
                expect, _ = naive_policy_search(hard, drivers, CLASS_INF, desired, direction, max_combos=4096)
                got, pair = optimal_policy_value(hard, drivers, CLASS_INF, desired, direction)
                assert got == pytest.approx(expect, abs=1e-12)
                assert interventional_prob(hard, pair, desired) == pytest.approx(got, abs=1e-12)

    def test_witness_is_stable_across_runs(self):
        cbn = screening_chain()
        first = optimal_policy_value(cbn, ("y1", "y2"), CLASS_INF, {"o": 1}, Direction.MAX)
        second = optimal_policy_value(cbn, ("y1", "y2"), CLASS_INF, {"o": 1}, Direction.MAX)
        assert first[0] == second[0]
        assert first[1] == second[1]

    def test_class_ladder_is_monotone(self):
        # enlarging the scope class can only help the optimizer
        rng = np.random.default_rng(515)
        for _ in range(10):
            cbn, intervenable, targets, desired = random_problem(rng, 4)
            if not intervenable:
                continue
            drivers = intervenable[:2]
            maxes = []
            mins = []
            for ip_class in (CLASS0, CLASS1, IpClass(2), CLASS_INF):
                hi, _ = optimal_policy_value(cbn, drivers, ip_class, desired, Direction.MAX)
                lo, _ = optimal_policy_value(cbn, drivers, ip_class, desired, Direction.MIN)
                maxes.append(hi)
                mins.append(lo)
            for earlier, later in zip(maxes, maxes[1:]):
                assert later >= earlier - 1e-9
            for earlier, later in zip(mins, mins[1:]):
                assert later <= earlier + 1e-9


def scan_chain(drivers, scope_sets, table_counts, dag):
    """Reference split: scan all 2^k driver subsets for the valid chain with
    the fewest enumerated table combinations, then the longest, then the
    smallest bitmask."""
    k = len(drivers)
    best_key = None
    best_chain = []
    for mask in range(1 << k):
        cand = [drivers[i] for i in range(k) if mask >> i & 1]
        cand.sort(key=lambda d: (len(scope_sets[d]), dag.index(d)))
        if any(not (scope_sets[a] | {a}) <= scope_sets[b] for a, b in zip(cand, cand[1:])):
            continue
        outer = 1
        for e in drivers:
            if e not in cand:
                outer *= table_counts[e]
        key = (outer, k - len(cand), mask)
        if best_key is None or key < best_key:
            best_key, best_chain = key, cand
    return best_chain, [d for d in drivers if d not in best_chain]


class TestChainSplit:
    def test_dp_matches_subset_scan(self):
        rng = np.random.default_rng(2718)
        checked = 0
        for _ in range(300):
            dag = random_dag(rng, int(rng.integers(2, 12)), float(rng.uniform(0.2, 0.8)))
            cards = {n: int(rng.choice([2, 2, 3])) for n in dag.nodes}
            k = int(rng.integers(1, min(9, len(dag.nodes)) + 1))
            picked = sorted(rng.choice(len(dag.nodes), size=k, replace=False))
            drivers = tuple(dag.nodes[i] for i in picked)
            for ip_class in (CLASS0, CLASS1, IpClass(2), CLASS_INF):
                scope_sets, table_counts = {}, {}
                for d in drivers:
                    scope = scope_for_class(dag, d, ip_class)
                    scope_sets[d] = frozenset(scope)
                    cells = int(np.prod([cards[s] for s in scope]))
                    table_counts[d] = cards[d] ** cells
                got = _pick_chain(drivers, scope_sets, table_counts, dag)
                assert got == scan_chain(drivers, scope_sets, table_counts, dag)
                checked += 1
        assert checked == 1200

    def test_thirteen_nested_drivers_solve(self):
        # drivers d0..d12 in a chain, each a parent of o: the whole driver
        # set nests, so every driver is chained and no table is enumerated
        drivers = tuple(f"d{i}" for i in range(13))
        edges = list(zip(drivers, drivers[1:])) + [(d, "o") for d in drivers]
        dag = Dag(drivers + ("o",), edges)
        cbn = random_cbn(np.random.default_rng(13), dag)
        problem = ControlProblem(dag, drivers, ("o",), (1,), Objective.MAX_MAX)
        result = solve(problem, cbn)
        assert result.drivers.members == drivers
        assert result.value == pytest.approx(max(row[1] for row in cbn.cpd("o").rows), abs=1e-12)
        replay = interventional_prob(cbn, result.pair, {"o": 1})
        assert replay == pytest.approx(result.value, abs=1e-12)


def fan_dag(k, lead=()):
    """Drivers d_i, each below a private root r_i, all feeding m above the
    target o: the class-inf scopes are incomparable, so all drivers but one
    have their tables enumerated.  Each root also feeds m, so it can move
    the target past its driver and stays in the searched scope.  ``lead``
    nodes come first, unconnected."""
    nodes, edges = list(lead), []
    for i in range(k):
        nodes += [f"r{i}", f"d{i}"]
        edges += [(f"r{i}", f"d{i}"), (f"d{i}", "m"), (f"r{i}", "m")]
    return Dag(nodes + ["m", "o"], edges + [("m", "o")])


def deterministic_copy(cbn, rng):
    cpds = {}
    for name in cbn.dag.nodes:
        cpd = cbn.cpd(name)
        rows = tuple(
            tuple(1.0 if i == hot else 0.0 for i in range(cpd.card))
            for hot in rng.integers(0, cpd.card, len(cpd.rows))
        )
        cpds[name] = Cpd(name, cpd.parents, cpd.parent_cards, rows)
    return Cbn(cbn.dag, cbn.cards, cpds)


def scan_atomic(cbn, drivers, desired, direction):
    """Reference for deterministic networks: every vector of forced driver
    values in product order, read off the joint without the drivers' CPDs,
    first strict improvement kept."""
    base = cbn.joint(desired, skip=drivers)
    axes = [cbn.dag.index(d) for d in drivers]
    best = None
    for vector in product(*(range(cbn.cards[d]) for d in drivers)):
        idx = [slice(None)] * base.ndim
        for axis, v in zip(axes, vector):
            idx[axis] = v
        value = float(base[tuple(idx)].sum())
        if best is None or (value > best[0] if direction is Direction.MAX else value < best[0]):
            best = (value, vector)
    return best


class TestBatchedSearch:
    def test_combinations_spanning_chunks_match_naive(self):
        # four enumerated drivers of four tables each, over a 2^10 block of
        # driver and scope axes: 256 combinations fill at least three chunks
        assert 4 ** 4 * 2 ** 10 >= 3 * CHUNK_ELEMENTS
        dag = fan_dag(5)
        drivers = tuple(f"d{i}" for i in range(5))
        cbn = random_cbn(np.random.default_rng(55), dag)
        for direction in (Direction.MAX, Direction.MIN):
            expect, _ = naive_policy_search(cbn, drivers, CLASS_INF, {"o": 1}, direction)
            got, pair = optimal_policy_value(cbn, drivers, CLASS_INF, {"o": 1}, direction)
            assert abs(got - expect) <= 1e-12
            assert interventional_prob(cbn, pair, {"o": 1}) == pytest.approx(got, abs=1e-12)

    def test_tied_tables_keep_the_first_within_and_across_chunks(self):
        # z has no children and is no target, so both of its tables tie
        # exactly.  It is the first driver: with two fan drivers all
        # combinations share one chunk, with five its second table is only
        # reached in later chunks.  Neither may replace the first table.
        for k, seed in ((2, 56), (5, 57)):
            dag = fan_dag(k, lead=("z",))
            drivers = ("z",) + tuple(f"d{i}" for i in range(k))
            cbn = random_cbn(np.random.default_rng(seed), dag)
            for direction in (Direction.MAX, Direction.MIN):
                value, pair = optimal_policy_value(cbn, drivers, CLASS_INF, {"o": 1}, direction)
                assert pair.policy("z").table.rows == ((1.0, 0.0),)
                without_z, _ = optimal_policy_value(cbn, drivers[1:], CLASS_INF, {"o": 1}, direction)
                assert abs(value - without_z) <= 1e-12

    def test_enumerated_driver_keeps_choice_zero_where_it_cannot_move_the_target(self):
        # d's scope {a} and e's scope {g} are incomparable and d has more
        # tables, so d is chained and e enumerated.  o ignores e when g is 0
        # or 2, so there both choices of e tie exactly, as long as e's axis
        # is summed on its own; the witness must keep choice 0 there.
        dag = Dag(["a", "g", "d", "e", "o"], [("a", "d"), ("g", "e"), ("g", "o"), ("e", "o"), ("d", "o")])
        cards = {"a": 4, "g": 3, "d": 2, "e": 2, "o": 2}
        scopes = {"d": frozenset("a"), "e": frozenset("g")}
        assert _pick_chain(("d", "e"), scopes, {"d": 16, "e": 8}, dag) == (["d"], ["e"])
        for seed in range(20):
            rng = np.random.default_rng(seed)
            cbn = random_cbn(rng, dag, cards)
            raw = rng.uniform(0.05, 1.0, (12, 2))
            rows = raw / raw.sum(axis=1, keepdims=True)  # over (g, e, d), d fastest
            tied = tuple(tuple(rows[4 * g + 2 * (e if g == 1 else 0) + d])
                         for g, e, d in product(range(3), range(2), range(2)))
            cpds = dict(cbn.cpds, o=Cpd("o", ("g", "e", "d"), (3, 2, 2), tied))
            cbn = Cbn(dag, cards, cpds)
            for direction in (Direction.MAX, Direction.MIN):
                _, pair = optimal_policy_value(cbn, ("d", "e"), CLASS1, {"o": 1}, direction)
                rows_e = pair.policy("e").table.rows
                assert rows_e[0] == rows_e[2] == (1.0, 0.0), (seed, direction)

    def test_deterministic_path_matches_a_product_scan(self):
        drivers = tuple(f"d{i}" for i in range(10))
        edges = [("u", "d0"), ("u", "o")] + list(zip(drivers, drivers[1:]))
        dag = Dag(("u",) + drivers + ("o",), edges + [(d, "o") for d in drivers])
        rng = np.random.default_rng(1010)
        for _ in range(4):
            cbn = deterministic_copy(random_cbn(rng, dag), rng)
            for direction in (Direction.MAX, Direction.MIN):
                value, pair = optimal_policy_value(cbn, drivers, CLASS_INF, {"o": 1}, direction)
                vector = tuple(pair.policy(d).table.rows[0].index(1.0) for d in drivers)
                assert (value, vector) == scan_atomic(cbn, drivers, {"o": 1}, direction)
                assert interventional_prob(cbn, pair, {"o": 1}) == value


def argmax_chain_choices(plan, base, direction):
    """The reference for chain witnesses: each chain driver's choices by
    `Direction.arg` over its axis, transposed from the axes left to its
    class scope and flattened, with `Direction.pairwise` reducing between
    drivers.
    ``base`` is the tensor of a plan that enumerates no driver.  Each chain
    driver's gather must take the choices to that same order."""
    t = base[None]
    tables = {}
    pos = 0
    for width, kind in plan.segments:
        pos += width
        if kind is None:
            # a summed run holds no driver of this plan, which enumerates none
            assert not set(plan.axes[pos - width:pos]) & set(plan.gathers)
            t = t.sum(axis=tuple(range(1, 1 + width)))
            continue
        left = plan.axes[pos:]
        picks = direction.arg(t, axis=1)[0]
        choice = np.transpose(picks, [left.index(s) for s in plan.scopes[kind]]).reshape(-1)
        assert np.array_equal(picks.reshape(-1)[plan.gathers[kind]], choice), kind
        tables[kind] = tuple(choice.tolist())
        t = direction.pairwise.reduce(t, axis=1)
    return tables


class TestGather:
    def test_gather_is_a_transpose_and_broadcast(self):
        # the layouts of a chain driver (its scope reversed) and of an
        # enumerated one (a subset in scope order, dropping the first, a
        # middle or the last member, or all of them)
        rng = np.random.default_rng(2323)
        scope = ("a", "b", "c", "d")
        layouts = (scope[::-1], scope[1:], ("a", "b", "d"), scope[:-1], ())
        for _ in range(10):
            cards = {s: int(rng.choice((2, 3))) for s in scope}
            for layout in layouts:
                row = rng.integers(0, 3, size=prod(cards[s] for s in layout))
                kept = [s for s in scope if s in layout]
                moved = np.transpose(row.reshape([cards[s] for s in layout]), [layout.index(s) for s in kept])
                shape = [cards[s] if s in layout else 1 for s in scope]
                expect = np.broadcast_to(moved.reshape(shape), [cards[s] for s in scope]).reshape(-1)
                gather = _gather(cards, scope, layout)
                assert not gather.flags.writeable
                assert np.array_equal(row[gather], expect), (cards, layout)


def nested_chain(rng, cards, zero_root=False, tie_last=False):
    """(network, drivers) for a nest: u feeds d0 and o, d0 -> d1 -> ...,
    and every driver feeds o, so the class-inf scopes nest and every
    driver is chained.  With ``zero_root`` u's last value has probability
    0, so every scope configuration holding it ties at 0; with
    ``tie_last`` o's rows for the last driver's values 1 and 2 are
    equal."""
    drivers = tuple(n for n in cards if n.startswith("d"))
    edges = [("u", "d0"), ("u", "o")] + list(zip(drivers, drivers[1:])) + [(d, "o") for d in drivers]
    dag = Dag(["u", *drivers, "o"], edges)
    cpds = dict(random_cbn(rng, dag, cards).cpds)
    if zero_root:
        raw = rng.uniform(0.05, 1.0, cards["u"])
        raw[-1] = 0.0
        cpds["u"] = Cpd("u", (), (), (tuple(raw / raw.sum()),))
    if tie_last:
        parents = dag.parents("o")
        shape = tuple(cards[p] for p in parents)
        raw = rng.uniform(0.05, 1.0, (*shape, cards["o"]))
        rows = np.moveaxis(raw / raw.sum(axis=-1, keepdims=True), parents.index(drivers[-1]), 0)
        rows[2] = rows[1]
        rows = np.moveaxis(rows, 0, parents.index(drivers[-1])).reshape(-1, cards["o"])
        cpds["o"] = Cpd("o", parents, shape, tuple(map(tuple, rows)))
    return Cbn(dag, cards, cpds), drivers


class TestChainWitness:
    """Chain witnesses must equal `argmax_chain_choices`, first optimum
    and all, in both directions."""

    def check(self, cbn, drivers, desired):
        chosen = {}
        for direction in BOTH:
            _, pair = optimal_policy_value(cbn, drivers, CLASS_INF, desired, direction)
            plan = cbn._search_plans[(drivers, CLASS_INF, frozenset(desired))]
            # every driver is chained, none enumerated
            assert not plan.searched
            assert sorted(kind for _, kind in plan.segments if kind) == sorted(drivers)
            base = cbn.joint(desired, skip=drivers, keep=plan.axes)
            got = {p.target: tuple(row.index(1.0) for row in p.table.rows) for p in pair.policies}
            assert got == argmax_chain_choices(plan, base, direction), direction
            chosen[direction] = got
        return chosen

    def test_seeded_nests_with_cards_two_and_three(self):
        rng = np.random.default_rng(1818)
        for _ in range(30):
            k = int(rng.integers(1, 6))
            names = ["u", *(f"d{i}" for i in range(k)), "o"]
            cards = {n: int(rng.choice((2, 3))) for n in names}
            cbn, drivers = nested_chain(rng, cards)
            self.check(cbn, drivers, {"o": int(rng.integers(cards["o"]))})

    def test_zero_probability_configurations_keep_choice_zero(self):
        rng = np.random.default_rng(1819)
        for card in (2, 3):
            cards = {n: card for n in ("u", "d0", "d1", "d2", "o")}
            cbn, drivers = nested_chain(rng, cards, zero_root=True)
            for got in self.check(cbn, drivers, {"o": 1}).values():
                for d in drivers:
                    # u leads each scope, so its last value holds the last block
                    block = len(got[d]) // card
                    assert got[d][-block:] == (0,) * block, d

    def test_a_ternary_driver_tied_on_two_values_keeps_the_first(self):
        rng = np.random.default_rng(1820)
        seen = set()
        for _ in range(6):
            cards = {"u": 2, "d0": 2, "d1": 3, "o": 2}
            cbn, drivers = nested_chain(rng, cards, tie_last=True)
            for got in self.check(cbn, drivers, {"o": 1}).values():
                assert 2 not in got["d1"]
                seen.update(got["d1"])
        assert seen == {0, 1}

    def test_nest12(self):
        # the largest nest of the benchmark ladder: 14 binary nodes, 2^14
        # states, twelve chained drivers
        rng = np.random.default_rng(1821)
        cards = {n: 2 for n in ("u", *(f"d{i}" for i in range(12)), "o")}
        for zero_root in (False, True):
            cbn, drivers = nested_chain(rng, cards, zero_root=zero_root)
            self.check(cbn, drivers, {"o": 1})


def rebuilt_witness(cbn, plan, base, direction, number):
    """The witness stage as it was built before the scan kept records, as
    choice tuples per driver: the winner's tensor rebuilt with
    `policy_batch`, then reduced once more by the recording sweep."""
    cards = cbn.cards
    axes, scopes, searched = plan.axes, plan.scopes, plan.searched
    best = np.array([number])
    batch, picks = control.policy_batch(cbn, base, axes, searched, best)
    tables = {}
    for (e, searched_scope, _), digits in zip(searched, picks):
        shape = [cards[s] if s in searched_scope else 1 for s in scopes[e]]
        scope_cards = [cards[s] for s in scopes[e]]
        tables[e] = np.broadcast_to(digits[0].reshape(shape), scope_cards).reshape(-1)
    t = batch
    for width, kind in plan.segments:
        if kind is None:
            t = t.sum(axis=tuple(range(1, 1 + width)))
        else:
            rows = t.reshape(len(t), t.shape[1], -1)
            best, picks = rows[:, 0], np.zeros((len(t), rows.shape[2]), dtype=np.intp)
            for value in range(1, t.shape[1]):
                picks[direction.improves(rows[:, value], best)] = value
                best = direction.pairwise(best, rows[:, value])
            tables[kind] = picks[0][plan.gathers[kind]]
            t = best.reshape(t.shape[:1] + t.shape[2:])
    return {d: tuple(choices.tolist()) for d, choices in tables.items()}


def scan_log(monkeypatch):
    """Log, in order, each `control.policy_batch` call as ``("batch",)``
    and each `control.scan_combinations` call as ``("scan", args,
    optima)``, once it returns."""
    events = []
    batch, scan = control.policy_batch, control.scan_combinations

    def logged_batch(*args):
        events.append(("batch",))
        return batch(*args)

    def logged_scan(*args):
        optima = scan(*args)
        events.append(("scan", args, optima))
        return optima

    monkeypatch.setattr(control, "policy_batch", logged_batch)
    monkeypatch.setattr(control, "scan_combinations", logged_scan)
    return events


class TestScanWitness:
    """The scan keeps the winner's record, so the witness needs no second
    batch: it must equal `rebuilt_witness`, first optimum and all."""

    def witness(self, monkeypatch, cbn, drivers, desired, direction):
        """The witness as choice tuples, with the winner's number and the
        scan's chunk count, once it is checked against `rebuilt_witness`
        and no batch followed the scan."""
        events = scan_log(monkeypatch)
        value, pair = optimal_policy_value(cbn, drivers, CLASS_INF, desired, direction)
        assert [e[0] for e in events].count("scan") == 1
        assert events[-1][0] == "scan", "a batch was built after the scan"
        (total, size, _, _), optima = events[-1][1], events[-1][2]
        number = optima[0][1]
        monkeypatch.undo()
        plan = cbn._search_plans[(drivers, CLASS_INF, frozenset(desired))]
        base = cbn.joint(desired, skip=drivers, keep=plan.axes)
        got = {p.target: tuple(row.index(1.0) for row in p.table.rows) for p in pair.policies}
        assert got == rebuilt_witness(cbn, plan, base, direction, number), direction
        assert interventional_prob(cbn, pair, desired) == pytest.approx(value, abs=1e-12)
        step = max(1, CHUNK_ELEMENTS // size)
        return got, number, -(-total // step), step

    def test_fans_spanning_chunks_with_an_early_winner(self, monkeypatch):
        # four binary fan drivers of 4 tables each are enumerated over a
        # 2^10 base, eight chunks; two ternary ones of 27 tables each over
        # a 3^6 base, seventeen chunks
        early = 0
        for k, card, seeds in ((5, 2, range(60, 66)), (3, 3, range(70, 74))):
            dag = fan_dag(k)
            drivers = tuple(f"d{i}" for i in range(k))
            for seed in seeds:
                cbn = random_cbn(np.random.default_rng(seed), dag, dict.fromkeys(dag.nodes, card))
                for direction in BOTH:
                    _, number, chunks, step = self.witness(monkeypatch, cbn, drivers, {"o": 1}, direction)
                    assert chunks >= 3
                    early += number < (chunks - 1) * step
        assert early >= 10

    def test_all_tie_networks_keep_combination_zero(self, monkeypatch):
        # m is always 0 and o ignores m, so every table combination gives
        # the same value exactly; the first, all choices 0, must win
        for k, card in ((5, 2), (3, 3)):
            dag = fan_dag(k)
            drivers = tuple(f"d{i}" for i in range(k))
            cbn = random_cbn(np.random.default_rng(k), dag, dict.fromkeys(dag.nodes, card))
            m, o = cbn.cpd("m"), cbn.cpd("o")
            cpds = dict(
                cbn.cpds,
                m=Cpd.from_choices("m", m.parents, m.parent_cards, card, (0,) * len(m.rows)),
                o=Cpd("o", o.parents, o.parent_cards, (o.rows[0],) * len(o.rows)),
            )
            cbn = Cbn(dag, cbn.cards, cpds)
            assert not cbn.deterministic
            for direction in BOTH:
                got, number, chunks, _ = self.witness(monkeypatch, cbn, drivers, {"o": 1}, direction)
                assert chunks >= 3 and number == 0
                assert all(set(choices) == {0} for choices in got.values())


class TestEdgeCases:
    def test_no_drivers_returns_baseline(self):
        cbn = xor_gate()
        value, pair = optimal_policy_value(cbn, (), CLASS_INF, {"o": 1}, Direction.MAX)
        assert value == cbn.marginal_prob({"o": 1})
        assert len(pair) == 0

    def test_no_drivers_is_one_contraction_under_any_work_cap(self):
        # the empty choice is the one combination; the state cap still holds
        cbn = screening_chain()
        baseline = cbn.marginal_prob({"o": 1})
        values = optimal_values(cbn, (), CLASS_INF, {"o": 1}, BOTH, Budget(max_work=1))
        assert values == [baseline, baseline]
        with pytest.raises(BudgetExceededError, match="state space of 8 configurations"):
            optimal_values(cbn, (), CLASS_INF, {"o": 1}, BOTH, Budget(max_state_space=1))

    def test_empty_desired_rejected(self):
        with pytest.raises(ValueError):
            optimal_policy_value(xor_gate(), ("y",), CLASS0, {}, Direction.MAX)

    def test_unknown_driver_rejected(self):
        with pytest.raises(ValueError):
            optimal_policy_value(xor_gate(), ("zz",), CLASS0, {"o": 1}, Direction.MAX)

    def test_bool_and_float_desired_rejected(self):
        # read as a mask, a bool would drop the event and MIN would give 1.0
        cbn = screening_chain()
        for value in (True, 1.0):
            for direction in (Direction.MAX, Direction.MIN):
                with pytest.raises(ValueError, match="'o'"):
                    optimal_policy_value(cbn, ("y1",), CLASS1, {"o": value}, direction)

    def test_direction_type_checked(self):
        with pytest.raises(ValueError):
            optimal_policy_value(xor_gate(), ("y",), CLASS0, {"o": 1}, "max")

    def test_ip_class_type_checked(self):
        # an int once failed inside scope_for_class with AttributeError; it
        # is refused before any work, with or without drivers
        for drivers in (("y1",), ()):
            for ip_class in (1, "inf", None):
                with pytest.raises(ValueError, match="ip_class must be an IpClass"):
                    optimal_policy_value(screening_chain(), drivers, ip_class, {"o": 1}, Direction.MAX)


def dead_fan(rng, k=5):
    """k roots p_i, each a parent of t, x and y, with random rows: with
    t = 1 desired, x and y have no directed path to it.  Each has 2^(2^k)
    class-inf tables."""
    roots = [f"p{i}" for i in range(k)]
    dag = Dag([*roots, "t", "x", "y"], [(p, c) for p in roots for c in ("t", "x", "y")])
    return random_cbn(rng, dag)


def live_and_dead(rng):
    """A root r feeding d, o and x, and d feeding o, with x feeding z only:
    with o = 1 desired, d is live and x is dead, and x comes first in
    canonical order."""
    dag = Dag(["r", "x", "d", "o", "z"], [("r", "x"), ("r", "d"), ("r", "o"), ("d", "o"), ("x", "z")])
    return random_cbn(rng, dag, {"r": 3, "x": 2, "d": 3, "o": 2, "z": 2})


class TestDeadDrivers:
    def test_dead_drivers_answer_the_baseline_at_the_default_budget(self, monkeypatch):
        # searching x and y at class inf once enumerated one's 2^32 tables,
        # the other chained, over 2^8 states: refused at 2^40
        cbn = dead_fan(np.random.default_rng(5))
        baseline = cbn.marginal_prob({"t": 1})
        for level in (1, 2, INF):
            assert optimal_values(cbn, ("x", "y"), IpClass(level), {"t": 1}, BOTH) == [baseline, baseline]
        # no subset of the pool has a live driver, so lemma3 asks one
        # marginal and one driverless search that every subset and level
        # shares, and sufficiency one driverless search in all
        calls = joint_calls(monkeypatch)
        report = verify_lemma3(cbn, ("x", "y"), {"t": 1})
        assert report.passed, report.details
        assert "brackets checked: 12" in report.details
        assert len(calls) == 2
        calls.clear()
        report = verify_sufficiency(cbn, ("x", "y"), ("t",), {"t": 1})
        assert report.passed, report.details
        assert report.details[0] == "drivers: {}"
        assert len(calls) == 1

    def test_dead_driver_witness_is_its_first_table(self):
        # stochastic: all choices 0 on the class scope; 0/1: value 0
        rng = np.random.default_rng(8)
        stochastic = live_and_dead(rng)
        for cbn in (stochastic, deterministic_copy(stochastic, rng)):
            dag, cards = cbn.dag, cbn.cards
            for ip_class in (CLASS0, CLASS1, CLASS_INF):
                for direction in Direction:
                    value, pair = optimal_policy_value(cbn, ("d", "x"), ip_class, {"o": 1}, direction)
                    alone, alone_pair = optimal_policy_value(cbn, ("d",), ip_class, {"o": 1}, direction)
                    assert repr(value) == repr(alone)
                    assert pair.targets == ("x", "d")
                    assert pair.policy("d") == alone_pair.policy("d")
                    if cbn.deterministic:
                        assert pair.policy("x") == atomic_policy("x", 0, 2)
                    else:
                        scope = scope_for_class(dag, "x", ip_class)
                        scope_cards = tuple(cards[s] for s in scope)
                        first = Cpd.from_choices("x", scope, scope_cards, 2, (0,) * prod(scope_cards))
                        assert pair.policy("x").table == first
                    assert interventional_prob(cbn, pair, {"o": 1}) == pytest.approx(value, abs=1e-12)
                    naive, _ = naive_policy_search(cbn, ("d", "x"), ip_class, {"o": 1}, direction)
                    assert value == pytest.approx(naive, abs=1e-12)

    def test_only_dead_drivers_give_first_tables_on_their_scopes(self):
        cbn = dead_fan(np.random.default_rng(6), k=2)
        for direction in Direction:
            value, pair = optimal_policy_value(cbn, ("y", "x"), CLASS_INF, {"t": 1}, direction)
            assert value == cbn.marginal_prob({"t": 1})
            assert pair.targets == ("x", "y")
            for policy in pair.policies:
                assert policy.scope == ("p0", "p1")
                assert [row.index(1.0) for row in policy.table.rows] == [0] * 4


class TestBudget:
    def test_state_space_refused(self):
        rng = np.random.default_rng(1)
        dag = random_dag(rng, 15, 0.2)
        cbn = random_cbn(rng, dag)
        with pytest.raises(BudgetExceededError) as info:
            optimal_policy_value(cbn, (dag.nodes[0],), CLASS0, {dag.nodes[-1]: 1}, Direction.MAX)
        assert info.value.estimate == 2 ** 15
        assert info.value.limit == 2 ** 14

    def test_work_refused_with_estimate(self):
        # non-nesting scopes force literal table enumeration, which the
        # tight work cap must refuse up front
        dag = Dag(["a", "d1", "d2", "o"], [("a", "d1"), ("a", "d2"), ("d1", "o"), ("d2", "o")])
        cbn = random_cbn(np.random.default_rng(4), dag)
        tight = Budget(max_work=10)
        with pytest.raises(BudgetExceededError) as info:
            optimal_policy_value(cbn, ("d1", "d2"), CLASS_INF, {"o": 1}, Direction.MAX, tight)
        assert info.value.limit == 10
        assert info.value.estimate is not None and info.value.estimate > 10

    def test_eight_node_class2_call_is_answered_quickly(self):
        # 2^17 table combinations at the default budget: admitted by the
        # work estimate, so the search itself must keep it cheap.  Desired
        # v3 = 0 once took 8.4 s and returned 1.0000000000000002; only 2^11
        # of its combinations are requisite now, while all 2^17 of
        # v4 = v5 = 0 are.
        nodes = tuple(f"v{i}" for i in range(8))
        children = {0: (2, 5, 6, 7), 1: (2, 4, 5, 6), 2: (3, 5, 6), 3: (4,), 4: (6,), 6: (7,)}
        dag = Dag(nodes, [(nodes[p], nodes[c]) for p, cs in children.items() for c in cs])
        cbn = random_cbn(np.random.default_rng(0), dag)
        for desired in ({"v3": 0}, {"v4": 0, "v5": 0}):
            start = time.perf_counter()
            value, pair = optimal_policy_value(cbn, nodes[:6], IpClass(2), desired, Direction.MAX)
            assert time.perf_counter() - start < 2.0
            assert 0.0 <= value <= 1.0
            assert interventional_prob(cbn, pair, desired) == pytest.approx(value, abs=1e-9)

    def test_refused_work_builds_no_tensor(self, monkeypatch):
        # the work estimate is checked before the tensor it gates, on the
        # deterministic path and on the table search
        rng = np.random.default_rng(41)
        atomic = deterministic_copy(random_cbn(rng, fan_dag(2)), rng)
        dag = Dag(["a", "d1", "d2", "o"], [("a", "d1"), ("a", "d2"), ("d1", "o"), ("d2", "o")])
        searched = random_cbn(np.random.default_rng(4), dag)
        # d1 is chained and d2 enumerated: 4 tables over a joint of 2^4
        for cbn, drivers, estimate in ((atomic, ("d0", "d1"), 2 * 2 * 2), (searched, ("d1", "d2"), 4 * 16)):
            calls = joint_calls(monkeypatch)
            with pytest.raises(BudgetExceededError) as info:
                optimal_policy_value(cbn, drivers, CLASS_INF, {"o": 1}, Direction.MAX, Budget(max_work=estimate - 1))
            assert info.value.estimate == estimate
            assert calls == []
            optimal_policy_value(cbn, drivers, CLASS_INF, {"o": 1}, Direction.MAX, Budget(max_work=estimate))
            assert len(calls) == 1

    def test_refusal_message_carries_numbers(self):
        cbn = screening_chain()
        with pytest.raises(BudgetExceededError, match=r"\d"):
            optimal_policy_value(cbn, ("y1",), CLASS_INF, {"o": 1}, Direction.MAX, Budget(max_work=1))


def plan_networks():
    """(network, drivers) on which the optimizer takes each path: a fan
    whose tables are enumerated, a nest whose class-2 and class-inf scopes
    chain with nothing enumerated, and a 0/1 fan on the deterministic
    path.  Targets are ternary where the rows are random.  Each network
    has a dag of its own, so the plans it keeps are its own."""
    rng = np.random.default_rng(17)
    nest = Dag(["u", "d0", "d1", "o"], [("u", "d0"), ("d0", "d1"), ("u", "o"), ("d0", "o"), ("d1", "o")])
    fan, drivers = fan_dag(2), ("d0", "d1")
    return [
        (random_cbn(rng, fan, {n: 3 if n == "o" else 2 for n in fan.nodes}), drivers),
        (random_cbn(rng, nest, {n: 3 if n == "o" else 2 for n in nest.nodes}), drivers),
        (deterministic_copy(random_cbn(rng, fan_dag(2)), rng), drivers),
    ]


def fresh(cbn):
    """The same network on a new, equal dag, so that no plan is shared."""
    return Cbn(Dag(cbn.dag.nodes, cbn.dag.edges), cbn.cards, cbn.cpds)


class TestSearchPlan:
    """The dag keeps one `SearchPlan` per cards and chain-search shape
    (drivers, class, desired nodes): a warm plan must answer and refuse
    exactly as a cold one, made on a new, equal dag."""

    CLASSES = (CLASS1, IpClass(2), CLASS_INF)

    def test_warm_plans_answer_as_a_fresh_network_does(self):
        paths = set()
        for cbn, drivers in plan_networks()[:2]:
            for ip_class in self.CLASSES:
                for value in range(cbn.cards["o"]):
                    desired = {"o": value}
                    for direction in BOTH:
                        warm = optimal_policy_value(cbn, drivers, ip_class, desired, direction)
                        cold = optimal_policy_value(fresh(cbn), drivers, ip_class, desired, direction)
                        assert warm[0] == cold[0] and warm[1] == cold[1], (ip_class, value, direction)
                    warm = optimal_values(cbn, drivers, ip_class, desired, BOTH[::-1])
                    assert warm == optimal_values(fresh(cbn), drivers, ip_class, desired, BOTH[::-1])
            # one plan per class, whatever the desired value and direction
            plans = cbn._search_plans
            assert len(plans) == len(self.CLASSES)
            for plan in plans.values():
                chain = [kind for _, kind in plan.segments if kind]
                enumerated = [e for e, _, _ in plan.searched]
                paths.add("enumerated" if enumerated else "chain")
                # each driver is chained once or enumerated once
                assert sorted(chain + enumerated) == sorted(drivers)
                assert all(not rows.flags.writeable for _, _, rows in plan.searched)
                assert all(not gather.flags.writeable for gather in plan.gathers.values())
                # one gather per driver, in the order the scan records rows
                assert list(plan.gathers) == enumerated + chain
        assert paths == {"chain", "enumerated"}

    def test_deterministic_and_driverless_calls_keep_no_plan(self):
        # the deterministic path plans nothing: warm and cold calls answer
        # and refuse alike, and the network keeps no search plan
        (chance, _), _, (zero_one, fan_drivers) = plan_networks()
        # 2^2 driver choices times 2 drivers; the empty choice, times none
        for cbn, drivers, work in ((zero_one, fan_drivers, 8), (chance, (), 0)):
            for ip_class in self.CLASSES:
                for direction in BOTH:
                    warm = optimal_policy_value(cbn, drivers, ip_class, {"o": 1}, direction)
                    cold = optimal_policy_value(fresh(cbn), drivers, ip_class, {"o": 1}, direction)
                    assert warm[0] == cold[0] and warm[1] == cold[1], (ip_class, direction)
                warm = optimal_values(cbn, drivers, ip_class, {"o": 1}, BOTH)
                assert warm == optimal_values(fresh(cbn), drivers, ip_class, {"o": 1}, BOTH)
            # the work cap is met exactly, and one below it or a small state
            # cap refuses warm as cold
            optimal_values(cbn, drivers, CLASS_INF, {"o": 1}, BOTH, Budget(max_work=work))
            for budget in (Budget(max_work=work - 1), Budget(max_state_space=4)):
                with pytest.raises(BudgetExceededError) as cold:
                    optimal_values(fresh(cbn), drivers, CLASS_INF, {"o": 1}, BOTH, budget)
                with pytest.raises(BudgetExceededError, match=f"^{re.escape(str(cold.value))}$"):
                    optimal_values(cbn, drivers, CLASS_INF, {"o": 1}, BOTH, budget)
            assert cbn._search_plans == {}

    def test_reordered_and_repeated_drivers_share_one_plan(self, monkeypatch):
        built = spy_on(monkeypatch, "_search_plan")
        cbn, _ = plan_networks()[0]
        answers = [
            optimal_policy_value(cbn, drivers, CLASS_INF, {"o": 1}, Direction.MAX)
            for drivers in (("d1", "d0"), ("d0", "d1", "d0"), ["d0", "d1"], {"d1", "d0"})
        ]
        assert len(built) == 1
        assert all(answer == answers[0] for answer in answers)

    def test_warm_shape_refuses_as_a_cold_one(self):
        cbn, drivers = plan_networks()[0]
        good = optimal_policy_value(cbn, drivers, CLASS_INF, {"o": 1}, Direction.MAX)
        plan = next(iter(cbn._search_plans.values()))
        # one driver chained, the 4 tables of the other enumerated, over a
        # joint of 2^5 * 3 states
        work = plan.outer_total * cbn.state_space_size()
        assert work == 4 * 96
        refusals = [
            (drivers, CLASS_INF, {"o": 1}, Direction.MAX, Budget(max_work=work - 1)),
            (drivers, CLASS_INF, {"o": 1}, Direction.MAX, Budget(max_state_space=4)),
            (drivers, CLASS_INF, {"o": 3}, Direction.MAX, None),
            (drivers, CLASS_INF, {}, Direction.MAX, None),
            (drivers, CLASS_INF, {"o": 1}, "max", None),
            (drivers, 1, {"o": 1}, Direction.MAX, None),
            (("d0", "zz"), CLASS_INF, {"o": 1}, Direction.MAX, None),
        ]
        messages = set()
        for args in refusals:
            with pytest.raises((ValueError, BudgetExceededError)) as cold:
                optimal_policy_value(fresh(cbn), *args)
            with pytest.raises(cold.type, match=f"^{re.escape(str(cold.value))}$"):
                optimal_policy_value(cbn, *args)
            messages.add(str(cold.value))
        # each refusal above comes from a check of its own
        assert len(messages) == len(refusals)
        assert len(cbn._search_plans) == 1
        assert optimal_policy_value(cbn, drivers, CLASS_INF, {"o": 1}, Direction.MAX) == good
        # the work cap is met exactly, as on the first call
        exact = Budget(max_work=work)
        assert optimal_policy_value(cbn, drivers, CLASS_INF, {"o": 1}, Direction.MAX, exact) == good

    def test_chain_split_and_requisite_cut_run_once_per_shape(self, monkeypatch):
        splits = spy_on(monkeypatch, "_pick_chain")
        cuts = spy_on(monkeypatch, "requisite_scopes")
        cbn, drivers = plan_networks()[0]
        for value in range(3):
            for direction in BOTH:
                optimal_policy_value(cbn, drivers, CLASS_INF, {"o": value}, direction)
            optimal_values(cbn, drivers, CLASS_INF, {"o": value}, BOTH)
        assert (len(splits), len(cuts)) == (1, 1)
        optimal_values(cbn, drivers, CLASS1, {"o": 0}, BOTH)
        assert (len(splits), len(cuts)) == (2, 2)


def spy_on(monkeypatch, name):
    """Record each call of ``control.<name>``."""
    calls = []
    real = getattr(control, name)

    def recording(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(control, name, recording)
    return calls


class TestSolve:
    def test_objective_required(self):
        problem = ControlProblem(junction(), ("t3",), ("o",), (1,))
        with pytest.raises(ValueError):
            solve(problem, None)

    def test_structure_mismatch_rejected(self):
        problem = ControlProblem(junction(), ("t3",), ("o",), (1,), Objective.MAX_MAX)
        with pytest.raises(ValueError):
            solve(problem, xor_gate())

    def test_max_max_on_gate(self):
        cbn = xor_gate()
        problem = ControlProblem(cbn.dag, ("y",), ("o",), (1,), Objective.MAX_MAX)
        result = solve(problem, cbn)
        assert result.drivers.members == ("y",)
        assert result.drivers.provenance is Provenance.C_STAR
        assert result.value == pytest.approx(1.0, abs=1e-9)

    def test_min_min_without_intervenable_target_optimizes(self):
        cbn = xor_gate()
        problem = ControlProblem(cbn.dag, ("y",), ("o",), (1,), Objective.MIN_MIN)
        result = solve(problem, cbn)
        assert result.drivers.provenance is Provenance.C_STAR
        assert result.value == pytest.approx(0.0, abs=1e-9)

    def test_min_min_shortcut_pins_the_target(self):
        dag = junction()
        problem = ControlProblem(dag, ("t3", "o"), ("o",), (1,), Objective.MIN_MIN)
        rng = np.random.default_rng(2024)
        cbn = random_cbn(rng, dag)
        result = solve(problem, cbn)
        assert result.drivers.members == ("o",)
        assert result.drivers.provenance is Provenance.SHORTCUT
        assert result.value == 0.0
        assert result.pair.policy("o").table.rows == ((1.0, 0.0),)
        # two intervenable targets, listed against index order: the one of
        # lower index is forced, a ternary one from desired 0 to value 1
        dag = Dag(["a", "t1", "t2"], [("a", "t1"), ("t1", "t2"), ("a", "t2")])
        for cards, desired, forced in (
            ({"a": 2, "t1": 2, "t2": 2}, (1, 1), (1.0, 0.0)),
            ({"a": 3, "t1": 3, "t2": 2}, (1, 0), (0.0, 1.0, 0.0)),
        ):
            cbn = random_cbn(rng, dag, cards)
            problem = ControlProblem(dag, ("t2", "t1"), ("t2", "t1"), desired, Objective.MIN_MIN)
            result = solve(problem, cbn)
            assert result.drivers.members == ("t1",)
            assert result.drivers.provenance is Provenance.SHORTCUT
            assert result.value == 0.0
            assert result.pair.targets == ("t1",)
            assert result.pair.policy("t1").table.rows == (forced,)
            assert interventional_prob(cbn, result.pair, problem.desired_map) == 0.0

    def test_adversarial_objectives_settle_at_the_empty_set(self):
        cbn = xor_gate()
        for objective in (Objective.MIN_MAX, Objective.MAX_MIN):
            problem = ControlProblem(cbn.dag, ("y",), ("o",), (1,), objective)
            result = solve(problem, cbn)
            assert result.drivers.members == ()
            assert result.drivers.provenance is Provenance.SHORTCUT
            assert result.value == cbn.marginal_prob({"o": 1})
            assert len(result.pair) == 0

    def test_structural_only_without_parametrization(self):
        problem = ControlProblem(junction(), ("t3", "t4"), ("o",), (1,), Objective.MAX_MAX)
        result = solve(problem, None)
        assert result.drivers.members == ("t3", "t4")
        assert result.value is None and result.pair is None

    def test_objective_parse(self):
        assert Objective.parse("min-min") is Objective.MIN_MIN
        assert Objective.parse("max-min") is Objective.MAX_MIN
        with pytest.raises(ValueError):
            Objective.parse("upwards")


class TestAdversarialConstruction:
    def test_junction_guarantees(self):
        dag = junction()
        problem = ControlProblem(dag, ("t3", "t4"), ("o",), (1,))
        drivers = c_star(problem).members
        cbn, desired = usm_adversarial_cbn(dag, drivers, ("o",))
        full = InterventionPair.of(*(atomic_policy(d, 1, 2) for d in drivers))
        assert interventional_prob(cbn, full, desired) == 1.0
        for subset in iter_subsets(drivers):
            if len(subset) == len(drivers):
                continue
            value, _ = optimal_policy_value(cbn, subset, CLASS_INF, desired, Direction.MAX)
            assert value == 0.0

    def test_drivers_are_pinned_low_and_bystanders_high(self):
        dag = junction()
        cbn, _ = usm_adversarial_cbn(dag, ("t3", "t4"), ("o",))
        assert set(cbn.cpd("t3").rows) == {(1.0, 0.0)}
        assert set(cbn.cpd("t5").rows) == {(0.0, 1.0)}

    def test_random_dags_property(self):
        rng = np.random.default_rng(606)
        for _ in range(12):
            dag = random_dag(rng, int(rng.integers(3, 7)), edge_prob=0.5)
            targets = (dag.nodes[-1],)
            intervenable = tuple(n for n in dag.nodes if rng.random() < 0.5)
            problem = ControlProblem(dag, intervenable, targets, (1,))
            drivers = c_star(problem).members
            cbn, desired = usm_adversarial_cbn(dag, drivers, targets)
            full = InterventionPair.of(*(atomic_policy(d, 1, 2) for d in drivers))
            assert interventional_prob(cbn, full, desired) == 1.0
            for subset in iter_subsets(drivers):
                if len(subset) == len(drivers):
                    continue
                value, _ = optimal_policy_value(cbn, subset, CLASS_INF, desired, Direction.MAX)
                assert value == 0.0

    def test_targets_required(self):
        with pytest.raises(ValueError):
            usm_adversarial_cbn(junction(), ("t3",), ())

    @staticmethod
    def row_loops(dag, drivers):
        # the tables as the construction once built them, row by row
        driver_set = set(drivers)
        downstream = set()
        for d in drivers:
            downstream.update(dag.descendants(d))
        effective = driver_set | downstream
        tables = {}
        for node in dag.nodes:
            parents = dag.parents(node)
            n_rows = 2 ** len(parents)
            if node in driver_set:
                rows = tuple((1.0, 0.0) for _ in range(n_rows))
            elif node in downstream:
                gate = [i for i, p in enumerate(parents) if p in effective]
                rows = []
                for config in product(range(2), repeat=len(parents)):
                    value = 1 if all(config[i] == 1 for i in gate) else 0
                    rows.append((1.0, 0.0) if value == 0 else (0.0, 1.0))
                rows = tuple(rows)
            else:
                rows = tuple((0.0, 1.0) for _ in range(n_rows))
            tables[node] = Cpd(node, parents, (2,) * len(parents), rows)
        return tables

    def test_tables_equal_the_row_loops(self):
        rng = np.random.default_rng(909)
        for _ in range(40):
            dag = random_dag(rng, int(rng.integers(3, 9)), edge_prob=0.45)
            drivers = tuple(n for n in dag.nodes[:-1] if rng.random() < 0.4)
            cbn, desired = usm_adversarial_cbn(dag, drivers[::-1], (dag.nodes[-1],))
            assert cbn.cpds == self.row_loops(dag, drivers)
            assert cbn.cards == dict.fromkeys(dag.nodes, 2)
            assert desired == {dag.nodes[-1]: 1}
