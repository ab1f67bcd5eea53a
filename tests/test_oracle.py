"""Reference searches, generators and the verification suites."""

import re
import time
from itertools import product
from math import prod

import numpy as np
import pytest

import cbnctrl.oracle as oracle
from cbnctrl import (
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
    best_over_subsets,
    ci_holds,
    grid_policy_search,
    interventional_prob,
    naive_policy_search,
    optimal_policy_value,
    optimal_values,
    random_cbn,
    random_dag,
    random_problem,
    verify_extremality,
    verify_lemma3,
    verify_sufficiency,
    verify_usm,
)
from cbnctrl.graph import INF
from cbnctrl.intervention import scope_for_class
from cbnctrl.oracle import BOTH, grid_policy_values, iter_subsets, simplex_grid_rows

from test_cbn import chain_ab, xor_gate
from test_control import joint_calls, screening_chain
from test_graph import junction


class TestSubsets:
    def test_order_is_size_then_lexicographic(self):
        got = list(iter_subsets(("a", "b", "c")))
        assert got == [
            (),
            ("a",),
            ("b",),
            ("c",),
            ("a", "b"),
            ("a", "c"),
            ("b", "c"),
            ("a", "b", "c"),
        ]


class TestNaiveSearch:
    def test_cap_enforced(self):
        cbn = screening_chain()
        with pytest.raises(ValueError, match="cap"):
            naive_policy_search(cbn, ("y1",), CLASS_INF, {"o": 1}, Direction.MAX, max_combos=1)

    def test_no_drivers_is_baseline(self):
        cbn = chain_ab()
        value, pair = naive_policy_search(cbn, (), CLASS1, {"b": 1}, Direction.MAX)
        assert value == cbn.marginal_prob({"b": 1})
        assert len(pair) == 0

    def test_direction_type_checked(self):
        # "max" once silently minimised; it is refused before any work, so
        # before the one-combination cap could refuse the search
        cbn = screening_chain()
        for direction in ("max", "min", None):
            with pytest.raises(ValueError, match="direction must be a Direction"):
                naive_policy_search(cbn, ("y1",), CLASS_INF, {"o": 1}, direction, max_combos=1)

    def test_empty_desired_refused_as_the_searches_it_checks_refuse_it(self, monkeypatch):
        # it once answered 1.0, the probability of the empty event; now it
        # refuses, with or without drivers, before any joint is built
        calls = joint_calls(monkeypatch)
        rng = np.random.default_rng(3)
        cbn = random_cbn(rng, random_dag(rng, 4))
        for drivers in (cbn.dag.nodes[:2], ()):
            for direction in Direction:
                with pytest.raises(ValueError, match="desired event must be non-empty"):
                    naive_policy_search(cbn, drivers, CLASS1, {}, direction)
        assert calls == []


class TestBestOverSubsets:
    def test_prefers_smallest_tied_subset(self):
        cbn = screening_chain()
        value, subset, pair = best_over_subsets(
            cbn, ("y1", "y2"), CLASS_INF, {"o": 1}, Direction.MAX
        )
        assert value == pytest.approx(0.7, abs=1e-9)
        assert subset == ("y1",)

    @staticmethod
    def relay():
        # c -> b -> t: b alone reaches every optimum, and {c, b} ties with it
        dag = Dag(["c", "b", "t"], [("c", "b"), ("b", "t")])
        return Cbn(dag, dict.fromkeys(dag.nodes, 2), {
            "c": Cpd("c", (), (), ((0.5, 0.5),)),
            "b": Cpd("b", ("c",), (2,), ((0.7, 0.3), (0.4, 0.6))),
            "t": Cpd("t", ("b",), (2,), ((0.8, 0.2), (0.35, 0.65))),
        })

    @staticmethod
    def nudge_supersets(monkeypatch, gain):
        # every subset of two or more drivers reads ``gain`` better than it
        # is, as a change of summation order can make a tie read
        real = oracle.optimal_values

        def nudged(cbn, drivers, ip_class, desired, directions, budget=None):
            values = real(cbn, drivers, ip_class, desired, directions, budget)
            if len(drivers) < 2:
                return values
            return [v + gain if d is Direction.MAX else v - gain for d, v in zip(directions, values)]

        monkeypatch.setattr(oracle, "optimal_values", nudged)

    def test_float_noise_does_not_pick_a_superset(self, monkeypatch):
        cbn = self.relay()
        self.nudge_supersets(monkeypatch, 2e-16)
        for direction, expect in ((Direction.MAX, 0.65), (Direction.MIN, 0.2)):
            value, subset, pair = best_over_subsets(cbn, ("c", "b"), CLASS_INF, {"t": 1}, direction)
            assert subset == ("b",), direction
            assert value == pytest.approx(expect, abs=1e-12)
            assert [p.target for p in pair.policies] == ["b"]
        report = verify_sufficiency(cbn, ("c", "b"), ("t",), {"t": 1})
        assert report.passed
        assert report.details[0] == "drivers: {b}"
        assert [line.split(" at ")[1] for line in report.details[1:]] == ["{b}", "{b}"]

    def test_a_real_gain_still_replaces_the_incumbent(self, monkeypatch):
        cbn = self.relay()
        self.nudge_supersets(monkeypatch, 1e-12)
        for direction in (Direction.MAX, Direction.MIN):
            _, subset, _ = best_over_subsets(cbn, ("c", "b"), CLASS_INF, {"t": 1}, direction)
            assert subset == ("c", "b"), direction
        report = verify_sufficiency(cbn, ("c", "b"), ("t",), {"t": 1})
        assert [line.split(" at ")[1] for line in report.details[1:]] == ["{c b}", "{c b}"]

    def test_set_size_budget(self):
        cbn = xor_gate()
        tight = Budget(max_set_size=0)
        with pytest.raises(BudgetExceededError):
            best_over_subsets(cbn, ("y",), CLASS1, {"o": 1}, Direction.MAX, tight)


class TestSimplexGrid:
    def test_binary_quarter_grid(self):
        assert simplex_grid_rows(2, 0.25) == (
            (0.0, 1.0),
            (0.25, 0.75),
            (0.5, 0.5),
            (0.75, 0.25),
            (1.0, 0.0),
        )

    def test_rows_are_distributions(self):
        for card in (2, 3):
            for row in simplex_grid_rows(card, 0.25):
                assert len(row) == card
                assert sum(row) == pytest.approx(1.0, abs=1e-12)

    def test_rows_match_the_filtered_cube_in_order(self):
        for card in (2, 3, 4, 5):
            for step in (0.5, 0.25, 0.2):
                denom = round(1 / step)
                cube = tuple(
                    tuple(c * step for c in combo)
                    for combo in product(range(denom + 1), repeat=card)
                    if sum(combo) == denom
                )
                assert simplex_grid_rows(card, step) == cube

    def test_many_values_build_without_scanning_the_cube(self):
        # the cube would hold 5^12 = 244M candidates for these 1365 rows
        start = time.perf_counter()
        rows = simplex_grid_rows(12, 0.25)
        assert time.perf_counter() - start < 0.5
        assert len(rows) == 1365 and len(set(rows)) == 1365

    def test_step_must_divide_one(self):
        for step in (0.3, -0.25, 2.0, 0, 0.0):
            with pytest.raises(ValueError, match=re.escape(f"step {step} does not divide 1")):
                simplex_grid_rows(2, step)
            with pytest.raises(ValueError, match=re.escape(f"step {step} does not divide 1")):
                grid_policy_search(screening_chain(), ("y1",), CLASS1, {"o": 1}, Direction.MAX, step)


class TestGridSearch:
    def test_grid_brackets_the_deterministic_optimum(self):
        # the grid contains every deterministic table, so it can tie but
        # never beat the enumeration optimum
        rng = np.random.default_rng(2718)
        checked = 0
        for _ in range(12):
            cbn, intervenable, targets, desired = random_problem(rng, 4)
            if not intervenable:
                continue
            drivers = intervenable[:2]
            for direction in (Direction.MAX, Direction.MIN):
                det, _ = optimal_policy_value(cbn, drivers, CLASS1, desired, direction)
                grid = grid_policy_search(cbn, drivers, CLASS1, desired, direction)
                # the deterministic optimum sits on the grid, so the two
                # searches must agree to tolerance
                assert grid == pytest.approx(det, abs=1e-9)
            checked += 1
        assert checked >= 8

    def test_work_budget_refusal(self):
        cbn = screening_chain()
        with pytest.raises(BudgetExceededError):
            grid_policy_search(cbn, ("y1",), CLASS1, {"o": 1}, Direction.MAX, 0.25, Budget(max_work=1))

    def test_refused_work_builds_no_tensor(self, monkeypatch):
        # 5^2 tables of y1 over a joint of 2^3 states; the state-space cap
        # is still checked first
        calls = joint_calls(monkeypatch)
        cbn = screening_chain()
        with pytest.raises(BudgetExceededError) as info:
            grid_policy_search(cbn, ("y1",), CLASS1, {"o": 1}, Direction.MAX, 0.25, Budget(max_work=199))
        assert info.value.estimate == 200
        with pytest.raises(BudgetExceededError, match="state space of 8"):
            grid_policy_search(
                cbn, ("y1",), CLASS1, {"o": 1}, Direction.MAX, 0.25, Budget(max_state_space=7, max_work=1)
            )
        assert calls == []
        grid_policy_search(cbn, ("y1",), CLASS1, {"o": 1}, Direction.MAX, 0.25, Budget(max_work=200))
        assert len(calls) == 1

    def test_ip_class_type_checked(self):
        # refused before any work, with or without drivers
        cbn = screening_chain()
        for drivers in (("y1",), ()):
            for ip_class in (1, "inf", None):
                with pytest.raises(ValueError, match="ip_class must be an IpClass"):
                    grid_policy_search(cbn, drivers, ip_class, {"o": 1}, Direction.MAX)

    def test_empty_desired_refused_as_the_optimizer_refuses_it(self, monkeypatch):
        # with and without drivers, before any joint is built
        calls = joint_calls(monkeypatch)
        rng = np.random.default_rng(3)
        cbn = random_cbn(rng, random_dag(rng, 4))
        for drivers in (cbn.dag.nodes[:2], ()):
            for search in (grid_policy_values, optimal_values):
                with pytest.raises(ValueError, match="desired event must be non-empty"):
                    search(cbn, drivers, CLASS1, {}, BOTH)
        assert calls == []

    def test_direction_type_checked(self):
        # "max" once silently minimised; it is refused before any work, with
        # or without drivers, so before a one-operation budget could refuse
        cbn = screening_chain()
        for drivers in (("y1",), ()):
            for direction in ("max", "min", None):
                with pytest.raises(ValueError, match="direction must be a Direction"):
                    grid_policy_search(
                        cbn, drivers, CLASS1, {"o": 1}, direction, 0.25, Budget(max_work=1)
                    )


def literal_grid_values(cbn, drivers, ip_class, desired, step=0.25):
    # every grid table as a Cpd, every combination through interventional_prob
    cards = cbn.cards
    tables = []
    for d in drivers:
        scope = scope_for_class(cbn.dag, d, ip_class)
        scope_cards = tuple(cards[s] for s in scope)
        tables.append([
            InterventionPolicy(Cpd(d, scope, scope_cards, rows))
            for rows in product(simplex_grid_rows(cards[d], step), repeat=prod(scope_cards))
        ])
    return [interventional_prob(cbn, InterventionPair(combo), desired) for combo in product(*tables)]


class TestGridAgainstLiteralTables:
    """The grid search against a route that shares none of its batch or
    scan code: one `Cpd` per grid table, one `interventional_prob` each."""

    def test_binary_and_ternary_networks(self):
        rng = np.random.default_rng(1618)
        diamond = Dag(["a", "b", "c", "o"], [("a", "b"), ("a", "c"), ("b", "o"), ("c", "o")])
        collider = Dag(["a", "b", "c", "o"], [("a", "c"), ("b", "c"), ("c", "o"), ("a", "o")])
        cases = [
            (random_cbn(rng, diamond), ("b",), CLASS0, {"o": 1}),
            (random_cbn(rng, diamond), ("b",), CLASS1, {"o": 0}),
            (random_cbn(rng, diamond), ("a", "c"), CLASS0, {"o": 1}),
            (random_cbn(rng, diamond), ("b", "c"), CLASS1, {"o": 1, "a": 0}),
            (random_cbn(rng, diamond), ("a", "b"), CLASS1, {"o": 0}),
            (random_cbn(rng, collider), ("c",), CLASS1, {"o": 1}),
            (random_cbn(rng, diamond, card=3), ("b", "c"), CLASS0, {"o": 2}),
        ]
        for cbn, drivers, ip_class, desired in cases:
            values = literal_grid_values(cbn, drivers, ip_class, desired)
            for direction, want in ((Direction.MAX, max(values)), (Direction.MIN, min(values))):
                got = grid_policy_search(cbn, drivers, ip_class, desired, direction)
                assert got == pytest.approx(want, abs=1e-12)


class TestConditionalIndependence:
    def test_chain_screens(self):
        cbn = screening_chain()
        assert ci_holds(cbn, "y2", "o", ["y1"])
        assert not ci_holds(cbn, "y2", "o", [])

    def test_marginally_independent_roots(self):
        rng = np.random.default_rng(12)
        dag = random_dag(rng, 2, edge_prob=0.0)
        cbn = random_cbn(rng, dag)
        assert ci_holds(cbn, dag.nodes[0], dag.nodes[1], [])


class TestGenerators:
    def test_same_seed_same_instance(self):
        a = random_problem(np.random.default_rng(99), 5)
        b = random_problem(np.random.default_rng(99), 5)
        assert a[0] == b[0]
        assert a[1:] == b[1:]

    def test_rows_strictly_positive(self):
        rng = np.random.default_rng(55)
        cbn = random_cbn(rng, random_dag(rng, 5))
        for name in cbn.dag.nodes:
            for row in cbn.cpd(name).rows:
                assert all(p > 0.0 for p in row)

    def test_per_node_cards(self):
        # a mapping of equal cards draws exactly what the single card draws
        dag = random_dag(np.random.default_rng(8), 5)
        for card in (2, 3):
            mapped = random_cbn(np.random.default_rng(21), dag, dict.fromkeys(dag.nodes, card))
            assert mapped == random_cbn(np.random.default_rng(21), dag, card)
        cards = {n: 2 + i % 2 for i, n in enumerate(dag.nodes)}
        assert random_cbn(np.random.default_rng(21), dag, cards).cards == cards


class TestSuites:
    def test_lemma3_passes_and_reports(self):
        cbn = screening_chain()
        report = verify_lemma3(cbn, ("y1", "y2"), {"o": 1})
        assert report.passed
        assert report.name == "lemma3"
        assert any("brackets checked" in line for line in report.details)

    def test_lemma3_refuses_level_zero(self):
        cbn = screening_chain()
        with pytest.raises(ValueError, match="levels"):
            verify_lemma3(cbn, ("y1",), {"o": 1}, levels=(0, 1))

    def test_lemma3_reads_each_level_as_its_class(self):
        cbn = screening_chain()
        for levels, same in (((1.0, 2.0), (1, 2)), ((2.0, float("inf")), (2, INF))):
            assert verify_lemma3(cbn, ("y1", "y2"), {"o": 1}, levels) == verify_lemma3(
                cbn, ("y1", "y2"), {"o": 1}, same
            )

    def test_lemma3_refuses_a_bad_level_with_one_message_before_any_work(self):
        cbn = screening_chain()
        # the state cap would refuse the first probability asked for
        budget = Budget(max_state_space=1)
        for bad in (0, 0.0, -1, 1.5, True, False, "1", None):
            with pytest.raises(ValueError, match=rf"^bracket levels must be >= 1 or inf, got {re.escape(repr(bad))}$"):
                verify_lemma3(cbn, ("y1",), {"o": 1}, (1, bad), budget)

    def test_lemma3_accepts_custom_levels(self):
        cbn = screening_chain()
        report = verify_lemma3(cbn, ("y1",), {"o": 1}, levels=(1, INF))
        assert report.passed

    def test_sufficiency_on_screening_chain(self):
        cbn = screening_chain()
        report = verify_sufficiency(cbn, ("y1", "y2"), ("o",), {"o": 1})
        assert report.passed
        assert "drivers: {y1}" in report.details[0]

    def test_usm_suite(self):
        report = verify_usm(junction(), ("t3", "t4"), ("o",))
        assert report.passed
        assert any("proper subsets checked: 3" in line for line in report.details)

    def test_extremality_suite(self):
        cbn = screening_chain()
        report = verify_extremality(cbn, ("y1", "y2"), ("o",), {"o": 1})
        assert report.passed
        assert any(line.startswith("max:") for line in report.details)

    def test_extremality_reports_a_grid_that_beats_either_optimum(self, monkeypatch):
        import cbnctrl.oracle as oracle

        def beating(cbn, drivers, ip_class, desired, directions, step, budget):
            return [
                optimal_policy_value(cbn, drivers, ip_class, desired, d, budget)[0]
                + (0.5 if d is Direction.MAX else -0.5)
                for d in directions
            ]

        monkeypatch.setattr(oracle, "grid_policy_values", beating)
        report = verify_extremality(screening_chain(), ("y1", "y2"), ("o",), {"o": 1})
        assert not report.passed
        assert [line.split(":")[0] for line in report.details[:3]] == ["drivers", "max", "min"]
        assert report.details[3:] == (
            "grid search beat the deterministic maximum",
            "grid search beat the deterministic minimum",
        )
