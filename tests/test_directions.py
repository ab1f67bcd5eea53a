"""One optimizer plan serves every direction.

`optimal_policy_values` and `grid_policy_values` answer several directions
from one plan, and the verify suites ask for MAX and MIN together.  Each
answer must be exactly what a call for its direction alone gives: the same
value ``repr`` and the same witness.
"""

import numpy as np
import pytest

import cbnctrl.oracle as oracle
from cbnctrl import (
    CLASS1,
    CLASS_INF,
    Budget,
    Dag,
    Direction,
    IpClass,
    grid_policy_search,
    grid_policy_values,
    optimal_policy_value,
    optimal_policy_values,
    random_cbn,
    random_problem,
    verify_extremality,
    verify_lemma3,
    verify_sufficiency,
)
from cbnctrl.graph import INF
from cbnctrl.intervention import scope_for_class
from cbnctrl.oracle import BOTH, iter_subsets

from test_control import deterministic_copy, fan_dag, screening_chain
from test_requisite import explaining_away, fan, nest, record_requisite


def assert_matches_single_calls(cbn, drivers, ip_class, desired, directions=BOTH):
    answers = optimal_policy_values(cbn, drivers, ip_class, desired, directions)
    assert len(answers) == len(directions)
    for direction, (value, pair) in zip(directions, answers):
        alone, alone_pair = optimal_policy_value(cbn, drivers, ip_class, desired, direction)
        assert repr(value) == repr(alone), direction
        assert pair == alone_pair, direction
    return answers


class TestOptimalPolicyValues:
    def test_deterministic_path(self):
        dag = nest(4)
        rng = np.random.default_rng(41)
        for _ in range(4):
            cbn = deterministic_copy(random_cbn(rng, dag), rng)
            assert cbn.deterministic
            assert_matches_single_calls(cbn, ("d0", "d1", "d2", "d3"), CLASS_INF, {"o": 1})

    def test_chain_only_nest(self):
        cbn = random_cbn(np.random.default_rng(42), nest(5))
        drivers = tuple(f"d{i}" for i in range(5))
        for ip_class in (CLASS1, IpClass(2), CLASS_INF):
            assert_matches_single_calls(cbn, drivers, ip_class, {"o": 1})

    def test_enumerated_fan_spanning_chunks(self):
        # the fan of TestBatchedSearch: 256 combinations over several chunks
        cbn = random_cbn(np.random.default_rng(55), fan_dag(5))
        assert_matches_single_calls(cbn, tuple(f"d{i}" for i in range(5)), CLASS_INF, {"o": 1})

    def test_tied_tables_keep_the_first_in_each_direction(self):
        # z's two tables tie exactly, within one chunk (k = 2) and across
        # chunks (k = 5); neither direction may take its second table
        for k, seed in ((2, 56), (5, 57)):
            cbn = random_cbn(np.random.default_rng(seed), fan_dag(k, lead=("z",)))
            drivers = ("z",) + tuple(f"d{i}" for i in range(k))
            for _, pair in assert_matches_single_calls(cbn, drivers, CLASS_INF, {"o": 1}):
                assert pair.policy("z").table.rows == ((1.0, 0.0),)

    def test_requisite_pruned(self):
        patch, seen = record_requisite()
        cbn = random_cbn(np.random.default_rng(32), fan(3, 1))
        with patch:
            assert_matches_single_calls(cbn, ("d0", "d1", "d2"), CLASS_INF, {"o": 1})
        assert seen and seen[0]["d1"] == ()
        cbn = random_cbn(np.random.default_rng(7), explaining_away())
        assert_matches_single_calls(cbn, ("e", "d"), CLASS1, {"o": 1})

    def test_answers_follow_the_requested_order(self):
        cbn = random_cbn(np.random.default_rng(55), fan_dag(3))
        drivers = ("d0", "d1", "d2")
        directions = (Direction.MIN, Direction.MAX, Direction.MIN)
        answers = assert_matches_single_calls(cbn, drivers, CLASS_INF, {"o": 1}, directions)
        assert answers[0][0] < answers[1][0]
        assert optimal_policy_values(cbn, drivers, CLASS_INF, {"o": 1}, ()) == []

    def test_no_drivers_gives_the_baseline_in_each_direction(self):
        cbn = screening_chain()
        answers = assert_matches_single_calls(cbn, (), CLASS_INF, {"o": 1})
        assert [value for value, _ in answers] == [cbn.marginal_prob({"o": 1})] * 2

    def test_each_direction_type_checked_before_any_work(self):
        # a one-state budget would refuse any work with BudgetExceededError
        tiny = Budget(max_state_space=1, max_work=1)
        for directions in (("max",), (Direction.MAX, "min"), (None,)):
            with pytest.raises(ValueError, match="direction must be a Direction"):
                optimal_policy_values(screening_chain(), ("y1",), CLASS1, {"o": 1}, directions, tiny)


class TestGridPolicyValues:
    def test_matches_single_calls(self):
        rng = np.random.default_rng(2718)
        checked = 0
        for _ in range(12):
            cbn, intervenable, _, desired = random_problem(rng, 4)
            drivers = intervenable[:2]
            grids = grid_policy_values(cbn, drivers, CLASS1, desired, BOTH)
            alone = [grid_policy_search(cbn, drivers, CLASS1, desired, d) for d in BOTH]
            assert list(map(repr, grids)) == list(map(repr, alone))
            checked += bool(drivers)
        assert checked >= 8

    def test_one_scan_serves_both_directions(self, monkeypatch):
        scans = []
        scan = oracle.scan_combinations

        def counting(total, size, evaluate, directions):
            scans.append(directions)
            return scan(total, size, evaluate, directions)

        monkeypatch.setattr(oracle, "scan_combinations", counting)
        grid_policy_values(screening_chain(), ("y1", "y2"), CLASS1, {"o": 1}, BOTH)
        assert scans == [BOTH]


def spy(monkeypatch, name):
    """Record the arguments of every call to ``oracle.<name>``."""
    calls = []
    original = getattr(oracle, name)

    def recording(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(oracle, name, recording)
    return calls


def chain_network(seed):
    """a -> b -> c -> d -> o with a also feeding o, so classes 1, 2 and inf
    give b, c and d different scopes, and o's ancestors all matter."""
    dag = Dag(["a", "b", "c", "d", "o"],
              [("a", "b"), ("b", "c"), ("c", "d"), ("d", "o"), ("a", "o")])
    return random_cbn(np.random.default_rng(seed), dag)


class TestSuitesShareOnePlan:
    def test_lemma3_builds_one_plan_per_subset_and_distinct_scopes(self, monkeypatch):
        cbn = chain_network(3)
        pool, levels = ("b", "c", "d"), (1, 2, INF)
        calls = spy(monkeypatch, "optimal_policy_values")
        report = verify_lemma3(cbn, pool, {"o": 1}, levels)
        want = [
            (subset, scopes)
            for subset in iter_subsets(pool)
            for scopes in dict.fromkeys(
                tuple(scope_for_class(cbn.dag, d, IpClass(level)) for d in subset)
                for level in levels
            )
        ]
        assert [(args[1], tuple(scope_for_class(cbn.dag, d, args[2]) for d in args[1]))
                for args in calls] == want
        assert all(args[4] == BOTH for args in calls)
        assert len(want) < len(levels) * 2 ** len(pool)  # some levels share a plan
        assert report.passed
        assert f"brackets checked: {len(levels) * 2 ** len(pool)}" in report.details

    def test_sufficiency_scans_each_subset_once(self, monkeypatch):
        cbn = chain_network(5)
        pool = ("b", "c", "d")
        calls = spy(monkeypatch, "optimal_policy_values")
        report = verify_sufficiency(cbn, pool, ("o",), {"o": 1})
        # the drivers first, then every subset but the one equal to them
        assert calls[0][1] == ("d",)
        assert [args[1] for args in calls[1:]] == [s for s in iter_subsets(pool) if s != ("d",)]
        assert all(args[4] == BOTH for args in calls)
        for direction, line in zip(BOTH, report.details[1:3]):
            mine, _ = optimal_policy_value(cbn, ("d",), CLASS_INF, {"o": 1}, direction)
            best, subset, _ = oracle.best_over_subsets(cbn, pool, CLASS_INF, {"o": 1}, direction)
            assert line == (
                f"{direction.value}: drivers {mine:.9f}, exhaustive {best:.9f} "
                f"at {{{' '.join(subset)}}}"
            )

    def test_sufficiency_reports_the_smallest_tied_subset(self):
        # y1 screens o from y2, so {y1} and {y1 y2} tie in both directions
        report = verify_sufficiency(screening_chain(), ("y1", "y2"), ("o",), {"o": 1})
        assert report.details[1].endswith("at {y1}")
        assert report.details[2].endswith("at {y1}")

    def test_extremality_builds_one_plan_and_one_grid_scan(self, monkeypatch):
        plans = spy(monkeypatch, "optimal_policy_values")
        grids = spy(monkeypatch, "grid_policy_values")
        report = verify_extremality(screening_chain(), ("y1", "y2"), ("o",), {"o": 1})
        assert [args[4] for args in plans] == [BOTH]
        assert [args[4] for args in grids] == [BOTH]
        assert report.passed
        for direction, line in zip(BOTH, report.details[1:]):
            det, _ = optimal_policy_value(screening_chain(), ("y1",), CLASS_INF, {"o": 1}, direction)
            grid = grid_policy_search(screening_chain(), ("y1",), CLASS_INF, {"o": 1}, direction)
            assert line == f"{direction.value}: deterministic {det:.9f}, grid {grid:.9f}"

