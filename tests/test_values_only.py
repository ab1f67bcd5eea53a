"""The optimizer's two stages: values, then witnesses.

`optimal_values` runs the plan up to the scan and stops;
`optimal_policy_value` also builds its direction's witness pair.  The
values-only entry point must give the value ``repr`` that a witness call
gives and replays, and the same refusals, and the verify suites, which
read values only, must never reach the witness stage.
"""

import numpy as np
import pytest

import cbnctrl.control as control
from cbnctrl import (
    CLASS1,
    CLASS_INF,
    Budget,
    BudgetExceededError,
    Cpd,
    Dag,
    IpClass,
    best_over_subsets,
    interventional_prob,
    optimal_policy_value,
    optimal_values,
    random_cbn,
    random_dag,
    usm_adversarial_cbn,
    verify_extremality,
    verify_lemma3,
    verify_sufficiency,
    verify_usm,
)
from cbnctrl.oracle import BOTH, iter_subsets

from test_control import deterministic_copy, fan_dag, screening_chain
from test_directions import assert_matches_single_calls, chain_network
from test_graph import junction
from test_requisite import nest


def spy(monkeypatch, name):
    """Record the arguments of every call to ``control.<name>``."""
    calls = []
    original = getattr(control, name)

    def recording(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(control, name, recording)
    return calls


class TestStages:
    """The paths of the plan are checked against single-direction calls in
    `test_directions.TestOptimalPolicyValues`; these are the stages' own."""

    def test_chain_only_plan_scans_one_combination(self, monkeypatch):
        # the class-inf scopes of nest nest, so every driver is chained and
        # the scan has one combination, the empty one
        cbn = random_cbn(np.random.default_rng(42), nest(5))
        drivers = tuple(f"d{i}" for i in range(5))
        scans = spy(monkeypatch, "scan_combinations")
        optimal_policy_value(cbn, drivers, CLASS_INF, {"o": 1}, BOTH[0])
        assert [args[0] for args in scans] == [1]
        for ip_class in (CLASS1, IpClass(2), CLASS_INF):
            assert_matches_single_calls(cbn, drivers, ip_class, {"o": 1})

    def test_plan_tables_are_built_on_the_first_witness(self):
        # a refused call and a values-only call leave the dag's first tables
        # empty; the first witness builds them and later witnesses reuse them
        cbn = random_cbn(np.random.default_rng(60), fan_dag(3))
        drivers = ("d0", "d1", "d2")
        store = cbn.dag.derived("first tables", tuple(cbn.cards.values()))
        with pytest.raises(BudgetExceededError):
            optimal_policy_value(cbn, drivers, CLASS_INF, {"o": 1}, BOTH[0], Budget(max_work=1))
        assert store == {}
        optimal_values(cbn, drivers, CLASS_INF, {"o": 1}, BOTH)
        assert store == {}
        _, first = optimal_policy_value(cbn, drivers, CLASS_INF, {"o": 1}, BOTH[0])
        tables = dict(store[CLASS_INF.level])
        assert list(tables) == list(drivers)
        for d, policy in zip(drivers, first.policies):
            assert (tables[d].owner, tables[d].parents) == (d, policy.scope)
            assert set(tables[d].rows) == {(1.0, 0.0)}
        optimal_policy_value(cbn, drivers, CLASS_INF, {"o": 1}, BOTH[1])
        assert list(store) == [CLASS_INF.level]
        assert all(store[CLASS_INF.level][d] is tables[d] for d in drivers)

    def test_refusals_match_the_witness_path(self):
        enumerated = random_cbn(
            np.random.default_rng(4),
            Dag(["a", "d1", "d2", "o"], [("a", "d1"), ("a", "d2"), ("d1", "o"), ("d2", "o")]),
        )
        rng = np.random.default_rng(1)
        wide = random_cbn(rng, random_dag(rng, 15, 0.2))
        rng = np.random.default_rng(41)
        atomic = deterministic_copy(random_cbn(rng, nest(4)), rng)
        cases = [
            (enumerated, ("d1", "d2"), CLASS_INF, {"o": 1}, Budget(max_work=10)),
            (atomic, ("d0", "d1"), CLASS_INF, {"o": 1}, Budget(max_work=1)),
            (wide, wide.dag.nodes[:1], CLASS1, {wide.dag.nodes[-1]: 1}, None),
            (screening_chain(), ("y1",), CLASS1, {}, None),
            (screening_chain(), ("zz",), CLASS1, {"o": 1}, None),
            (screening_chain(), ("y1",), 1, {"o": 1}, None),
            (screening_chain(), ("y1",), CLASS1, {"o": 2}, None),
        ]
        for cbn, drivers, ip_class, desired, budget in cases:
            with pytest.raises((BudgetExceededError, ValueError)) as alone:
                optimal_policy_value(cbn, drivers, ip_class, desired, BOTH[0], budget)
            with pytest.raises(type(alone.value)) as info:
                optimal_values(cbn, drivers, ip_class, desired, BOTH, budget)
            assert type(info.value) is type(alone.value)
            assert str(info.value) == str(alone.value)

    def test_seeded_random_calls(self):
        # 3-6 nodes, cards 2 and 3, 1-3 drivers, classes 1, 2 and inf
        rng = np.random.default_rng(2024)
        for _ in range(100):
            n = int(rng.integers(3, 7))
            dag = random_dag(rng, n, 0.45)
            cbn = random_cbn(rng, dag, {v: int(rng.choice([2, 2, 3])) for v in dag.nodes})
            size = min(int(rng.integers(1, 4)), n - 1)
            drivers = tuple(str(d) for d in rng.choice(dag.nodes[:-1], size=size, replace=False))
            ip_class = (CLASS1, IpClass(2), CLASS_INF)[int(rng.integers(0, 3))]
            target = dag.nodes[-1]
            desired = {target: int(rng.integers(0, cbn.cards[target]))}
            assert_matches_single_calls(cbn, drivers, ip_class, desired)


@pytest.fixture
def no_witnesses(monkeypatch):
    """Make the witness stage raise wherever it builds a table, and the
    scan wherever it records a chain driver's choices: the recording sweep
    is the one user of `Direction.improves`."""

    def refuse(*args):
        raise AssertionError("a witness table was built")

    def no_record(self):
        raise AssertionError("a scan recorded witness choices")

    monkeypatch.setattr(control, "InterventionPolicy", refuse)
    monkeypatch.setattr(control, "atomic_policy", refuse)
    monkeypatch.setattr(Cpd, "with_choices", refuse)
    monkeypatch.setattr(control.Direction, "improves", property(no_record))


class TestSuitesBuildNoWitness:
    def test_the_patch_catches_both_witness_builders(self, no_witnesses):
        rng = np.random.default_rng(41)
        atomic = deterministic_copy(random_cbn(rng, nest(2)), rng)
        enumerated = random_cbn(np.random.default_rng(55), fan_dag(2))
        for cbn, drivers in ((atomic, ("d0", "d1")), (enumerated, ("d0", "d1"))):
            with pytest.raises(AssertionError, match="witness"):
                optimal_policy_value(cbn, drivers, CLASS_INF, {"o": 1}, BOTH[0])
            assert len(optimal_values(cbn, drivers, CLASS_INF, {"o": 1}, BOTH)) == 2

    def test_values_scan_records_nothing(self, no_witnesses, monkeypatch):
        # a chain-only nest, a fan that enumerates over several chunks and
        # a ternary fan, each reduced without recording
        scans = spy(monkeypatch, "scan_combinations")
        cases = [
            (random_cbn(np.random.default_rng(42), nest(5)), tuple(f"d{i}" for i in range(5))),
            (random_cbn(np.random.default_rng(60), fan_dag(5)), tuple(f"d{i}" for i in range(5))),
            (random_cbn(np.random.default_rng(70), fan_dag(3), 3), ("d0", "d1", "d2")),
        ]
        for cbn, drivers in cases:
            for ip_class in (CLASS1, CLASS_INF):
                assert len(optimal_values(cbn, drivers, ip_class, {"o": 1}, BOTH)) == 2
            with pytest.raises(AssertionError, match="recorded"):
                optimal_policy_value(cbn, drivers, CLASS_INF, {"o": 1}, BOTH[0])
        assert max(args[0] for args in scans) >= 256

    def test_suites_read_values_only(self, no_witnesses):
        rng = np.random.default_rng(41)
        networks = [
            (chain_network(3), ("b", "c", "d")),
            (random_cbn(np.random.default_rng(55), fan_dag(2)), ("d0", "d1")),
            (deterministic_copy(random_cbn(rng, nest(3)), rng), ("d0", "d1")),
        ]
        for cbn, pool in networks:
            assert verify_lemma3(cbn, pool, {"o": 1}).passed
            assert verify_sufficiency(cbn, pool, ("o",), {"o": 1}).passed
            assert verify_extremality(cbn, pool, ("o",), {"o": 1}).passed
        dag, intervenable, targets = junction(), ("t3", "t4", "t5"), ("o",)
        assert usm_adversarial_cbn(dag, intervenable, targets)[0].deterministic
        assert verify_usm(dag, intervenable, targets).passed


def per_subset_witnesses(cbn, intervenable, ip_class, desired, direction):
    """`best_over_subsets` as it was built before the stages split: a
    witness for every subset, the first strict improvement kept."""
    best = None
    for subset in iter_subsets(sorted(set(intervenable), key=cbn.dag.index)):
        value, pair = optimal_policy_value(cbn, subset, ip_class, desired, direction)
        if best is None or direction.beats(value, best[0]):
            best = (value, subset, pair)
    return best


class TestBestOverSubsets:
    def assert_as_before(self, cbn, pool, desired):
        answers = []
        for direction in BOTH:
            got = best_over_subsets(cbn, pool, CLASS_INF, desired, direction)
            want = per_subset_witnesses(cbn, pool, CLASS_INF, desired, direction)
            assert repr(got[0]) == repr(want[0])
            assert got[1:] == want[1:]
            assert interventional_prob(cbn, got[2], desired) == pytest.approx(got[0], abs=1e-12)
            answers.append(got)
        return answers

    def test_screening_chain_reports_the_smallest_tied_subset(self):
        # y1 screens o from y2, so {y1} and {y1 y2} tie in both directions
        for _, subset, pair in self.assert_as_before(screening_chain(), ("y1", "y2"), {"o": 1}):
            assert subset == ("y1",)
            assert pair.targets == ("y1",)

    def test_tied_tables_of_an_idle_driver(self):
        # z cannot move o, so every subset with z ties the one without it;
        # with five fan drivers the subsets span several chunks
        for k, seed in ((2, 56), (5, 57)):
            cbn = random_cbn(np.random.default_rng(seed), fan_dag(k, lead=("z",)))
            pool = ("z",) + tuple(f"d{i}" for i in range(k))
            for _, subset, _ in self.assert_as_before(cbn, pool, {"o": 1}):
                assert "z" not in subset
