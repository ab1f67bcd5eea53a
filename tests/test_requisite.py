"""Requisite scopes: enumerated drivers search only the scope members that
can change the optimum, and their witnesses are widened back to the class
scope.

`naive_policy_search` on the full class scopes stays the reference for
every value here.
"""

from itertools import product
from math import prod
from unittest import mock

import numpy as np
import pytest

import cbnctrl.cli as cli
import cbnctrl.control as control
from cbnctrl import (
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
    NetworkSpec,
    Objective,
    atomic_policy,
    interventional_prob,
    naive_policy_search,
    optimal_policy_value,
    save,
    solve,
)
from cbnctrl.control import requisite_scopes
from cbnctrl.intervention import scope_for_class
from cbnctrl.oracle import random_cbn, random_dag

from test_control import screening_chain


def fan(k, roots):
    """Drivers d_i, each below ``roots`` private roots r_i_j, joined by a
    mediator m above the target o."""
    nodes, edges = [], []
    for i in range(k):
        rs = [f"r{i}_{j}" for j in range(roots)]
        nodes += [*rs, f"d{i}"]
        edges += [(r, f"d{i}") for r in rs] + [(f"d{i}", "m")]
    return Dag(nodes + ["m", "o"], edges + [("m", "o")])


def nest(k):
    """Drivers d0..d(k-1) in a chain below a root u, all parents of o, which
    u also feeds: the class-inf scopes nest."""
    ds = [f"d{i}" for i in range(k)]
    edges = [("u", "d0"), ("u", "o")] + list(zip(ds, ds[1:])) + [(d, "o") for d in ds]
    return Dag(["u", *ds, "o"], edges)


def explaining_away():
    """Driver d sees x and the collider y of x and z; z moves the target o,
    and so does driver e, below two roots w1 and w2."""
    return Dag(
        ["w1", "w2", "e", "x", "z", "y", "d", "o"],
        [("w1", "e"), ("w2", "e"), ("e", "o"), ("x", "y"), ("z", "y"), ("x", "d"), ("y", "d"),
         ("z", "o"), ("d", "o")],
    )


def class_scopes(dag, drivers, ip_class=CLASS_INF):
    return {d: scope_for_class(dag, d, ip_class) for d in drivers}


class TestRequisiteScopes:
    def test_fan_roots_are_dropped(self):
        dag = fan(3, 2)
        drivers = ("d0", "d1", "d2")
        scopes = class_scopes(dag, drivers)
        got = requisite_scopes(dag, scopes, ("d1", "d2"), {"o"})
        assert got == {"d0": ("r0_0", "r0_1"), "d1": (), "d2": ()}
        assert scopes["d1"] == ("r1_0", "r1_1")  # the argument is not changed

    def test_roots_that_feed_the_target_are_kept(self):
        # r0_1 reaches o past d0, so d0 must still see it; r0_0 only feeds d0
        dag = Dag(fan(2, 2).nodes, fan(2, 2).edges | {("r0_1", "m")})
        scopes = class_scopes(dag, ("d0", "d1"))
        got = requisite_scopes(dag, scopes, ("d0", "d1"), {"o"})
        assert got == {"d0": ("r0_1",), "d1": ()}

    def test_co_parent_of_an_observed_collider_is_kept(self):
        # y is observed, so x and z are dependent given y: x tells d about z,
        # which moves o
        dag = explaining_away()
        scopes = class_scopes(dag, ("e", "d"), CLASS1)
        assert scopes["d"] == ("x", "y")
        assert requisite_scopes(dag, scopes, ("d",), {"o"}) == scopes

    def test_nest_scopes_are_kept(self):
        dag = nest(4)
        drivers = tuple(f"d{i}" for i in range(4))
        scopes = class_scopes(dag, drivers)
        assert requisite_scopes(dag, scopes, drivers, {"o"}) == scopes

    def test_driver_that_is_the_target_sees_nothing(self):
        dag = Dag(["a", "b", "d"], [("a", "b"), ("b", "d"), ("a", "d")])
        scopes = class_scopes(dag, ("d",))
        assert scopes == {"d": ("a", "b")}
        assert requisite_scopes(dag, scopes, ("d",), {"d"}) == {"d": ()}

    def test_scope_member_that_is_a_target_is_kept(self):
        # the desired event reads t, so a driver below t must see it
        dag = Dag(["t", "d", "o"], [("t", "d"), ("d", "o")])
        scopes = class_scopes(dag, ("d",))
        assert requisite_scopes(dag, scopes, ("d",), {"t", "o"}) == {"d": ("t",)}

    def test_rounds_repeat_until_nothing_changes(self):
        # e sees d and d's inputs a and b.  In the first round d keeps a and
        # b, which reach o through e's scope; e drops them, since d screens
        # them off, and in the second round d drops them too.
        dag = Dag(
            ["a", "b", "d", "e", "o"],
            [("a", "d"), ("b", "d"), ("b", "e"), ("d", "e"), ("d", "o"), ("e", "o")],
        )
        scopes = class_scopes(dag, ("d", "e"))
        assert scopes == {"d": ("a", "b"), "e": ("a", "b", "d")}
        assert requisite_scopes(dag, scopes, ("d", "e"), {"o"}) == {"d": (), "e": ("d",)}


def record_requisite():
    """A patch of `control.requisite_scopes` that records what it returns."""
    seen = []

    def recording(*args):
        scopes = requisite_scopes(*args)
        seen.append(scopes)
        return scopes

    return mock.patch.object(control, "requisite_scopes", recording), seen


def constant_across(pair, driver, dropped) -> bool:
    """Whether the witness table of ``driver`` is the same at every value
    of each of the ``dropped`` scope members."""
    policy = pair.policy(driver)
    table = np.asarray(policy.table.rows).reshape(*policy.table.parent_cards, policy.card)
    return all(
        np.array_equal(table, np.broadcast_to(table.take([0], axis=policy.scope.index(s)), table.shape))
        for s in dropped
    )


class TestFan4x2:
    """Four drivers with two private binary roots each.  Each has 2^4
    class-inf tables, so a full-scope search enumerates 16^3 combinations
    over a 2^14 joint, over the default work cap; the roots cannot move the
    target past their driver, so the optimum is that of the 16 atomic
    interventions."""

    def problem(self, objective):
        dag = fan(4, 2)
        drivers = tuple(f"d{i}" for i in range(4))
        return ControlProblem(dag, drivers, ("o",), (1,), objective)

    def test_solves_at_the_best_atomic_intervention(self):
        rng = np.random.default_rng(42)
        for objective in (Objective.MAX_MAX, Objective.MIN_MIN):
            problem = self.problem(objective)
            cbn = random_cbn(rng, problem.dag)
            result = solve(problem, cbn)
            assert result.drivers.members == problem.intervenable
            atomic = [
                interventional_prob(
                    cbn,
                    InterventionPair(atomic_policy(d, v, 2) for d, v in zip(problem.intervenable, vector)),
                    {"o": 1},
                )
                for vector in product(range(2), repeat=4)
            ]
            best = max(atomic) if objective is Objective.MAX_MAX else min(atomic)
            assert result.value == pytest.approx(best, abs=1e-12)
            assert interventional_prob(cbn, result.pair, {"o": 1}) == pytest.approx(result.value, abs=1e-12)
            for i, d in enumerate(problem.intervenable):
                assert result.pair.policy(d).scope == (f"r{i}_0", f"r{i}_1")

    def test_cli_prints_the_class_scopes(self, tmp_path, capsys):
        problem = self.problem(Objective.MAX_MAX)
        cbn = random_cbn(np.random.default_rng(43), problem.dag)
        path = tmp_path / "fan4x2.json"
        save(NetworkSpec.from_cbn(cbn, problem.intervenable, ("o",), {"o": 1}), path)
        for objective in ("max-max", "min-min"):
            code = cli.main(["solve", str(path), "--objective", objective])
            out = capsys.readouterr().out
            assert code == 0, objective
            scopes = [line.split(" | ")[1] for line in out.splitlines() if line.startswith("policy:")]
            assert scopes == [f"scope: r{i}_0 r{i}_1" for i in range(4)]


class TestNothingToCut:
    """Where no enumerated driver has a scope to cut (nested chains, single
    drivers, empty scopes), the analysis returns the class scopes as they
    are, so it needs no gate."""

    @staticmethod
    def check(cbn, drivers, classes):
        patch, seen = record_requisite()
        with patch:
            for ip_class in classes:
                for direction in (Direction.MAX, Direction.MIN):
                    optimal_policy_value(cbn, drivers, ip_class, {"o": 1}, direction)
        # one analysis per shape, each returning its input
        assert seen == [{d: scope_for_class(cbn.dag, d, c) for d in drivers} for c in classes]

    def test_nested_chain(self):
        cbn = random_cbn(np.random.default_rng(5), nest(5))
        self.check(cbn, tuple(f"d{i}" for i in range(5)), (CLASS_INF,))

    def test_single_driver(self):
        self.check(screening_chain(), ("y1",), (CLASS0, CLASS1, CLASS_INF))

    def test_enumerated_drivers_without_scopes(self):
        cbn = random_cbn(np.random.default_rng(6), fan(3, 1))
        self.check(cbn, ("d0", "d1", "d2"), (CLASS0,))


class TestPrunedSearch:
    def test_explaining_away_keeps_the_optimum(self):
        # d and e have 16 class-1 tables each, so e (first in dag order) is
        # chained and d enumerated.  y is a noisy x xor z and o rewards
        # d == z: y alone says little of z, x and y together say much, so
        # a d that ignored x would fall short of the optimum.
        dag = explaining_away()
        base = random_cbn(np.random.default_rng(7), dag)
        y_rows = tuple((0.9, 0.1) if x == z else (0.1, 0.9) for x in range(2) for z in range(2))
        o_rows = tuple((0.2, 0.8) if d == z else (0.8, 0.2) for e in range(2) for z in range(2) for d in range(2))
        cbn = Cbn(dag, base.cards, dict(
            base.cpds,
            y=Cpd("y", ("x", "z"), (2, 2), y_rows),
            o=Cpd("o", ("e", "z", "d"), (2, 2, 2), o_rows),
        ))
        for direction in (Direction.MAX, Direction.MIN):
            value, pair = optimal_policy_value(cbn, ("e", "d"), CLASS1, {"o": 1}, direction)
            expect, _ = naive_policy_search(cbn, ("e", "d"), CLASS1, {"o": 1}, direction)
            assert abs(value - expect) <= 1e-12, direction
            assert interventional_prob(cbn, pair, {"o": 1}) == pytest.approx(value, abs=1e-12)
            blind, _ = optimal_policy_value(cbn, ("e", "d"), CLASS0, {"o": 1}, direction)
            assert abs(value - blind) > 0.2  # what d sees is worth a lot

    def test_fan_values_and_witnesses_match_the_full_search(self):
        cbn = random_cbn(np.random.default_rng(32), fan(3, 1))
        drivers = ("d0", "d1", "d2")
        patch, seen = record_requisite()
        for direction in (Direction.MAX, Direction.MIN):
            with patch:
                value, pair = optimal_policy_value(cbn, drivers, CLASS_INF, {"o": 1}, direction)
            expect, _ = naive_policy_search(cbn, drivers, CLASS_INF, {"o": 1}, direction)
            assert abs(value - expect) <= 1e-12
            assert interventional_prob(cbn, pair, {"o": 1}) == pytest.approx(value, abs=1e-12)
            for d in ("d1", "d2"):
                assert seen[-1][d] == ()
                assert len(set(pair.policy(d).table.rows)) == 1


    def test_witness_is_widened_across_a_member_after_a_kept_one(self):
        # e and d have 16 class-1 tables each, so e (first in dag order) is
        # chained and d enumerated.  d's scope is (x, r) in node order; o
        # rewards d == x, and r, listed after d, is a private root of d, so
        # the search drops r, the later member, and keeps x.
        dag = Dag(
            ["x", "w1", "w2", "e", "d", "r", "o"],
            [("x", "d"), ("r", "d"), ("x", "o"), ("w1", "e"), ("w2", "e"), ("e", "o"), ("d", "o")],
        )
        base = random_cbn(np.random.default_rng(12), dag)
        o_rows = tuple((0.1, 0.9) if d == x else (0.9, 0.1) for x in range(2) for e in range(2) for d in range(2))
        cbn = Cbn(dag, base.cards, dict(base.cpds, o=Cpd("o", ("x", "e", "d"), (2, 2, 2), o_rows)))
        patch, seen = record_requisite()
        for direction in (Direction.MAX, Direction.MIN):
            with patch:
                value, pair = optimal_policy_value(cbn, ("e", "d"), CLASS1, {"o": 1}, direction)
            assert seen[-1]["d"] == ("x",)
            expect, _ = naive_policy_search(cbn, ("e", "d"), CLASS1, {"o": 1}, direction)
            assert abs(value - expect) <= 1e-12, direction
            assert value == pytest.approx(0.9 if direction is Direction.MAX else 0.1, abs=1e-12)
            assert interventional_prob(cbn, pair, {"o": 1}) == pytest.approx(value, abs=1e-12)
            assert pair.policy("d").scope == ("x", "r")
            assert constant_across(pair, "d", ["r"])


def test_seeded_searches_cut_scopes_and_keep_the_optimum():
    # Numpy-seeded draws that reach the analysis: 2-3 drivers with parents
    # on 4-6 nodes, `random_cbn` rows, and the last node as the target, so
    # that what a driver sees can change its best table.
    rng = np.random.default_rng(2001)
    patch, seen = record_requisite()
    cases = cut = 0
    while cases < 60:
        dag = random_dag(rng, int(rng.integers(4, 7)))
        with_parents = [n for n in dag.nodes[:-1] if dag.parents(n)]
        if len(with_parents) < 2:
            continue
        k = int(rng.integers(2, min(3, len(with_parents)) + 1))
        drivers = tuple(str(d) for d in rng.choice(with_parents, size=k, replace=False))
        ip_class = (CLASS1, IpClass(2), CLASS_INF)[int(rng.integers(3))]
        scopes = class_scopes(dag, drivers, ip_class)
        if prod(2 ** 2 ** len(scope) for scope in scopes.values()) > 256:
            continue
        cbn = random_cbn(rng, dag)
        desired = {dag.nodes[-1]: int(rng.integers(2))}
        cases += 1
        calls = len(seen)
        for direction in (Direction.MAX, Direction.MIN):
            with patch:
                value, _ = optimal_policy_value(cbn, drivers, ip_class, desired, direction)
            expect, _ = naive_policy_search(cbn, drivers, ip_class, desired, direction)
            assert abs(value - expect) <= 1e-9, (dag, drivers, ip_class, direction)
        # the cut does not depend on the direction, and MIN reuses the
        # search plan MAX built, so cuts are counted per case
        cut += any(got != scopes for got in seen[calls:])
    assert cut >= 10
