"""Policies, policy classes, intervened graphs, mutilated networks."""

import re
from dataclasses import fields
from itertools import product

import numpy as np
import pytest

from cbnctrl import (
    CLAMP,
    CLASS0,
    CLASS1,
    CLASS_INF,
    Cbn,
    Cpd,
    Dag,
    IDag,
    InterventionPair,
    InterventionPolicy,
    IpClass,
    apply_intervention,
    atomic_policy,
    build_idag,
    classify_policy,
    i_subsumes,
    interventional_prob,
    scope_for_class,
    subsumes,
    surplus,
)
from cbnctrl.intervention import enumerate_deterministic_tables
from cbnctrl.oracle import enumerate_prob, random_cbn, random_dag

from test_cbn import TestPlanCache, xor_gate


def chain_abc():
    return Dag(["a", "b", "c"], [("a", "b"), ("b", "c")])


def scoped_policy(dag, cards, target, scope, choices):
    rows = tuple(
        tuple(1.0 if v == choice else 0.0 for v in range(cards[target]))
        for choice in choices
    )
    table = Cpd(target, tuple(scope), tuple(cards[s] for s in scope), rows)
    return InterventionPolicy(table)


class TestIpClass:
    def test_parse(self):
        assert IpClass.parse("0") == CLASS0
        assert IpClass.parse("1") == CLASS1
        assert IpClass.parse("inf") == CLASS_INF
        assert IpClass.parse("∞") == CLASS_INF

    def test_str(self):
        assert str(CLASS0) == "class-0"
        assert str(CLASS_INF) == "class-inf"

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            IpClass(-1)

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError):
            IpClass.parse("many")

    def test_numpy_integers_pass_and_bools_do_not(self):
        # levels are read as `value_index` reads values
        for level in (np.int64(2), np.uint8(2), 2.0, np.float64(2.0)):
            got = IpClass(level)
            assert got == IpClass(2) and type(got.level) is int, level
        assert IpClass(np.int32(0)) == CLASS0
        for level in (True, np.bool_(True), np.int64(-1), 2.5, "2"):
            with pytest.raises(ValueError, match="must be a non-negative integer or inf"):
                IpClass(level)

    def test_parse_reads_decimal_digits_only(self):
        # '²' is a digit to str.isdigit, but int() cannot read it
        for text in ("²", "1²", "-1", "+1", "1.0", ""):
            with pytest.raises(ValueError, match=f"^cannot parse policy class {re.escape(repr(text))}$"):
                IpClass.parse(text)
        assert IpClass.parse(" 02 ") == IpClass(2)
        assert IpClass.parse("Infinity") == CLASS_INF


class TestScopes:
    def test_scope_levels_on_chain(self):
        dag = chain_abc()
        assert scope_for_class(dag, "c", CLASS0) == ()
        assert scope_for_class(dag, "c", CLASS1) == ("b",)
        assert scope_for_class(dag, "c", IpClass(2)) == ("a", "b")
        assert scope_for_class(dag, "c", CLASS_INF) == ("a", "b")

    def test_classify_atomic_is_class_zero(self):
        assert classify_policy(chain_abc(), atomic_policy("c", 1, 2)) == CLASS0

    def test_classify_finds_smallest_level(self):
        # scope {a} on c sits two ancestry levels up, so the class is 2
        dag = chain_abc()
        policy = scoped_policy(dag, {"a": 2, "b": 2, "c": 2}, "c", ("a",), (0, 1))
        assert classify_policy(dag, policy) == IpClass(2)

    def test_classify_rejects_non_ancestor_scope(self):
        dag = chain_abc()
        policy = scoped_policy(dag, {"a": 2, "b": 2, "c": 2}, "a", ("c",), (0, 1))
        with pytest.raises(ValueError):
            classify_policy(dag, policy)


class TestInterventionPolicy:
    def test_a_policy_is_its_table(self):
        table = Cpd.from_choices("y", ("x",), (2,), 3, (2, 0))
        policy = InterventionPolicy(table)
        assert [f.name for f in fields(policy)] == ["table"]
        assert (policy.target, policy.scope, policy.card) == ("y", ("x",), 3)
        same = InterventionPolicy(Cpd("y", ("x",), (2,), ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0))))
        assert policy == same and hash(policy) == hash(same)
        assert policy != InterventionPolicy(Cpd.from_choices("y", ("x",), (2,), 3, (2, 1)))
        assert repr(policy).startswith("InterventionPolicy(table=Cpd(owner='y', parents=('x',),")
        for name in ("table", "target", "scope", "card"):
            with pytest.raises(AttributeError):
                setattr(policy, name, None)


class TestInterventionPair:
    def test_duplicate_target_rejected(self):
        with pytest.raises(ValueError):
            InterventionPair([atomic_policy("a", 0, 2), atomic_policy("a", 1, 2)])

    def test_insertion_order_kept(self):
        pair = InterventionPair.of(atomic_policy("b", 0, 2), atomic_policy("a", 1, 2))
        assert pair.targets == ("b", "a")
        assert len(pair) == 2
        assert "a" in pair

    def test_empty(self):
        assert len(InterventionPair.empty()) == 0


class TestIDag:
    def test_solid_edges_lose_inbound_dashed_gains_clamp(self):
        dag = chain_abc()
        idag = build_idag(dag, InterventionPair.of(atomic_policy("b", 1, 2)))
        assert idag.solid == frozenset({("b", "c")})
        assert idag.dashed == frozenset({(CLAMP, "b")})
        assert CLAMP in idag.graph()

    def test_every_intervened_node_gets_a_clamp_edge(self):
        dag = chain_abc()
        cards = {"a": 2, "b": 2, "c": 2}
        pair = InterventionPair.of(
            scoped_policy(dag, cards, "c", ("a", "b"), (0, 0, 1, 1)),
        )
        idag = build_idag(dag, pair)
        assert (CLAMP, "c") in idag.dashed
        assert ("a", "c") in idag.dashed and ("b", "c") in idag.dashed

    def test_subsumes_and_surplus(self):
        g1 = Dag(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
        g2 = Dag(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert subsumes(g1, g2)
        assert not subsumes(g2, g1)
        assert surplus(g1, g2) == frozenset({("a", "c")})
        assert subsumes(g1, g1) and surplus(g1, g1) == frozenset()

    def test_i_subsumes_reflexive(self):
        dag = chain_abc()
        idag = build_idag(dag, InterventionPair.of(atomic_policy("c", 1, 2)))
        assert i_subsumes(idag, idag)

    def test_full_scope_pair_i_subsumes_atomic_pair_on_same_set(self):
        dag = chain_abc()
        cards = {"a": 2, "b": 2, "c": 2}
        wide = build_idag(
            dag,
            InterventionPair.of(scoped_policy(dag, cards, "c", ("a", "b"), (0, 0, 1, 1))),
        )
        narrow = build_idag(dag, InterventionPair.of(atomic_policy("c", 1, 2)))
        assert i_subsumes(wide, narrow)
        assert not i_subsumes(narrow, wide)

    def test_smaller_intervened_set_does_not_i_subsume_larger(self):
        dag = Dag(["a", "y", "o"], [("a", "y"), ("y", "o")])
        one = build_idag(dag, InterventionPair.of(atomic_policy("a", 1, 2)))
        two = build_idag(
            dag,
            InterventionPair.of(atomic_policy("a", 1, 2), atomic_policy("y", 0, 2)),
        )
        assert not i_subsumes(one, two)

    def test_solid_surplus_does_not_i_subsume(self):
        # id1 holds id2's edges and dashed layer, but its surplus is a solid
        # edge, so clause (iii) alone says no.  `build_idag` cannot give
        # such a pair: a smaller intervened set keeps more solid edges.
        dag = chain_abc()
        id1 = IDag(dag, CLAMP, frozenset({("a", "b")}), frozenset({(CLAMP, "c")}))
        id2 = IDag(dag, CLAMP, frozenset(), frozenset({(CLAMP, "c")}))
        assert id2.plain_edges() <= id1.plain_edges() and id2.dashed <= id1.dashed
        assert not i_subsumes(id1, id2)
        assert i_subsumes(IDag(dag, CLAMP, frozenset(), frozenset({(CLAMP, "c"), ("a", "c")})), id2)

    def test_different_base_rejected(self):
        id1 = build_idag(chain_abc(), InterventionPair.of(atomic_policy("c", 1, 2)))
        id2 = build_idag(
            Dag(["a", "b", "c"], [("a", "b")]),
            InterventionPair.of(atomic_policy("c", 1, 2)),
        )
        with pytest.raises(ValueError):
            i_subsumes(id1, id2)

    def test_clamp_name_reserved(self):
        dag = Dag(["a", CLAMP], [])
        with pytest.raises(ValueError):
            build_idag(dag, InterventionPair.empty())


class TestApplyIntervention:
    def test_empty_pair_is_identity(self):
        cbn = xor_gate()
        assert apply_intervention(cbn, InterventionPair.empty()) == cbn

    def test_atomic_do_rewires_and_replaces(self):
        cbn = xor_gate()
        out = apply_intervention(cbn, InterventionPair.of(atomic_policy("y", 1, 2)))
        assert out.dag.parents("y") == ()
        assert out.cpd("y").rows == ((0.0, 1.0),)
        assert ("x", "y") not in out.dag.edges

    def test_do_y1_flips_the_gate(self):
        cbn = xor_gate()
        pair = InterventionPair.of(atomic_policy("y", 1, 2))
        assert interventional_prob(cbn, pair, {"o": 1}) == pytest.approx(0.3, abs=1e-9)

    def test_negation_policy_reproduces_the_distribution(self):
        # installing y := not x restores the exact original joint
        cbn = xor_gate()
        policy = scoped_policy(cbn.dag, cbn.cards, "y", ("x",), (1, 0))
        out = apply_intervention(cbn, InterventionPair.of(policy))
        for values in product(range(2), repeat=3):
            full = dict(zip(("x", "y", "o"), values))
            assert out.joint_prob(full) == pytest.approx(cbn.joint_prob(full), abs=1e-12)

    def test_cardinality_mismatch_rejected(self):
        # the probability route rejects a wrong target or scope-member card
        # with the same message as the network route, before any tensor
        cbn = xor_gate()
        wide_scope = Cpd("y", ("x",), (3,), ((1.0, 0.0),) * 3)
        for policy, message in (
            (atomic_policy("y", 2, 3), "policy on 'y' has cardinality 3, expected 2"),
            (
                InterventionPolicy(wide_scope),
                "policy on 'y': scope member 'x' cardinality 3, expected 2",
            ),
        ):
            pair = InterventionPair.of(policy)
            with pytest.raises(ValueError) as built:
                apply_intervention(cbn, pair)
            with pytest.raises(ValueError) as evaluated:
                interventional_prob(cbn, pair, {"o": 1})
            assert str(built.value) == str(evaluated.value) == message

    def test_empty_pair_probability_matches_marginal_exactly(self):
        # no table, so the marginal's own shape and plan: bit for bit, and
        # no plan of its own
        rng = np.random.default_rng(31)
        for _ in range(10):
            cbn = random_cbn(rng, random_dag(rng, int(rng.integers(2, 6))))
            nodes = cbn.dag.nodes
            for event in ({nodes[-1]: 1}, {nodes[0]: 0, nodes[-1]: 1}):
                expect = cbn.marginal_prob(event)
                plans = dict(cbn._plans)
                assert interventional_prob(cbn, InterventionPair.empty(), event) == expect
                assert cbn._plans == plans


def stochastic_policy(rng, cards, target, scope):
    """A policy on ``target`` reading ``scope``, in that order, with random
    rows."""
    scope_cards = tuple(cards[s] for s in scope)
    rows = []
    for _ in range(int(np.prod(scope_cards))):
        raw = rng.uniform(0.1, 1.0, cards[target])
        rows.append(tuple(raw / raw.sum()))
    return InterventionPolicy(Cpd(target, tuple(scope), scope_cards, tuple(rows)))


class TestFusedPlan:
    """`interventional_prob` contracts the policy tables in `Cbn`'s one
    plan, in place of their targets' CPDs; each shape must match the
    literal sum over the intervened network."""

    CARDS = {"a": 2, "b": 3, "c": 2, "d": 3, "e": 2}

    def network(self):
        # a -> b -> c -> d with a -> c and b -> d; e hangs off a, with no
        # directed path to c or d.  A dag of its own, so that no plan on it
        # is made yet.
        edges = [("a", "b"), ("a", "c"), ("b", "c"), ("b", "d"), ("c", "d"), ("a", "e")]
        return random_cbn(np.random.default_rng(3535), Dag(list(self.CARDS), edges), self.CARDS)

    def assert_literal(self, cbn, pair, given):
        # every value of the nodes ``given``, against the literal sum over
        # the intervened network
        intervened = apply_intervention(cbn, pair)
        for values in product(*(range(self.CARDS[n]) for n in given)):
            event = dict(zip(given, values))
            expect = enumerate_prob(intervened, event)
            assert abs(interventional_prob(cbn, pair, event) - expect) <= 1e-12, (pair, event)

    @pytest.mark.parametrize("case", [
        "target pinned", "target in a scope", "pair out of order", "scope out of order", "no path to the event",
    ])
    def test_matches_the_intervened_network(self, case):
        cbn, rng = self.network(), np.random.default_rng(len(case))

        def policy(target, scope):
            return stochastic_policy(rng, self.CARDS, target, scope)

        pair, given = {
            # the event pins c, which a policy sets, and a, which it reads
            "target pinned": (InterventionPair.of(policy("c", ("a",))), ("c", "a", "d")),
            # d's policy reads b, which a policy sets
            "target in a scope": (InterventionPair.of(policy("b", ("a",)), policy("d", ("b", "c"))), ("d",)),
            "pair out of order": (InterventionPair.of(policy("d", ("a",)), policy("b", ())), ("d", "c")),
            # the dag lists c's parents as a, b
            "scope out of order": (InterventionPair.of(policy("c", ("b", "a"))), ("d",)),
            "no path to the event": (InterventionPair.of(policy("e", ("a",)), policy("b", ("a",))), ("d",)),
        }[case]
        assert cbn.dag.parents("c") == ("a", "b")
        self.assert_literal(cbn, pair, given)

    def test_a_shape_is_planned_once_and_filled_per_call(self, monkeypatch):
        # pairs that differ only in their entries share one plan, each with
        # its own tables in place; a scope in another order is a shape of
        # its own
        cbn, rng = self.network(), np.random.default_rng(7)
        built = TestPlanCache.plans_built(monkeypatch)
        for scope in (("a", "b"), ("a", "b"), ("b", "a")):
            self.assert_literal(cbn, InterventionPair.of(stochastic_policy(rng, self.CARDS, "c", scope)), ("d", "c"))
        assert built == [((), frozenset("c"), frozenset("dc"), (("c", s),)) for s in (("a", "b"), ("b", "a"))]


def widen(policy, wider_scope, cards):
    """Re-express a policy on a larger scope by ignoring the extra members."""
    rows = []
    for config in product(*(range(cards[s]) for s in wider_scope)):
        at = {s: v for s, v in zip(wider_scope, config) if s in policy.scope}
        rows.append(policy.table.rows[policy.table.row_index(at)])
    table = Cpd(
        policy.target,
        tuple(wider_scope),
        tuple(cards[s] for s in wider_scope),
        tuple(rows),
    )
    return InterventionPolicy(table)


class TestSubsumptionSemantics:
    def test_wider_scopes_can_reproduce_any_narrower_behavior(self):
        # whenever one intervened graph i-subsumes another over the same
        # intervened set, embedding the narrow policies as scope-ignoring
        # tables must reproduce the narrow joint exactly
        rng = np.random.default_rng(404)
        for _ in range(20):
            dag = random_dag(rng, int(rng.integers(3, 6)))
            cbn = random_cbn(rng, dag)
            candidates = [n for n in dag.nodes if dag.ancestors(n)]
            if not candidates:
                continue
            target = candidates[int(rng.integers(0, len(candidates)))]
            anc = dag.ancestors(target)
            narrow_scope = tuple(s for s in anc if rng.random() < 0.5)
            choices = tuple(
                int(rng.integers(0, cbn.cards[target]))
                for _ in range(int(np.prod([cbn.cards[s] for s in narrow_scope])) if narrow_scope else 1)
            )
            narrow = scoped_policy(dag, cbn.cards, target, narrow_scope, choices)
            wide = widen(narrow, anc, cbn.cards)

            id_wide = build_idag(dag, InterventionPair.of(wide))
            id_narrow = build_idag(dag, InterventionPair.of(narrow))
            assert i_subsumes(id_wide, id_narrow)

            out_w = apply_intervention(cbn, InterventionPair.of(wide))
            out_n = apply_intervention(cbn, InterventionPair.of(narrow))
            for values in product(*(range(cbn.cards[n]) for n in dag.nodes)):
                full = dict(zip(dag.nodes, values))
                assert out_w.joint_prob(full) == pytest.approx(out_n.joint_prob(full), abs=1e-12)


class TestDeterministicTables:
    def test_enumeration_is_exhaustive_and_lexicographic(self):
        policies = list(enumerate_deterministic_tables("b", ("a",), (2,), 2))
        assert len(policies) == 4
        assert policies[0].table.rows == ((1.0, 0.0), (1.0, 0.0))
        assert policies[-1].table.rows == ((0.0, 1.0), (0.0, 1.0))

    def test_from_choices_equals_the_public_constructor(self):
        rng = np.random.default_rng(17)
        for _ in range(80):
            card = int(rng.integers(2, 4))
            scope = ("a", "b", "c")[: int(rng.integers(0, 4))]
            scope_cards = tuple(int(c) for c in rng.integers(2, 4, size=len(scope)))
            cells = int(np.prod(scope_cards))
            choices = tuple(int(c) for c in rng.integers(0, card, size=cells))
            rows = tuple(tuple(1.0 if v == c else 0.0 for v in range(card)) for c in choices)
            expect = Cpd("t", scope, scope_cards, rows)
            table = Cpd.from_choices("t", scope, scope_cards, card, choices)
            assert table.parents == scope
            assert table == expect
            assert hash(table) == hash(expect)

    def test_from_choices_checks_choices_and_shape(self):
        with pytest.raises(ValueError, match="one choice per scope configuration"):
            Cpd.from_choices("t", ("a",), (2,), 2, (0,))
        with pytest.raises(ValueError, match="one choice per scope configuration"):
            Cpd.from_choices("t", ("a",), (2,), 2, (0, 1, 0))
        for bad in (2, -1):
            with pytest.raises(ValueError, match=r"range\(2\)"):
                Cpd.from_choices("t", ("a",), (2,), 2, (0, bad))
        # the rows are trusted, the shape is not
        with pytest.raises(ValueError, match="'t': cardinality 1 < 2"):
            Cpd.from_choices("t", ("a",), (2,), 1, (0, 0))
        with pytest.raises(ValueError, match="parent 'a' cardinality 1 < 2"):
            Cpd.from_choices("t", ("a",), (1,), 2, (0,))
        with pytest.raises(ValueError, match="repeats a parent"):
            Cpd.from_choices("t", ("a", "a"), (2, 2), 2, (0,) * 4)
        with pytest.raises(ValueError, match="lists itself as a parent"):
            Cpd.from_choices("t", ("t",), (2,), 2, (0, 1))

    def test_bool_and_float_choices_refused_by_owner(self):
        # 1.0 and True would otherwise pass for choice 1
        for bad in (True, 1.0, 0.5, np.float64(1.0), np.bool_(True)):
            with pytest.raises(ValueError, match=r"choice .* for 't' must be an integer"):
                Cpd.from_choices("t", ("a",), (2,), 2, (0, bad))
            with pytest.raises(ValueError, match=r"choice .* for 't' must be an integer"):
                Cpd.from_choices("t", ("a",), (2,), 2, [bad, 0])
        for bad in (np.array([0.0, 1.0]), np.array([False, True])):
            with pytest.raises(ValueError, match=f"dtype {bad.dtype} for 't' must be integers"):
                Cpd.from_choices("t", ("a",), (2,), 2, bad)

    def test_integer_arrays_give_the_tuple_built_table(self):
        rng = np.random.default_rng(19)
        for dtype in (np.intp, np.int8, np.uint16):
            for _ in range(20):
                card = int(rng.integers(2, 4))
                scope = ("a", "b", "c")[: int(rng.integers(0, 4))]
                scope_cards = tuple(int(c) for c in rng.integers(2, 4, size=len(scope)))
                choices = rng.integers(0, card, size=int(np.prod(scope_cards))).astype(dtype)
                table = Cpd.from_choices("t", scope, scope_cards, card, choices)
                expect = Cpd.from_choices("t", scope, scope_cards, card, tuple(choices.tolist()))
                assert table == expect and hash(table) == hash(expect)
                assert np.array_equal(table.array(), np.eye(card)[choices].reshape(*scope_cards, card))

    def test_with_choices_fills_a_checked_table_as_from_choices_does(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            card = int(rng.integers(2, 4))
            scope = ("a", "b", "c")[: int(rng.integers(0, 4))]
            scope_cards = tuple(int(c) for c in rng.integers(2, 4, size=len(scope)))
            cells = int(np.prod(scope_cards))
            first = Cpd.from_choices("t", scope, scope_cards, card, (0,) * cells)
            choices = rng.integers(0, card, size=cells)
            for given in (choices, choices.astype(np.uint8), tuple(choices.tolist())):
                table = first.with_choices(given)
                expect = Cpd.from_choices("t", scope, scope_cards, card, given)
                assert table == expect and hash(table) == hash(expect)
                assert table.rows[0] is expect.rows[0]
            assert first.rows == ((1.0,) + (0.0,) * (card - 1),) * cells

    def test_with_choices_refuses_as_from_choices_does(self):
        first = Cpd.from_choices("t", ("a",), (2,), 2, (0, 0))
        cases = [
            ((0,), "one choice per scope configuration required"),
            ((0, 1, 0), "one choice per scope configuration required"),
            (np.zeros((2, 1), dtype=int), "one choice per scope configuration required"),
            (np.zeros(3, dtype=int), "one choice per scope configuration required"),
            ((0, 2), "every choice must lie in range(2)"),
            ((0, -1), "every choice must lie in range(2)"),
            ((-2, 0), "every choice must lie in range(2)"),
            (np.array([0, 2]), "every choice must lie in range(2)"),
            (np.array([-1, 0]), "every choice must lie in range(2)"),
            (np.array([0, -1], dtype=np.int8), "every choice must lie in range(2)"),
            ((0, True), "choice True for 't' must be an integer"),
            ((1.0, 0), "choice 1.0 for 't' must be an integer"),
            ([0, np.float64(1.0)], f"choice {np.float64(1.0)!r} for 't' must be an integer"),
            (np.array([0.0, 1.0]), "choices of dtype float64 for 't' must be integers"),
            (np.array([False, True]), "choices of dtype bool for 't' must be integers"),
        ]
        for choices, text in cases:
            for build in (first.with_choices, lambda c: Cpd.from_choices("t", ("a",), (2,), 2, c)):
                with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
                    build(choices)

    def test_arrays_refused_as_tuples_are(self):
        with pytest.raises(ValueError, match="one choice per scope configuration"):
            Cpd.from_choices("t", ("a",), (2,), 2, np.zeros((2, 1), dtype=int))
        with pytest.raises(ValueError, match="one choice per scope configuration"):
            Cpd.from_choices("t", ("a",), (2,), 2, np.zeros(3, dtype=int))
        for bad in (2, -1):
            with pytest.raises(ValueError, match=r"range\(2\)"):
                Cpd.from_choices("t", ("a",), (2,), 2, np.array([0, bad]))
