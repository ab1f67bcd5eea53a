"""Parametrized networks and exact inference on the joint tensor.

The two-node chain values below are frozen from hand computation:
P(a=1)=0.7, P(b=1|a=0)=0.2, P(b=1|a=1)=0.5 give joint
P(a=1,b=1) = 0.7*0.5 = 0.35, marginal P(b=1) = 0.3*0.2 + 0.7*0.5 = 0.41,
conditional P(b=1|a=1) = 0.5.
"""

import re
from itertools import islice, permutations, product

import numpy as np
import pytest

from cbnctrl import (
    Budget,
    BudgetExceededError,
    Cbn,
    Cpd,
    Dag,
    InterventionPair,
    InterventionPolicy,
    ZeroProbabilityError,
    apply_intervention,
    atomic_policy,
    ci_holds,
    interventional_prob,
    usm_adversarial_cbn,
)
from cbnctrl.oracle import enumerate_prob, random_cbn, random_dag


def chain_ab():
    dag = Dag(["a", "b"], [("a", "b")])
    cpds = {
        "a": Cpd("a", (), (), ((0.3, 0.7),)),
        "b": Cpd("b", ("a",), (2,), ((0.8, 0.2), (0.5, 0.5))),
    }
    return Cbn(dag, {"a": 2, "b": 2}, cpds)


def xor_gate():
    # y negates x, o fires exactly when x and y disagree
    dag = Dag(["x", "y", "o"], [("x", "y"), ("x", "o"), ("y", "o")])
    cpds = {
        "x": Cpd("x", (), (), ((0.3, 0.7),)),
        "y": Cpd("y", ("x",), (2,), ((0.0, 1.0), (1.0, 0.0))),
        "o": Cpd(
            "o",
            ("x", "y"),
            (2, 2),
            ((1.0, 0.0), (0.0, 1.0), (0.0, 1.0), (1.0, 0.0)),
        ),
    }
    return Cbn(dag, {"x": 2, "y": 2, "o": 2}, cpds)


class TestCpd:
    def test_row_sum_enforced(self):
        with pytest.raises(ValueError, match="sum"):
            Cpd("a", (), (), ((0.5, 0.6),))

    def test_row_count_must_match_scope_product(self):
        with pytest.raises(ValueError):
            Cpd("b", ("a",), (2,), ((1.0, 0.0),))

    def test_entries_must_be_probabilities(self):
        with pytest.raises(ValueError):
            Cpd("a", (), (), ((-0.1, 1.1),))

    def test_row_indexing_is_last_parent_fastest(self):
        cpd = Cpd(
            "c",
            ("a", "b"),
            (2, 2),
            ((1.0, 0.0), (0.0, 1.0), (0.5, 0.5), (0.25, 0.75)),
        )
        assert cpd.row_index({"a": 0, "b": 1}) == 1
        assert cpd.row_index({"a": 1, "b": 0}) == 2
        assert cpd.prob(1, {"a": 1, "b": 1}) == 0.75

    def test_delta(self):
        cpd = Cpd.delta("a", 2, 3)
        assert cpd.rows == ((0.0, 0.0, 1.0),)

    def test_row_sum_tolerance_is_tight(self):
        Cpd("a", (), (), ((0.5, 0.5 + 5e-10),))
        with pytest.raises(ValueError):
            Cpd("a", (), (), ((0.5, 0.5 + 5e-9),))

    def test_delta_rejects_a_bool_value(self):
        with pytest.raises(ValueError, match="value True for 'a' must be an integer"):
            Cpd.delta("a", True, 2)

    def test_delta_rejects_an_integral_float_value(self):
        with pytest.raises(ValueError, match="value 1.0 for 'a' must be an integer"):
            Cpd.delta("a", 1.0, 2)

    def test_delta_rejects_a_fractional_value_by_name(self):
        with pytest.raises(ValueError, match="value 0.5 for 'a' must be an integer"):
            Cpd.delta("a", 0.5, 2)

    def test_delta_refusals_keep_their_texts(self):
        cases = [
            (("a", 0, 1), "cpd for 'a': cardinality 1 < 2"),
            (("", 0, 2), "cpd owner must be a non-empty string"),
            ((3, 0, 2), "cpd owner must be a non-empty string"),
            (("a", 2, 2), "value 2 out of range for 'a' (card 2)"),
            (("a", -1, 2), "value -1 out of range for 'a' (card 2)"),
            (("a", 0, 2.0), "cardinality 2.0 for 'a' must be an integer"),
            (("a", 0, True), "cardinality True for 'a' must be an integer"),
        ]
        for args, text in cases:
            with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
                Cpd.delta(*args)

    def test_float_parent_card_rejected_not_truncated(self):
        with pytest.raises(ValueError, match="cardinality 2.7 for 'b' must be an integer"):
            Cpd("a", ("b",), (2.7,), ((0.5, 0.5), (0.5, 0.5)))

    def test_numpy_integers_accepted_as_values_and_cards(self):
        assert Cpd.delta("a", np.int64(1), np.int32(2)).rows == ((0.0, 1.0),)
        cpd = Cpd("a", ("b",), (np.int64(2),), ((0.5, 0.5), (0.5, 0.5)))
        assert cpd.parent_cards == (2,) and type(cpd.parent_cards[0]) is int


class TestCbnValidation:
    def test_cards_must_cover_nodes(self):
        dag = Dag(["a"], [])
        with pytest.raises(ValueError):
            Cbn(dag, {}, {"a": Cpd("a", (), (), ((1.0,),))})

    def test_cardinality_at_least_two(self):
        dag = Dag(["a"], [])
        with pytest.raises(ValueError, match="must be >= 2"):
            Cbn(dag, {"a": 1}, {"a": Cpd("a", (), (), ((0.5, 0.5),))})

    def test_float_card_rejected_not_truncated(self):
        dag = Dag(["a"], [])
        with pytest.raises(ValueError, match="cardinality 2.9 for 'a' must be an integer"):
            Cbn(dag, {"a": 2.9}, {"a": Cpd("a", (), (), ((0.5, 0.5),))})

    def test_bool_card_rejected(self):
        dag = Dag(["a"], [])
        with pytest.raises(ValueError, match="cardinality True for 'a' must be an integer"):
            Cbn(dag, {"a": True}, {"a": Cpd("a", (), (), ((0.5, 0.5),))})

    def test_numpy_integer_card_accepted(self):
        cbn = Cbn(Dag(["a"], []), {"a": np.int16(2)}, {"a": Cpd("a", (), (), ((0.5, 0.5),))})
        assert cbn.cards == {"a": 2} and type(cbn.cards["a"]) is int

    def test_cpd_parents_must_match_dag(self):
        dag = Dag(["a", "b"], [("a", "b")])
        cpds = {
            "a": Cpd("a", (), (), ((0.5, 0.5),)),
            "b": Cpd("b", (), (), ((0.5, 0.5),)),
        }
        with pytest.raises(ValueError, match="parents"):
            Cbn(dag, {"a": 2, "b": 2}, cpds)

    def test_state_space_size(self):
        assert xor_gate().state_space_size() == 8


HALF = (0.5, 0.5)


class TestRefusalTexts:
    """The exact text of each `Cpd` and `Cbn` refusal, as `netfile` prefixes
    it with a field path and the CLI prints it; row 0 is valid wherever a
    row index is named."""

    @pytest.mark.parametrize(
        "args, message",
        [
            (("", (), (), (HALF,)), "cpd owner must be a non-empty string"),
            (("b", ("a",), (), (HALF, HALF)), "cpd for 'b': one cardinality per parent required"),
            (("b", ("a",), (2,), (HALF,)), "cpd for 'b': 1 rows, expected 2"),
            (("b", ("a",), (2,), (HALF, (1.0,))), "cpd for 'b': row 1 has length 1 != 2"),
            (("b", ("a",), (2,), (HALF, (-0.1, 1.1))), "cpd for 'b': row 1 entry -0.1 outside [0, 1]"),
            (("b", ("a",), (2,), (HALF, (0.2, 1.0))), "cpd for 'b': row 1 sums to 1.2, not 1"),
        ],
    )
    def test_cpd(self, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Cpd(*args)

    @pytest.mark.parametrize(
        "cpds, message",
        [
            ({"a": Cpd("b", (), (), (HALF,))}, "cpd stored under 'a' is owned by 'b'"),
            ({"b": Cpd("b", (), (), (HALF,))}, "cpd for 'b' conditions on [], dag parents are ['a']"),
            (
                {"b": Cpd("b", ("a",), (2,), ((0.5, 0.5, 0.0), (0.0, 0.5, 0.5)))},
                "cpd for 'b' has cardinality 3, expected 2",
            ),
            ({"b": Cpd("b", ("a",), (3,), (HALF,) * 3)}, "cpd for 'b': parent 'a' cardinality 3, expected 2"),
        ],
    )
    def test_cbn(self, cpds, message):
        dag = Dag(["a", "b"], [("a", "b")])
        good = {"a": Cpd("a", (), (), (HALF,)), "b": Cpd("b", ("a",), (2,), (HALF, HALF))}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Cbn(dag, {"a": 2, "b": 2}, {**good, **cpds})

    def test_cpd_lookups_out_of_range(self):
        cpd = Cpd("b", ("a",), (2,), (HALF, HALF))
        cases = [
            (lambda: cpd.row_index({"a": 2}), "value 2 out of range for 'a' (card 2)"),
            (lambda: cpd.row_index({"a": -1}), "value -1 out of range for 'a' (card 2)"),
            (lambda: cpd.prob(2, {"a": 0}), "value 2 out of range for 'b' (card 2)"),
            (lambda: cpd.prob(0, {"a": 3}), "value 3 out of range for 'a' (card 2)"),
        ]
        for lookup, message in cases:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                lookup()

    def test_cbn_covers_the_dag_and_names_unknown_nodes(self):
        dag = Dag(["a", "b"], [("a", "b")])
        good = {"a": Cpd("a", (), (), (HALF,)), "b": Cpd("b", ("a",), (2,), (HALF, HALF))}
        cases = [
            (({"a": 2}, good), "cards must cover exactly the dag nodes"),
            (({"a": 2, "b": 2, "c": 2}, good), "cards must cover exactly the dag nodes"),
            (({"a": 2, "b": 2}, {"a": good["a"]}), "cpds must cover exactly the dag nodes"),
            (
                ({"a": 2, "b": 2}, {**good, "c": Cpd("c", (), (), (HALF,))}),
                "cpds must cover exactly the dag nodes",
            ),
        ]
        for (cards, cpds), message in cases:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                Cbn(dag, cards, cpds)
        with pytest.raises(ValueError, match="^unknown node 'zz'$"):
            Cbn(dag, {"a": 2, "b": 2}, good).cpd("zz")


class TestInference:
    def test_chain_joint(self):
        assert chain_ab().joint_prob({"a": 1, "b": 1}) == pytest.approx(0.35, abs=1e-9)

    def test_chain_marginal(self):
        assert chain_ab().marginal_prob({"b": 1}) == pytest.approx(0.41, abs=1e-9)

    def test_chain_conditional(self):
        assert chain_ab().conditional_prob({"b": 1}, {"a": 1}) == pytest.approx(0.5, abs=1e-9)

    def test_conditional_times_marginal_recovers_joint(self):
        cbn = chain_ab()
        lhs = cbn.conditional_prob({"b": 1}, {"a": 1}) * cbn.marginal_prob({"a": 1})
        assert abs(lhs - cbn.marginal_prob({"a": 1, "b": 1})) <= 1e-12

    def test_zero_denominator_raises(self):
        dag = Dag(["a", "b"], [("a", "b")])
        cpds = {
            "a": Cpd("a", (), (), ((0.0, 1.0),)),
            "b": Cpd("b", ("a",), (2,), ((0.5, 0.5), (0.5, 0.5))),
        }
        cbn = Cbn(dag, {"a": 2, "b": 2}, cpds)
        with pytest.raises(ZeroProbabilityError):
            cbn.conditional_prob({"b": 0}, {"a": 0})

    def test_overlapping_event_and_given_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            chain_ab().conditional_prob({"a": 0}, {"a": 1})

    def test_xor_target_is_certain(self):
        assert xor_gate().marginal_prob({"o": 1}) == 1.0

    def test_joint_sums_to_one(self):
        rng = np.random.default_rng(5150)
        for _ in range(15):
            cbn = random_cbn(rng, random_dag(rng, int(rng.integers(2, 6))))
            total = 0.0
            for values in product(*(range(cbn.cards[n]) for n in cbn.dag.nodes)):
                total += cbn.joint_prob(dict(zip(cbn.dag.nodes, values)))
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_marginal_consistency(self):
        # marginalizing one variable at a time must agree with direct queries
        rng = np.random.default_rng(640)
        for _ in range(10):
            cbn = random_cbn(rng, random_dag(rng, 4))
            n0, n1 = cbn.dag.nodes[0], cbn.dag.nodes[1]
            direct = cbn.marginal_prob({n0: 1})
            summed = sum(cbn.marginal_prob({n0: 1, n1: v}) for v in range(cbn.cards[n1]))
            assert direct == pytest.approx(summed, abs=1e-12)

    def test_full_assignment_required_for_joint(self):
        with pytest.raises(ValueError):
            chain_ab().joint_prob({"a": 1})

    def test_event_values_validated(self):
        with pytest.raises(ValueError):
            chain_ab().marginal_prob({"b": 5})
        with pytest.raises(ValueError):
            chain_ab().marginal_prob({"zz": 0})

    def test_bool_and_float_values_rejected(self):
        # numpy reads a bool index as a mask, which would drop the event
        # without a word, and cannot index with a float
        cbn = chain_ab()
        for value in (True, False, np.bool_(True), 1.0, 0.5):
            with pytest.raises(ValueError, match="value .* for 'b' must be an integer"):
                cbn.marginal_prob({"b": value})
            with pytest.raises(ValueError, match="'b'"):
                cbn.conditional_prob({"b": value}, {"a": 1})
            with pytest.raises(ValueError, match="'b'"):
                cbn.conditional_prob({"a": 1}, {"b": value})
            with pytest.raises(ValueError, match="'b'"):
                cbn.joint_prob({"a": 1, "b": value})

    def test_cpd_lookups_reject_bool_and_float_values(self):
        cpd = chain_ab().cpd("b")
        for value in (True, False, np.bool_(True), 1.0, 0.5):
            with pytest.raises(ValueError, match="value .* for 'b' must be an integer"):
                cpd.prob(value, {"a": 1})
            with pytest.raises(ValueError, match="value .* for 'a' must be an integer"):
                cpd.prob(1, {"a": value})
            with pytest.raises(ValueError, match="value .* for 'a' must be an integer"):
                cpd.row_index({"a": value})
        assert cpd.prob(np.int64(1), {"a": np.uint8(1)}) == 0.5

    def test_numpy_integer_values_accepted(self):
        cbn = chain_ab()
        assert cbn.marginal_prob({"b": np.int64(1)}) == cbn.marginal_prob({"b": 1})
        assert cbn.conditional_prob({"b": np.int8(1)}, {"a": np.uint8(1)}) == pytest.approx(0.5)


def cross_check_networks():
    """Seeded binary, ternary and 0/1-row networks."""
    rng = np.random.default_rng(4242)
    for _ in range(6):
        dag = random_dag(rng, int(rng.integers(2, 9)))
        yield rng, random_cbn(rng, dag)
        dag = random_dag(rng, int(rng.integers(2, 6)))
        yield rng, random_cbn(rng, dag, card=3)
        dag = random_dag(rng, int(rng.integers(2, 9)))
        drivers = [n for n in dag.nodes[:-1] if rng.random() < 0.5]
        yield rng, usm_adversarial_cbn(dag, drivers, dag.nodes[-1:])[0]


def sixty_node_chain():
    """A binary chain v0 -> ... -> v59, with P(v0=1) = 0.75."""
    names = [f"v{i}" for i in range(60)]
    dag = Dag(names, list(zip(names, names[1:])))
    cpds = {"v0": Cpd("v0", (), (), ((0.25, 0.75),))}
    for a, b in zip(names, names[1:]):
        cpds[b] = Cpd(b, (a,), (2,), ((0.9, 0.1), (0.2, 0.8)))
    return Cbn(dag, dict.fromkeys(names, 2), cpds)


def random_event(rng, cbn, size):
    nodes = cbn.dag.nodes
    picked = rng.choice(len(nodes), size=min(size, len(nodes)), replace=False)
    return {nodes[i]: int(rng.integers(cbn.cards[nodes[i]])) for i in sorted(picked)}


def random_pair(rng, cbn):
    """An atomic policy on one node and a stochastic policy on another that
    reads up to two of its parents."""
    nodes = cbn.dag.nodes
    cards = cbn.cards
    first, second = (nodes[i] for i in rng.choice(len(nodes), size=2, replace=False))
    scope = cbn.dag.parents(second)[:2]
    scope_cards = tuple(cards[s] for s in scope)
    rows = []
    for _ in range(int(np.prod(scope_cards))):
        raw = rng.uniform(0.0, 1.0, cards[second])
        rows.append(tuple(raw / raw.sum()))
    table = Cpd(second, scope, scope_cards, tuple(rows))
    return InterventionPair.of(
        atomic_policy(first, int(rng.integers(cards[first])), cards[first]),
        InterventionPolicy(table),
    )


def mixed_card_pairs():
    """Networks of binary and ternary nodes, each with a pair of stochastic
    policies listed in reverse node order, whose scopes are drawn from the
    full ancestry and listed in reverse node order too.  Its own rng, so
    the cases above draw what they always drew."""
    rng = np.random.default_rng(6151)
    for _ in range(24):
        dag = random_dag(rng, int(rng.integers(4, 7)), 0.5)
        cards = {n: int(rng.integers(2, 4)) for n in dag.nodes}
        cbn = random_cbn(rng, dag, cards)
        candidates = [n for n in dag.nodes if dag.ancestors(n)]
        if not candidates:
            continue
        picked = rng.choice(len(candidates), size=min(2, len(candidates)), replace=False)
        policies = []
        for target in sorted((candidates[i] for i in picked), key=dag.index, reverse=True):
            ancestors = dag.ancestors(target)
            scope = [a for a in ancestors if rng.random() < 0.7] or list(ancestors)
            scope = tuple(sorted(scope[:3], key=dag.index, reverse=True))
            scope_cards = tuple(cards[a] for a in scope)
            rows = []
            for _ in range(int(np.prod(scope_cards))):
                raw = rng.uniform(0.0, 1.0, cards[target])
                rows.append(tuple(raw / raw.sum()))
            table = Cpd(target, scope, scope_cards, tuple(rows))
            policies.append(InterventionPolicy(table))
        yield rng, cbn, InterventionPair(policies)


class TestFactorCache:
    """`Cbn.joint` contracts CPD tables built once per network."""

    def test_repeated_joints_are_bit_identical(self):
        for rng, cbn in cross_check_networks():
            nodes = cbn.dag.nodes
            queries = [
                (
                    random_event(rng, cbn, int(rng.integers(0, len(nodes) + 1))),
                    tuple(n for n in nodes if rng.random() < 0.3),
                )
                for _ in range(4)
            ]
            # on a new, equal dag, so that no plan of ``cbn``'s is shared
            dag = Dag(cbn.dag.nodes, cbn.dag.edges)
            fresh = [Cbn(dag, cbn.cards, cbn.cpds).joint(e, s).tobytes() for e, s in queries]
            for _ in range(2):
                for (event, skip), expect in zip(queries, fresh):
                    tensor = cbn.joint(event, skip)
                    assert tensor.tobytes() == expect
                    tensor[...] = -1.0

    def test_networks_share_one_read_only_array_per_table(self):
        first = chain_ab()
        second = Cbn(first.dag, first.cards, first.cpds)
        for name in first.dag.nodes:
            table = first.cpd(name).array()
            assert second.cpd(name).array() is table
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[...] = 0.0
        assert second.marginal_prob({"b": 1}) == pytest.approx(0.41, abs=1e-12)

    def test_mutating_a_joint_leaves_the_next_untouched(self):
        cbn = chain_ab()
        first = cbn.joint()
        first *= 0.0
        assert cbn.joint({"b": 1}).sum() == pytest.approx(0.41, abs=1e-12)
        assert cbn.marginal_prob({"a": 1, "b": 1}) == pytest.approx(0.35, abs=1e-12)


    def test_keep_is_the_summed_and_permuted_joint(self):
        for rng, cbn in cross_check_networks():
            nodes = cbn.dag.nodes
            for _ in range(4):
                event = random_event(rng, cbn, int(rng.integers(0, len(nodes) + 1)))
                skip = tuple(n for n in nodes if rng.random() < 0.3)
                size = int(rng.integers(0, len(nodes) + 1))
                keep = [nodes[i] for i in rng.permutation(len(nodes))[:size]]
                full = cbn.joint(event, skip)
                summed = full.sum(axis=tuple(i for i, n in enumerate(nodes) if n not in keep))
                in_order = [n for n in nodes if n in keep]
                expect = np.transpose(summed, [in_order.index(n) for n in keep])
                got = cbn.joint(event, skip, keep=keep)
                assert got.shape == tuple(cbn.cards[n] for n in keep)
                # the contraction sums in another order than the full joint
                assert np.max(np.abs(got - expect), initial=0.0) <= 1e-12

    def test_keep_nothing_is_a_0d_marginal(self):
        for rng, cbn in cross_check_networks():
            event = random_event(rng, cbn, int(rng.integers(0, len(cbn.dag.nodes) + 1)))
            got = cbn.joint(event, keep=())
            assert isinstance(got, np.ndarray) and got.ndim == 0
            assert float(got) == cbn.marginal_prob(event)

    def test_keep_names_are_checked(self):
        cbn = xor_gate()
        with pytest.raises(ValueError, match="unknown node 'x2'"):
            cbn.joint(keep=("o", "x2"))
        with pytest.raises(ValueError, match="repeats"):
            cbn.joint(keep=("o", "x", "o"))

    def test_kept_marginal_is_contiguous_writable_and_leaves_the_cache(self):
        cbn = xor_gate()
        keep = ("o", "x")
        expect = cbn.joint(keep=keep).tobytes()
        # y pinned, so it slices tables; y kept, so it is a one-hot factor;
        # o skipped and kept, so a ones factor covers it
        for skip, keep_ in (((), keep), ((), ("x", "y", "o")), ((), ()), (("o",), ("o", "y"))):
            first = cbn.joint({"y": 1}, skip, keep=keep_)
            again = first.tobytes()
            assert first.flags.c_contiguous and first.flags.writeable
            first[...] = -1.0
            assert cbn.joint({"y": 1}, skip, keep=keep_).tobytes() == again
        assert cbn.joint(keep=keep).tobytes() == expect
        assert cbn.marginal_prob({"o": 1}) == pytest.approx(1.0, abs=1e-12)


class TestPlanCache:
    """`Cbn.joint` plans each query shape once per network: the kept
    nodes, the skipped set and the nodes the event names."""

    @staticmethod
    def plans_built(monkeypatch):
        built = []
        plan = Cbn._plan

        def recording(self, *shape):
            built.append(shape)
            return plan(self, *shape)

        monkeypatch.setattr(Cbn, "_plan", recording)
        return built

    def test_a_warm_plan_matches_a_fresh_network_on_every_event_value(self):
        seen = dict.fromkeys(("event pinned", "event kept", "skip"), 0)
        for rng, cbn in cross_check_networks():
            nodes = cbn.dag.nodes
            cards = cbn.cards
            for _ in range(3):
                given = list(random_event(rng, cbn, int(rng.integers(1, 4))))
                skip = tuple(n for n in nodes if rng.random() < 0.3)
                keep = [nodes[i] for i in rng.permutation(len(nodes))[: int(rng.integers(0, 4))]]
                seen["event pinned"] += any(n not in keep for n in given)
                seen["event kept"] += any(n in keep for n in given)
                seen["skip"] += bool(skip)
                for values in product(*(range(cards[n]) for n in given)):
                    event = dict(zip(given, values))
                    # on a new, equal dag, so that the plan is made afresh
                    fresh = Cbn(Dag(cbn.dag.nodes, cbn.dag.edges), cards, cbn.cpds)
                    fresh = fresh.joint(event, skip, keep=keep)
                    assert cbn.joint(event, skip, keep=keep).tobytes() == fresh.tobytes()
        assert min(seen.values()) >= 10, seen

    def test_event_order_and_skip_type_share_one_plan(self, monkeypatch):
        built = self.plans_built(monkeypatch)
        rng = np.random.default_rng(17)
        cbn = random_cbn(rng, random_dag(rng, 6))
        nodes = cbn.dag.nodes
        event = {nodes[5]: 1, nodes[1]: 0, nodes[3]: 1}
        skip = (nodes[0], nodes[2])
        keep = (nodes[3], nodes[4])
        expect = cbn.joint(event, skip, keep=keep).tobytes()
        for event_ in (event, dict(reversed(event.items()))):
            for skip_ in (skip, list(skip), set(skip), tuple(reversed(skip))):
                assert cbn.joint(event_, skip_, keep=keep).tobytes() == expect
        assert len(built) == 1

    def test_a_refused_shape_stores_no_plan_and_refuses_again(self, monkeypatch):
        built = self.plans_built(monkeypatch)
        cbn = sixty_node_chain()
        budget = Budget(max_state_space=2 ** 60)
        for _ in range(2):
            with pytest.raises(BudgetExceededError, match="60 nodes exceeds the 52"):
                cbn.marginal_prob({"v59": 1}, budget)
        assert len(built) == 2
        assert cbn.marginal_prob({"v0": 1}, budget) == 0.75

    def test_an_unknown_or_string_skip_is_refused_and_stores_no_plan(self, monkeypatch):
        rng = np.random.default_rng(1)
        cbn = random_cbn(rng, random_dag(rng, 5, 0.6))
        good = cbn.joint({"v4": 1}, skip=("v1",), keep=())
        built = self.plans_built(monkeypatch)
        # a string is iterated as its characters, and the refusal names the
        # unknown of smallest repr
        for skip, name in (("v1", "1"), (("V1",), "V1"), (("v1", "zz", "yy"), "yy")):
            for _ in range(2):
                with pytest.raises(ValueError, match=f"^unknown node '{name}'$"):
                    cbn.joint({"v4": 1}, skip=skip, keep=())
        assert len(built) == 6 and len(cbn._plans) == 1
        assert cbn.joint({"v4": 1}, skip=("v1",), keep=()) == good

    def test_a_warm_shape_still_checks_every_call(self):
        cbn = xor_gate()
        keep = ("o", "x")
        warm = cbn.joint({"y": 1}, keep=keep).tobytes()
        for event in ({"y": 2}, {"y": -1}, {"y": True}):
            with pytest.raises(ValueError, match="out of range|must be an integer"):
                cbn.joint(event, keep=keep)
        with pytest.raises(ValueError, match="repeats"):
            cbn.joint({"y": 1}, keep=("o", "x", "o"))
        with pytest.raises(BudgetExceededError, match="exceeds the cap of 4"):
            cbn.joint({"y": 1}, budget=Budget(max_state_space=4), keep=keep)
        assert cbn.joint({"y": 1}, keep=keep).tobytes() == warm


class TestContraction:
    """`Cbn.joint` contracts only the factors a query needs: barren nodes
    are dropped and event values slice the folded product."""

    @staticmethod
    def literal(cbn, event, skip, keep):
        # the joint without the skipped CPDs, as literal sums: each skipped
        # node gets a parentless uniform table, whose 1/card is then undone
        cards = cbn.cards
        uniform = InterventionPair(
            InterventionPolicy(Cpd(s, (), (), ((1.0 / cards[s],) * cards[s],)))
            for s in skip
        )
        flat = apply_intervention(cbn, uniform)
        scale = float(np.prod([cards[s] for s in skip]))
        out = np.zeros([cards[n] for n in keep])
        for values in product(*(range(cards[n]) for n in keep)):
            both = dict(zip(keep, values))
            if all(both.get(n, v) == v for n, v in event.items()):
                out[values] = enumerate_prob(flat, {**event, **both}) * scale
        return out

    def test_matches_literal_sums(self):
        rng = np.random.default_rng(8081)
        shapes = dict.fromkeys(
            ("event kept", "event summed", "skip feeds", "skip barren", "keep permuted"), 0
        )
        for _ in range(40):
            dag = random_dag(rng, int(rng.integers(2, 9)))
            nodes = dag.nodes
            cards = {n: int(rng.choice((2, 3))) if len(nodes) <= 6 else 2 for n in nodes}
            cbn = random_cbn(rng, dag, cards)
            for _ in range(3):
                event = random_event(rng, cbn, int(rng.integers(0, len(nodes) + 1)))
                skip = tuple(n for n in nodes if rng.random() < 0.3)
                keep = [nodes[i] for i in rng.permutation(len(nodes))[: int(rng.integers(0, 4))]]
                asked = {*keep, *event}
                shapes["event kept"] += any(n in keep for n in event)
                shapes["event summed"] += any(n not in keep for n in event)
                for s in skip:
                    feeds = any(c in asked and c not in skip for c in dag.children(s))
                    shapes["skip feeds" if feeds else "skip barren"] += 1
                shapes["keep permuted"] += keep != sorted(keep, key=dag.index)
                got = cbn.joint(event, skip, keep=keep)
                expect = self.literal(cbn, event, skip, keep)
                assert got.shape == expect.shape
                assert np.max(np.abs(got - expect), initial=0.0) <= 1e-12, (dag, event, skip, keep)
        assert min(shapes.values()) >= 10, shapes

    def test_sixty_node_chain_answers_through_few_factors(self):
        # the full joint would have 2^60 entries; each query needs one or
        # two nodes, and the last node's axis is past einsum's 52 labels
        cbn = sixty_node_chain()
        budget = Budget(max_state_space=2 ** 60)
        assert cbn.marginal_prob({"v0": 1}, budget) == 0.75
        pair = InterventionPair.of(atomic_policy("v59", 1, 2))
        assert interventional_prob(cbn, pair, {"v59": 1}, budget) == 1.0
        got = cbn.joint({"v0": 1}, budget=budget, keep=("v1",))
        assert np.allclose(got, [0.75 * 0.2, 0.75 * 0.8], rtol=0.0, atol=1e-15)
        with pytest.raises(BudgetExceededError):
            cbn.marginal_prob({"v0": 1})
        # v59 needs every node, past the labels one einsum has
        with pytest.raises(BudgetExceededError, match="60 nodes exceeds the 52") as info:
            cbn.marginal_prob({"v59": 1}, budget)
        assert (info.value.estimate, info.value.limit) == (60, 52)


def einsum_calls(monkeypatch):
    """Record, per call of ``np.einsum``, each operand's shape and labels
    and the output labels."""
    calls = []
    real = np.einsum

    def recording(*args, **kwargs):
        pairs = [(np.shape(op), list(labels)) for op, labels in zip(args[:-1:2], args[1::2])]
        calls.append((pairs, list(args[-1])))
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", recording)
    return calls


def label_states(pairs, output=()):
    """The product of the sizes of every label ``pairs`` and ``output``
    read."""
    sizes = {label: size for shape, labels in pairs for label, size in zip(labels, shape)}
    assert set(output) <= sizes.keys()
    return int(np.prod(list(sizes.values()), dtype=object))


def folded_cpds(plan) -> int:
    """The CPDs in the fold of a dag plan of `Cbn._plan`: its owners' names
    among the fold's terms."""
    terms, _, _ = plan[-1]
    return sum(isinstance(term, str) for term in terms[::2])


class TestFold:
    """Each network contracts a shape's CPDs once, into one factor that
    every call of the shape slices at its event values and contracts with
    its per-call operands: the stand-ins and the identity rows."""

    @staticmethod
    def queries(rng, cbn):
        """``(name, run, expect)`` for a marginal of the last node and at
        most one more and one of every node, a conditional, an
        interventional query with two stand-ins, a joint with ``keep`` and
        no event, and one with ``skip``, each against literal sums."""
        nodes, cards = cbn.dag.nodes, cbn.cards
        last = nodes[-1]
        event = {**random_event(rng, cbn, int(rng.integers(0, 2))), last: int(rng.integers(cards[last]))}
        full = random_event(rng, cbn, len(nodes))
        both = random_event(rng, cbn, int(rng.integers(2, len(nodes) + 1)))
        split = int(rng.integers(1, len(both)))
        asked, given = dict(list(both.items())[:split]), dict(list(both.items())[split:])
        pair = random_pair(rng, cbn)
        keep = tuple(nodes[i] for i in rng.permutation(len(nodes))[: int(rng.integers(1, 4))])
        skip = tuple(n for n in nodes if rng.random() < 0.4)
        joint_keep = [enumerate_prob(cbn, dict(zip(keep, values)))
                      for values in product(*(range(cards[n]) for n in keep))]
        return [
            ("marginal", lambda: cbn.marginal_prob(event), lambda: enumerate_prob(cbn, event)),
            ("full", lambda: cbn.marginal_prob(full), lambda: enumerate_prob(cbn, full)),
            ("conditional", lambda: cbn.conditional_prob(asked, given),
             lambda: enumerate_prob(cbn, both) / enumerate_prob(cbn, given)),
            ("interventional", lambda: interventional_prob(cbn, pair, event),
             lambda: enumerate_prob(apply_intervention(cbn, pair), event)),
            ("keep", lambda: cbn.joint(keep=keep).reshape(-1), lambda: np.array(joint_keep)),
            ("skip", lambda: cbn.joint(event, skip, keep=keep[:1]),
             lambda: TestContraction.literal(cbn, event, skip, keep[:1])),
        ]

    @staticmethod
    def networks():
        rng = np.random.default_rng(3707)
        for i in range(16):
            dag = random_dag(rng, int(rng.integers(3, 10 if i % 2 else 7)), 0.5)
            yield rng, random_cbn(rng, dag, 2 if i % 2 else 3)

    def test_folded_queries_match_enumeration(self):
        # per kind of query, the shapes it made with no, one and several
        # CPDs in the fold
        seen = {}
        for rng, cbn in self.networks():
            for name, run, expect in self.queries(rng, cbn):
                before = set(cbn._plans)
                cold = np.asarray(run())
                assert np.max(np.abs(cold - expect()), initial=0.0) <= 1e-12, (name, cbn.dag)
                # warm, bit for bit the cold call's answer
                assert np.asarray(run()).tobytes() == cold.tobytes()
                for shape in cbn._plans.keys() - before:
                    free = folded_cpds(cbn.dag._derived["joint"][(cbn._layout, shape)])
                    seen[name, min(free, 2)] = seen.get((name, min(free, 2)), 0) + 1
        # every kind folds two or more CPDs in some shape; a fold of one is
        # common, and one of none (the count and ones alone) shows up
        assert {name for name, free in seen if free == 2} == {"marginal", "full", "conditional", "interventional", "keep", "skip"}
        shapes = [sum(n for (_, free), n in seen.items() if free == k) for k in range(3)]
        assert shapes[0] >= 1 and min(shapes[1:]) >= 10, seen

    def test_a_call_contracts_no_more_than_the_unfolded_plan(self, monkeypatch):
        # every cold call is two einsums: the first folds the CPDs and the
        # second is the per-call one, which takes that factor, sliced at
        # the event values, last; the unfolded plan is both, bar the factor
        calls = einsum_calls(monkeypatch)
        cold = 0
        for rng, cbn in self.networks():
            for name, run, _ in self.queries(rng, cbn):
                before = set(cbn._plans)
                calls.clear()
                run()
                if cbn._plans.keys() == before:
                    assert len(calls) == 1, name
                    continue
                (fold, _), (per_call, output) = calls
                unfolded = fold + per_call[:-1]
                # the factor keeps only labels that the output or a
                # per-call operand reads, in label order
                factor = per_call[-1][1]
                assert factor == sorted(factor)
                assert set(factor) <= {n for _, labels in per_call[:-1] for n in labels}.union(output)
                assert len(per_call) <= len(unfolded)
                assert label_states(per_call, output) <= label_states(unfolded, output), name
                cold += 1
        assert cold >= 90

    def test_a_warm_call_builds_no_second_fold(self, monkeypatch):
        calls = einsum_calls(monkeypatch)
        for rng, cbn in self.networks():
            for name, run, _ in self.queries(rng, cbn):
                run()
                plans = {shape: list(plan[0]) for shape, plan in cbn._plans.items()}
                calls.clear()
                run()
                # one einsum, the per-call one, with each kept factor as it was
                assert len(calls) == 1, name
                assert all(a is b for shape, held in plans.items() for a, b in zip(held, cbn._plans[shape][0]))

    def test_no_cpd_is_a_per_call_operand(self):
        # before the fold's place a plan holds stand-in slots and identity
        # matrices only, each indexed by one event value; only the fold
        # may have a second slot
        for rng, cbn in self.networks():
            for _, run, _ in self.queries(rng, cbn):
                run()
            for operands, places, slots, _, _, _ in cbn.dag._derived["joint"].values():
                at = len(operands) - 2
                axes = dict(slots)
                assert operands[at] is None and len(axes) == len(slots) and set(axes) <= {*range(0, at, 2), at}
                for i in range(0, at, 2):
                    if i in places:
                        assert operands[i] is None and i not in axes
                    else:
                        assert np.array_equal(operands[i], np.eye(len(operands[i]))) and len(axes[i]) == 1

    def test_the_order_of_keep_leaves_the_bits(self):
        # a call without stand-ins only slices its fold and lays it out, so
        # every order of ``keep`` gives the first answer's bits, transposed
        rng = np.random.default_rng(4002)
        asked = 0
        for _ in range(50):
            size = int(rng.integers(5, 12))
            cbn = random_cbn(rng, random_dag(rng, size, 0.5), 3 if size < 8 else 2)
            nodes = cbn.dag.nodes
            for _ in range(3):
                keep = tuple(nodes[i] for i in rng.permutation(size)[: int(rng.integers(1, 5))])
                skip = tuple(n for n in nodes if rng.random() < 0.4)
                event = random_event(rng, cbn, int(rng.integers(0, 3)))
                first = cbn.joint(event, skip, keep=keep)
                for order in islice(permutations(range(len(keep))), 24):
                    got = cbn.joint(event, skip, keep=[keep[i] for i in order])
                    assert got.tobytes() == first.transpose(order).tobytes(), (cbn.dag, event, skip, keep, order)
                    asked += 1
        assert asked >= 1000


class TestDeterministicFlag:
    """`Cbn.deterministic` is scanned once per network and then cached."""

    @staticmethod
    def networks():
        # per structure: positive rows, each row hardened to one-hot with
        # probability 1/2, and every row hardened
        rng = np.random.default_rng(61)
        for _ in range(12):
            dag = random_dag(rng, int(rng.integers(2, 7)))
            soft = random_cbn(rng, dag, card=int(rng.integers(2, 4)))
            yield soft
            for share in (0.5, 1.0):
                cpds = {}
                for name, cpd in soft.cpds.items():
                    rows = tuple(
                        tuple(float(v == int(np.argmax(row))) for v in range(len(row)))
                        if rng.random() < share
                        else row
                        for row in cpd.rows
                    )
                    cpds[name] = Cpd(name, cpd.parents, cpd.parent_cards, rows)
                yield Cbn(dag, soft.cards, cpds)

    def test_flag_matches_a_literal_scan(self):
        seen = set()
        for cbn in self.networks():
            literal = True
            for cpd in cbn.cpds.values():
                for row in cpd.rows:
                    for p in row:
                        if p != 0.0 and p != 1.0:
                            literal = False
            assert cbn.deterministic is literal
            assert cbn.deterministic is literal
            seen.add(literal)
        assert seen == {True, False}


class TestEngineAgainstEnumeration:
    """Every query the joint tensor answers matches the literal sum over
    completions in `oracle.enumerate_prob`."""

    def test_marginal(self):
        for rng, cbn in cross_check_networks():
            for size in range(len(cbn.dag.nodes) + 1):
                event = random_event(rng, cbn, size)
                assert abs(cbn.marginal_prob(event) - enumerate_prob(cbn, event)) <= 1e-12

    def test_conditional(self):
        for rng, cbn in cross_check_networks():
            if len(cbn.dag.nodes) < 2:
                continue
            both = random_event(rng, cbn, int(rng.integers(2, len(cbn.dag.nodes) + 1)))
            split = int(rng.integers(1, len(both)))
            event = dict(list(both.items())[:split])
            given = dict(list(both.items())[split:])
            denom = enumerate_prob(cbn, given)
            if denom == 0.0:
                with pytest.raises(ZeroProbabilityError):
                    cbn.conditional_prob(event, given)
                continue
            expect = enumerate_prob(cbn, both) / denom
            assert abs(cbn.conditional_prob(event, given) - expect) <= 1e-12

    def test_interventional(self):
        for rng, cbn in cross_check_networks():
            if len(cbn.dag.nodes) < 2:
                continue
            pair = random_pair(rng, cbn)
            intervened = apply_intervention(cbn, pair)
            for size in (1, 2):
                event = random_event(rng, cbn, size)
                expect = enumerate_prob(intervened, event)
                assert abs(interventional_prob(cbn, pair, event) - expect) <= 1e-12
        shapes = dict.fromkeys(
            ("mixed cards", "non-parent scope", "scope out of order", "pair out of order"), 0
        )
        for rng, cbn, pair in mixed_card_pairs():
            dag = cbn.dag
            shapes["mixed cards"] += len(set(cbn.cards.values())) == 2
            shapes["pair out of order"] += len(pair) == 2
            for policy in pair.policies:
                parents = set(dag.parents(policy.target))
                shapes["non-parent scope"] += not set(policy.scope) <= parents
                shapes["scope out of order"] += len(policy.scope) > 1
            intervened = apply_intervention(cbn, pair)
            for size in (1, 2, 3):
                event = random_event(rng, cbn, size)
                expect = enumerate_prob(intervened, event)
                assert abs(interventional_prob(cbn, pair, event) - expect) <= 1e-12
        assert min(shapes.values()) >= 5, shapes

    def test_state_space_cap_applies_to_every_query(self):
        rng = np.random.default_rng(15)
        cbn = random_cbn(rng, random_dag(rng, 15, 0.2))
        a, b = cbn.dag.nodes[:2]
        for query in (
            lambda: cbn.marginal_prob({a: 0}),
            lambda: cbn.conditional_prob({a: 0}, {b: 1}),
            lambda: interventional_prob(cbn, InterventionPair.empty(), {a: 0}),
            lambda: ci_holds(cbn, a, b, ()),
        ):
            with pytest.raises(BudgetExceededError) as info:
                query()
            assert info.value.estimate == 2 ** 15
        assert cbn.marginal_prob({a: 0}, Budget(max_state_space=2 ** 15)) > 0.0


class TestBudgetChecks:
    """Each `Budget` check passes at its cap and refuses one past it, with
    its exact text and the estimate and cap attached."""

    @pytest.mark.parametrize(
        "check, cap, message",
        [
            ("check_state_space", "max_state_space", "state space of 8 configurations exceeds the cap of 7"),
            ("check_set_size", "max_set_size", "subset search over 8 candidates exceeds the cap of 7"),
            (
                "check_work",
                "max_work",
                "estimated 8 elementary operations exceed the budget of 7; "
                "raise the budget to at least 8 to run this",
            ),
        ],
    )
    def test_cap_passes_and_one_past_it_refuses(self, check, cap, message):
        budget = Budget(**{cap: 7})
        assert getattr(budget, check)(7) is None
        with pytest.raises(BudgetExceededError, match=f"^{re.escape(message)}$") as info:
            getattr(budget, check)(8)
        assert (info.value.estimate, info.value.limit) == (8, 7)

    def test_default_work_cap(self):
        Budget().check_work(50_000_000)
        message = (
            "estimated 50000001 elementary operations exceed the budget of 50000000; "
            "raise the budget to at least 50000001 to run this"
        )
        with pytest.raises(BudgetExceededError, match=f"^{re.escape(message)}$"):
            Budget().check_work(50_000_001)
