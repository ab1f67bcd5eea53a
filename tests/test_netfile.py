"""Network file parsing, validation paths, canonical serialization."""

import json
import re

import numpy as np
import pytest

from cbnctrl import (
    NetFormatError,
    NetworkSpec,
    Objective,
    load,
    parse,
    random_cbn,
    random_dag,
    save,
    serialize,
)

MINIMAL = {
    "format": "cbn-net/1",
    "nodes": [{"name": "a", "card": 2}, {"name": "b", "card": 2}],
    "edges": [["a", "b"]],
    "intervenable": ["a"],
    "targets": [{"name": "b", "desired": 1}],
}


def doc(**overrides):
    out = json.loads(json.dumps(MINIMAL))
    out.update(overrides)
    return out


CPDS = {
    "a": {"parents": [], "rows": [[0.3, 0.7]]},
    "b": {"parents": ["a"], "rows": [[0.8, 0.2], [0.5, 0.5]]},
}


def with_cpds(**tables):
    """`MINIMAL` with a full `cpds` block, ``tables`` replacing or adding
    entries after the two valid ones."""
    return doc(cpds={**json.loads(json.dumps(CPDS)), **tables})


#: one document per refusal, with the field path its message starts with
MALFORMED = [
    (doc(nodes=[5]), "nodes[0]"),
    (doc(nodes=[{"name": 3, "card": 2}]), "nodes[0].name"),
    (doc(nodes=[{"name": "", "card": 2}]), "nodes[0].name"),
    (doc(intervenable="a"), "intervenable"),
    (doc(intervenable=["a", "a"]), "intervenable[1]"),
    (with_cpds(a={"parents": [], "rows": []}), "cpds.a.rows"),
    (with_cpds(a={"parents": [], "rows": "x"}), "cpds.a.rows"),
    (with_cpds(a={"parents": [], "rows": [[]]}), "cpds.a.rows[0]"),
    (with_cpds(a={"parents": [], "rows": [0.5]}), "cpds.a.rows[0]"),
    (doc(nodes={}), "nodes"),
    (doc(nodes=[]), "nodes"),
    (doc(edges={}), "edges"),
    (doc(targets={}), "targets"),
    (doc(targets=[]), "targets"),
    (doc(targets=[{"name": "b", "desired": 1}, {"name": "b", "desired": 0}]), "targets[1].name"),
    (doc(cpds=[]), "cpds"),
    (with_cpds(zz={"parents": [], "rows": [[0.5, 0.5]]}), "cpds.zz"),
    (doc(policies=[]), "policies"),
    (doc(policies={"zz": {"scope": [], "rows": [[0.0, 1.0]]}}), "policies.zz"),
    (doc(policies={"a": {"scope": ["zz"], "rows": [[0.0, 1.0]]}}), "policies.a.scope[0]"),
]


@pytest.mark.parametrize("bad, path", MALFORMED)
def test_each_refusal_starts_with_its_field_path(bad, path):
    with pytest.raises(NetFormatError) as info:
        parse(json.dumps(bad))
    assert str(info.value).startswith(f"{path}: "), str(info.value)


def repeated(text: str, key: str, value) -> str:
    """``text``, a JSON object, with ``key`` given ``value`` once more at
    its end."""
    return f"{text[:-1]}, {json.dumps(key)}: {json.dumps(value)}}}"


#: one document per level that repeats a key, with its refusal
REPEATED = [
    (repeated(json.dumps(with_cpds()), "cpds", CPDS), "top level: duplicate key 'cpds'"),
    (
        json.dumps(doc(cpds="CPDS")).replace('"CPDS"', repeated(json.dumps(CPDS), "a", CPDS["a"])),
        "cpds: duplicate key 'a'",
    ),
    (
        json.dumps(doc(policies="P")).replace(
            '"P"', repeated(json.dumps({"a": {"scope": [], "rows": [[0.0, 1.0]]}}), "a",
                            {"scope": [], "rows": [[1.0, 0.0]]})
        ),
        "policies: duplicate key 'a'",
    ),
    (
        json.dumps(doc(nodes=["N", {"name": "b", "card": 2}])).replace(
            '"N"', repeated(json.dumps({"name": "a", "card": 2}), "card", 3)
        ),
        "nodes[0]: duplicate key 'card'",
    ),
]


@pytest.mark.parametrize("text, message", REPEATED, ids=["top level", "cpds", "policies", "node"])
def test_a_repeated_key_is_refused_with_its_path(text, message):
    # valid JSON, which json.loads alone reads with the repeat's last value
    json.loads(text)
    with pytest.raises(NetFormatError, match=f"^{re.escape(message)}$"):
        parse(text)


class TestParsing:
    def test_minimal_structure(self):
        spec = parse(json.dumps(MINIMAL))
        assert spec.dag.nodes == ("a", "b")
        assert spec.intervenable == ("a",)
        assert spec.targets == ("b",)
        assert spec.desired == {"b": 1}
        assert spec.cbn is None and spec.pair is None

    def test_problem_builder(self):
        spec = parse(json.dumps(MINIMAL))
        problem = spec.problem(Objective.MAX_MAX)
        assert problem.targets == ("b",)
        assert problem.desired == (1,)
        assert problem.objective is Objective.MAX_MAX

    def test_invalid_json(self):
        with pytest.raises(NetFormatError, match="not valid JSON"):
            parse("{nope")

    def test_nesting_past_the_recursion_limit_is_invalid_json(self):
        text = '{"format": "cbn-net/1", "nodes": ' + "[" * 100000 + "]" * 100000 + "}"
        with pytest.raises(NetFormatError, match="^not valid JSON: "):
            parse(text)

    def test_an_integer_past_the_digit_limit_is_invalid_json(self):
        text = '{"format": "cbn-net/1", "nodes": [{"name": "a", "card": ' + "9" * 5000 + "}]}"
        with pytest.raises(NetFormatError, match="^not valid JSON: .*digits"):
            parse(text)

    def test_unknown_top_level_key(self):
        with pytest.raises(NetFormatError, match="top level: unknown key 'extra'"):
            parse(json.dumps(doc(extra=1)))

    def test_missing_key_named(self):
        bad = doc()
        del bad["targets"]
        with pytest.raises(NetFormatError, match="missing key 'targets'"):
            parse(json.dumps(bad))

    def test_format_tag_checked(self):
        with pytest.raises(NetFormatError, match="format"):
            parse(json.dumps(doc(format="cbn-net/9")))

    def test_node_entry_paths(self):
        bad = doc(nodes=[{"name": "a", "card": 2}, {"name": "a", "card": 2}])
        with pytest.raises(NetFormatError, match=r"nodes\[1\].name: duplicate"):
            parse(json.dumps(bad))
        bad = doc(nodes=[{"name": "a", "card": 1}])
        with pytest.raises(NetFormatError, match=r"nodes\[0\].card"):
            parse(json.dumps(bad))
        bad = doc(nodes=[{"name": "a", "card": True}])
        with pytest.raises(NetFormatError, match=r"nodes\[0\].card: expected an integer"):
            parse(json.dumps(bad))

    def test_edge_paths(self):
        # each entry is checked before the Dag is built; only a cycle, which
        # no single entry causes, is left to `structure`
        cases = [
            ([["a"]], "edges[0]: expected a [parent, child] pair"),
            ([["a", "zz"]], "edges[0][1]: unknown node 'zz'"),
            ([["a", "b"], ["zz", "b"]], "edges[1][0]: unknown node 'zz'"),
            ([["a", "b"], ["b", "b"]], "edges[1]: self loop on 'b'"),
            ([["a", "b"], ["a", "b"]], "edges[1]: duplicate edge ('a', 'b')"),
        ]
        for edges, message in cases:
            with pytest.raises(NetFormatError, match=f"^{re.escape(message)}$"):
                parse(json.dumps(doc(edges=edges)))

    def test_cycle_reported_as_structure_error(self):
        bad = doc(edges=[["a", "b"], ["b", "a"]])
        with pytest.raises(NetFormatError, match="structure"):
            parse(json.dumps(bad))

    def test_intervenable_must_be_known(self):
        with pytest.raises(NetFormatError, match=r"intervenable\[0\]"):
            parse(json.dumps(doc(intervenable=["zz"])))

    def test_target_paths(self):
        with pytest.raises(NetFormatError, match=r"targets\[0\].desired"):
            parse(json.dumps(doc(targets=[{"name": "b", "desired": 2}])))
        with pytest.raises(NetFormatError, match=r"targets\[0\].name"):
            parse(json.dumps(doc(targets=[{"name": "zz", "desired": 0}])))
        with pytest.raises(NetFormatError, match="unknown key"):
            parse(json.dumps(doc(targets=[{"name": "b", "desired": 0, "why": "x"}])))


class TestCpdBlock:
    def full(self):
        return with_cpds()

    def test_parses_to_network(self):
        spec = parse(json.dumps(self.full()))
        assert spec.cbn is not None
        assert spec.cbn.marginal_prob({"b": 1}) == pytest.approx(0.41, abs=1e-9)

    def test_missing_table_listed(self):
        bad = self.full()
        del bad["cpds"]["b"]
        with pytest.raises(NetFormatError, match="missing tables for \\['b'\\]"):
            parse(json.dumps(bad))

    def test_bad_row_sum_with_path(self):
        bad = self.full()
        bad["cpds"]["a"]["rows"] = [[0.3, 0.8]]
        with pytest.raises(NetFormatError, match="cpds.a"):
            parse(json.dumps(bad))

    def test_cpd_refusal_text_follows_its_path(self):
        bad = self.full()
        bad["cpds"]["a"]["rows"] = [[0.5, 0.6]]
        message = "cpds.a: cpd for 'a': row 0 sums to 1.1, not 1"
        with pytest.raises(NetFormatError, match=f"^{re.escape(message)}$"):
            parse(json.dumps(bad))

    def test_wrong_parents_with_path(self):
        bad = self.full()
        bad["cpds"]["b"]["parents"] = []
        bad["cpds"]["b"]["rows"] = [[1.0, 0.0]]
        with pytest.raises(NetFormatError, match="cpds.b.parents"):
            parse(json.dumps(bad))

    def test_row_width_refused_under_its_table(self):
        # it was refused for the whole block, as "cpds: cpd for 'a' has
        # cardinality 3, expected 2"
        bad = self.full()
        bad["cpds"]["a"]["rows"] = [[0.2, 0.3, 0.5]]
        message = "cpds.a: rows have 3 entries, node cardinality is 2"
        with pytest.raises(NetFormatError, match=f"^{re.escape(message)}$"):
            parse(json.dumps(bad))

    def test_non_number_cell_path(self):
        bad = self.full()
        bad["cpds"]["a"]["rows"] = [[0.3, "x"]]
        with pytest.raises(NetFormatError, match=r"cpds.a.rows\[0\]\[1\]"):
            parse(json.dumps(bad))


class TestPolicyBlock:
    def with_policy(self):
        out = doc()
        out["policies"] = {"a": {"scope": [], "rows": [[0.0, 1.0]]}}
        return out

    def test_parses_to_pair(self):
        spec = parse(json.dumps(self.with_policy()))
        assert spec.pair is not None
        assert spec.pair.targets == ("a",)

    def test_policy_must_be_intervenable(self):
        bad = doc()
        bad["policies"] = {"b": {"scope": [], "rows": [[0.0, 1.0]]}}
        with pytest.raises(NetFormatError, match="not listed as intervenable"):
            parse(json.dumps(bad))

    def test_scope_must_be_ancestral(self):
        bad = doc(intervenable=["a", "b"])
        bad["policies"] = {"a": {"scope": ["b"], "rows": [[0.0, 1.0], [1.0, 0.0]]}}
        with pytest.raises(NetFormatError, match="policies"):
            parse(json.dumps(bad))

    def test_non_ancestor_refused_under_its_scope(self):
        # it was refused for the whole block, as "policies: policy on 'a'
        # conditions on non-ancestors ['b']"
        bad = doc(intervenable=["a", "b"])
        bad["policies"] = {"a": {"scope": ["b"], "rows": [[0.0, 1.0], [1.0, 0.0]]}}
        message = "policies.a.scope: policy on 'a' conditions on non-ancestors ['b']"
        with pytest.raises(NetFormatError, match=f"^{re.escape(message)}$"):
            parse(json.dumps(bad))

    def test_row_cardinality_checked(self):
        bad = self.with_policy()
        bad["policies"]["a"]["rows"] = [[0.0, 0.5, 0.5]]
        with pytest.raises(NetFormatError, match="policies.a"):
            parse(json.dumps(bad))


class TestRoundTrip:
    def test_structure_only(self):
        spec = parse(json.dumps(MINIMAL))
        assert parse(serialize(spec)) == spec

    def test_full_network_round_trip_is_exact(self):
        rng = np.random.default_rng(1234)
        for _ in range(8):
            dag = random_dag(rng, int(rng.integers(2, 6)))
            cbn = random_cbn(rng, dag)
            spec = NetworkSpec.from_cbn(cbn, dag.nodes[:1], dag.nodes[-1:], {dag.nodes[-1]: 1})
            again = parse(serialize(spec))
            assert again == spec

    def test_serialization_is_byte_stable(self):
        spec = parse(json.dumps(MINIMAL))
        assert serialize(spec) == serialize(spec)
        assert serialize(spec).endswith("\n")

    def test_save_and_load(self, tmp_path):
        spec = parse(json.dumps(MINIMAL))
        path = tmp_path / "net.json"
        save(spec, path)
        assert load(path) == spec

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(NetFormatError, match="cannot read"):
            load(tmp_path / "absent.json")

    def test_load_a_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b"\xff" + json.dumps(MINIMAL).encode())
        with pytest.raises(NetFormatError, match=f"^cannot read {re.escape(str(path))}: .*utf-8"):
            load(path)

    def test_save_to_a_path_that_cannot_be_written(self, tmp_path):
        # a missing directory and a directory: each is refused with its path
        spec = parse(json.dumps(MINIMAL))
        for path in (tmp_path / "absent" / "net.json", tmp_path):
            with pytest.raises(NetFormatError, match=f"^cannot write {re.escape(str(path))}: "):
                save(spec, path)
        assert list(tmp_path.iterdir()) == []


class TestFixtures:
    def test_gate_fixture(self, fixtures_dir):
        spec = load(fixtures_dir / "xor_gate.json")
        assert spec.cbn is not None
        assert spec.cbn.marginal_prob({"o": 1}) == 1.0
        assert spec.intervenable == ("y",)

    def test_junction_fixture(self, fixtures_dir):
        spec = load(fixtures_dir / "two_branch_junction.json")
        assert spec.cbn is None
        assert spec.targets == ("o",)
        assert spec.dag.parents("t1") == ("t2", "t3")
