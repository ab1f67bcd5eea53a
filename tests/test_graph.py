"""Structure layer: construction, ordering, traversals, separation."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cbnctrl import CycleError, Dag


def junction():
    # t3 and t4 feed two branches that join at t1 before the target o
    return Dag(
        ["t1", "t2", "t3", "t4", "t5", "o"],
        [("t1", "o"), ("t2", "t1"), ("t3", "t1"), ("t4", "t2"), ("t5", "t2")],
    )


def random_dag(rng, n, p=0.4):
    names = [f"v{i}" for i in range(n)]
    edges = [
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return Dag(names, edges)


class TestConstruction:
    def test_rejects_duplicate_nodes(self):
        with pytest.raises(ValueError, match="duplicate"):
            Dag(["a", "a"], [])

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            Dag(["a", ""], [])

    def test_rejects_unknown_endpoint(self):
        with pytest.raises(ValueError):
            Dag(["a"], [("a", "b")])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Dag(["a"], [("a", "a")])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError):
            Dag(["a", "b"], [("a", "b"), ("a", "b")])

    def test_rejects_cycle(self):
        with pytest.raises(CycleError):
            Dag(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])

    def test_equality_ignores_edge_listing_order(self):
        g1 = Dag(["a", "b", "c"], [("a", "b"), ("b", "c")])
        g2 = Dag(["a", "b", "c"], [("b", "c"), ("a", "b")])
        assert g1 == g2
        assert hash(g1) == hash(g2)

    def test_node_order_is_identity(self):
        g1 = Dag(["a", "b"], [])
        g2 = Dag(["b", "a"], [])
        assert g1 != g2


class TestOrdering:
    def test_topological_order_respects_edges(self):
        rng = np.random.default_rng(101)
        for _ in range(30):
            dag = random_dag(rng, int(rng.integers(2, 9)))
            order = dag.topological_order
            pos = {n: i for i, n in enumerate(order)}
            assert sorted(order) == sorted(dag.nodes)
            for parent, child in dag.edges:
                assert pos[parent] < pos[child]

    def test_parents_children_are_sorted_by_node_index(self):
        dag = junction()
        assert dag.parents("t1") == ("t2", "t3")
        assert dag.children("t2") == ("t1",)
        assert dag.parents("t5") == ()

    def test_sorted_edges_deterministic(self):
        dag = junction()
        assert dag.sorted_edges() == (
            ("t1", "o"),
            ("t2", "t1"),
            ("t3", "t1"),
            ("t4", "t2"),
            ("t5", "t2"),
        )


    def test_canon_drops_repeats_and_follows_node_order(self):
        dag = junction()
        assert dag.canon(["o", "t5", "t1", "o", "t5"]) == ("t1", "t5", "o")
        assert dag.canon(iter(("t4", "t2"))) == ("t2", "t4")
        assert dag.canon(()) == ()
        rng = np.random.default_rng(7)
        for _ in range(20):
            dag = random_dag(rng, int(rng.integers(1, 9)))
            names = [str(n) for n in rng.choice(dag.nodes, size=int(rng.integers(0, 12)))]
            assert dag.canon(names) == tuple(n for n in dag.nodes if n in names)

    def test_canon_refuses_an_unknown_node(self):
        with pytest.raises(ValueError, match="unknown node 'zz'"):
            junction().canon(["t1", "zz", "t1"])

    def test_unknown_node_refusals_name_the_same_node_under_every_hash_seed(self):
        # a set of str iterates in an order that follows the hash seed; each
        # refusal names the unknown of smallest repr instead
        script = """if True:
            from cbnctrl.graph import Dag
            dag = Dag(["a", "b"], [("a", "b")])
            unknown = ["zz", "yy", "xx", "ww"]
            for query in (
                lambda: dag.canon(unknown),
                lambda: dag.backward_chain(["b"], {"a", *unknown}),
                lambda: dag.d_separated(["a"], ["b"], set(unknown)),
            ):
                try:
                    query()
                except ValueError as error:
                    print(error)
        """
        src = str(Path(__file__).parent.parent / "src")
        path = os.pathsep.join(p for p in (os.environ.get("PYTHONPATH"), src) if p)
        for seed in range(6):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=path)
            done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
            assert done.returncode == 0, done.stderr
            assert done.stdout.splitlines() == ["unknown node 'ww'"] * 3, seed


class TestAncestry:
    def test_level_bounded_ancestors_on_chain(self):
        dag = Dag(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert dag.ancestors("c", 1) == ("b",)
        assert dag.ancestors("c", 2) == ("a", "b")
        assert dag.ancestors("c") == ("a", "b")
        assert dag.ancestors("a") == ()

    def test_level_validation(self):
        dag = Dag(["a"], [])
        with pytest.raises(ValueError):
            dag.ancestors("a", 0)
        with pytest.raises(ValueError):
            dag.ancestors("a", -1)
        with pytest.raises(ValueError):
            dag.ancestors("a", True)
        with pytest.raises(ValueError):
            dag.ancestors("a", False)

    def test_numpy_integer_levels_pass_and_bools_and_floats_do_not(self):
        # as in `IpClass`, which reads np.int64(2) as class-2
        dag = Dag(["a", "b", "c"], [("a", "b"), ("b", "c")])
        for level in (np.int64(2), np.uint8(2), np.int32(5)):
            assert dag.ancestors("c", level) == ("a", "b")
        assert dag.ancestors("c", np.int64(1)) == ("b",)
        for bad in (True, np.bool_(True), 2.0, np.float64(2.0), np.int64(0), np.int8(-1)):
            with pytest.raises(ValueError, match=re.escape(f"level must be a positive integer or inf, got {bad!r}")):
                dag.ancestors("c", bad)

    def test_kept_answers_do_not_admit_what_the_checks_refuse(self):
        # answers are kept per (name, level), and True and 1.0 hash as 1
        # does: a key looked up before the checks would return level 1's
        dag = Dag(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert dag.ancestors("c", 1) == ("b",)
        assert dag.ancestors("c", 1) is dag.ancestors("c", 1)
        for bad in (True, 1.0, 0):
            with pytest.raises(ValueError, match=re.escape(f"got {bad!r}")):
                dag.ancestors("c", bad)
        with pytest.raises(ValueError, match="unknown node 'zz'"):
            dag.ancestors("zz", 1)
        assert dag.ancestors("c", np.int64(1)) == ("b",)
        assert dag.ancestors("c", 2) == ("a", "b")

    def test_descendants(self):
        dag = junction()
        assert dag.descendants("t4") == ("t1", "t2", "o")
        assert dag.descendants("o") == ()

    def test_ancestors_and_descendants_are_mirror_images(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            dag = random_dag(rng, int(rng.integers(2, 8)))
            for v in dag.nodes:
                for u in dag.ancestors(v):
                    assert v in dag.descendants(u)


def bc_reference(dag, start, stop):
    """Independent predicate: v is reached iff v is a start node or some
    directed path from v hits a non-stop start node through non-stop
    interiors."""
    start_s, stop_s = set(start), set(stop)

    def reached(v):
        if v in start_s:
            return True
        seen = {v}
        stack = [v]
        while stack:
            for w in dag.children(stack.pop()):
                if w in start_s and w not in stop_s:
                    return True
                if w not in stop_s and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return False

    visited = tuple(v for v in dag.nodes if reached(v))
    terminals = tuple(v for v in visited if v in stop_s)
    return visited, terminals


class TestBackwardChain:
    def test_junction_terminals(self):
        dag = junction()
        result = dag.backward_chain(["o"], ["t3", "t4"])
        assert result.terminals == ("t3", "t4")
        assert result.visited == ("t1", "t2", "t3", "t4", "t5", "o")

    def test_start_in_stop_terminates_immediately(self):
        dag = Dag(["a", "b"], [("a", "b")])
        result = dag.backward_chain(["b"], ["b"])
        assert result.terminals == ("b",)
        assert result.visited == ("b",)

    def test_parentless_nodes_are_not_terminals(self):
        dag = Dag(["a", "b"], [("a", "b")])
        result = dag.backward_chain(["b"], [])
        assert result.visited == ("a", "b")
        assert result.terminals == ()

    def test_empty_start_rejected(self):
        with pytest.raises(ValueError):
            junction().backward_chain([], ["t3"])

    def test_unknown_nodes_rejected(self):
        with pytest.raises(ValueError):
            junction().backward_chain(["nope"], [])

    def test_matches_reference_predicate(self):
        rng = np.random.default_rng(90210)
        for _ in range(120):
            dag = random_dag(rng, int(rng.integers(2, 8)), p=0.45)
            nodes = dag.nodes
            start = [n for n in nodes if rng.random() < 0.35] or [nodes[-1]]
            stop = [n for n in nodes if rng.random() < 0.35]
            result = dag.backward_chain(start, stop)
            visited, terminals = bc_reference(dag, start, stop)
            assert result.visited == visited
            assert result.terminals == terminals


class TestDSeparation:
    def test_empty_side_rejected(self):
        dag = Dag(["a", "b", "c"], [("a", "b"), ("b", "c")])
        for a, b in (([], ["c"]), (["a"], []), ([], [])):
            with pytest.raises(ValueError, match="^a and b must be non-empty$"):
                dag.d_separated(a, b)

    def test_chain_blocked_by_middle(self):
        dag = Dag(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert not dag.d_separated(["a"], ["c"])
        assert dag.d_separated(["a"], ["c"], ["b"])

    def test_fork_blocked_by_root(self):
        dag = Dag(["z", "a", "b"], [("z", "a"), ("z", "b")])
        assert not dag.d_separated(["a"], ["b"])
        assert dag.d_separated(["a"], ["b"], ["z"])

    def test_collider_opens_when_conditioned(self):
        dag = Dag(["a", "b", "c"], [("a", "c"), ("b", "c")])
        assert dag.d_separated(["a"], ["b"])
        assert not dag.d_separated(["a"], ["b"], ["c"])

    def test_collider_descendant_also_opens(self):
        dag = Dag(["a", "b", "c", "d"], [("a", "c"), ("b", "c"), ("c", "d")])
        assert not dag.d_separated(["a"], ["b"], ["d"])

    def test_disjointness_required(self):
        dag = Dag(["a", "b"], [("a", "b")])
        with pytest.raises(ValueError):
            dag.d_separated(["a"], ["a"])
        with pytest.raises(ValueError):
            dag.d_separated(["a"], ["b"], ["a"])

    def test_set_arguments(self):
        dag = Dag(["a", "b", "c", "d"], [("a", "c"), ("b", "c"), ("c", "d")])
        assert dag.d_separated(["a", "b"], ["d"], ["c"])

    def test_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(1846)
        checked = 0
        for _ in range(150):
            dag = random_dag(rng, int(rng.integers(2, 10)), p=float(rng.uniform(0.1, 0.6)))
            graph = nx.DiGraph()
            graph.add_nodes_from(dag.nodes)
            graph.add_edges_from(dag.edges)
            for _ in range(4):
                roles = rng.integers(0, 4, len(dag.nodes))  # a, b, z, or unused
                a, b, z = ([n for n, r in zip(dag.nodes, roles) if r == k] for k in range(3))
                if not a or not b:
                    continue
                expect = nx.is_d_separator(graph, set(a), set(b), set(z))
                assert dag.d_separated(a, b, z) == expect
                checked += 1
        assert checked >= 300
