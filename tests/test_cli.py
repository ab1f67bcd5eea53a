"""Command line behavior: reports, exit codes, determinism."""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

import cbnctrl.cli as cli
from cbnctrl import Dag, NetworkSpec, load, random_cbn, random_dag, save
from cbnctrl.oracle import SuiteReport

from test_control import past_index_range


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def gate(fixtures_dir):
    return str(fixtures_dir / "xor_gate.json")


@pytest.fixture()
def junction_file(fixtures_dir):
    return str(fixtures_dir / "two_branch_junction.json")


class TestDrivers:
    def test_junction_report(self, junction_file, capsys):
        code, out, _ = run(["drivers", junction_file], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == f"# cbnctrl drivers {junction_file}"
        assert lines[1] == "targets: o"
        assert lines[2] == "intervenable: t3 t4"
        assert "chain: t3 terminal" in lines
        assert "chain: t5 root" in lines
        assert "chain: o expanded" in lines
        assert lines[-1] == "drivers: t3 t4"

    def test_byte_identical_across_runs(self, junction_file, capsys):
        _, first, _ = run(["drivers", junction_file], capsys)
        _, second, _ = run(["drivers", junction_file], capsys)
        assert first == second


class TestEval:
    def test_baseline_probability(self, gate, capsys):
        code, out, _ = run(["eval", gate], capsys)
        assert code == 0
        assert "probability: 1.000000000" in out
        assert "policy: (none)" in out

    def test_policies_applied(self, gate, tmp_path, capsys):
        doc = json.loads(Path(gate).read_text())
        doc["policies"] = {"y": {"scope": [], "rows": [[0.0, 1.0]]}}
        path = tmp_path / "gate_do_y1.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(["eval", str(path)], capsys)
        assert code == 0
        assert "probability: 0.300000000" in out
        assert "policy: y | scope: (none) | rows: 0.000000000 1.000000000" in out

    def test_needs_cpds(self, junction_file, capsys):
        code, _, err = run(["eval", junction_file], capsys)
        assert code == 1
        assert "no cpds" in err


class TestSolve:
    def test_max_max_report(self, gate, capsys):
        code, out, _ = run(["solve", gate, "--objective", "max-max"], capsys)
        assert code == 0
        assert "objective: max-max" in out
        assert "drivers: y" in out
        assert "provenance: c-star" in out
        assert "value: 1.000000000" in out

    def test_structural_only(self, junction_file, capsys):
        code, out, _ = run(["solve", junction_file, "--objective", "min-max"], capsys)
        assert code == 0
        assert "drivers: (none)" in out
        assert "provenance: shortcut" in out
        assert "value: structural-only" in out

    def test_unknown_objective(self, gate, capsys):
        code, _, err = run(["solve", gate, "--objective", "diag"], capsys)
        assert code == 1
        assert "unknown objective" in err

    def test_missing_objective_flag(self, gate, capsys):
        code, _, err = run(["solve", gate], capsys)
        assert code == 1
        assert "objective" in err

    def test_budget_must_be_positive(self, gate, capsys):
        for budget in ("0", "-5"):
            code, out, err = run(["solve", gate, "--objective", "max-max", "--budget", budget], capsys)
            assert code == 1 and out == ""
            assert err == "error: --budget must be a positive number of elementary steps\n"

    def test_budget_refusal_exit_code(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        dag = random_dag(rng, 15, 0.2)
        cbn = random_cbn(rng, dag)
        spec = NetworkSpec.from_cbn(cbn, dag.nodes[:1], dag.nodes[-1:], {dag.nodes[-1]: 1})
        path = tmp_path / "big.json"
        save(spec, path)
        code, _, err = run(["solve", str(path), "--objective", "max-max"], capsys)
        assert code == 3
        assert "refused" in err

    def test_every_probability_goes_through_the_budget(self, tmp_path, capsys):
        # a 26-node chain: enumerating its 2^26 states would take minutes,
        # so each command must refuse before building anything
        names = [f"v{i}" for i in range(26)]
        dag = Dag(names, list(zip(names, names[1:])))
        cbn = random_cbn(np.random.default_rng(26), dag)
        target = names[-1]
        spec = NetworkSpec.from_cbn(cbn, (names[12], target), (target,), {target: 1})
        path = str(tmp_path / "chain26.json")
        save(spec, path)
        for argv in (
            ["eval", path],
            ["solve", path, "--objective", "min-max"],
            ["solve", path, "--objective", "min-min"],
            ["verify", path, "--suite", "usm"],
        ):
            code, _, err = run(argv, capsys)
            assert code == 3, argv
            assert err.startswith("refused: state space of 67108864 configurations"), argv
        # a structure-only file is refused before a parametrization is
        # sampled, whose table for x alone would take 8 TiB; usm samples
        # nothing and still runs
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({
            "format": "cbn-net/1",
            "nodes": [{"name": "x", "card": 2 ** 40}, {"name": "o", "card": 2}],
            "edges": [["x", "o"]],
            "intervenable": ["x"],
            "targets": [{"name": "o", "desired": 1}],
        }))
        code, out, err = run(["verify", str(path), "--suite", "lemma3", "--seed", "1"], capsys)
        assert (code, out) == (3, "")
        assert err == "refused: state space of 2199023255552 configurations exceeds the cap of 16384\n"
        code, out, _ = run(["verify", str(path), "--suite", "usm"], capsys)
        assert code == 0 and "result: PASS" in out

    def test_combinations_past_the_index_range_are_refused(self, tmp_path, capsys):
        # 2^64 tables of one driver: the work cap names a budget that a
        # numpy index cannot number, and that budget is refused too
        cbn = past_index_range(np.random.default_rng(64))
        path = str(tmp_path / "wide.json")
        save(NetworkSpec.from_cbn(cbn, ("d1", "d2"), ("o",), {"o": 1}), path)
        code, out, err = run(["solve", path, "--objective", "max-max"], capsys)
        assert (code, out) == (3, "")
        assert "raise the budget to at least 18889465931478580854784 " in err
        wide = ["--budget", str(10 ** 26)]
        code, out, err = run(["solve", path, "--objective", "max-max", *wide], capsys)
        assert (code, out) == (3, "")
        assert err.startswith(f"refused: a scan over {2 ** 64} table combinations exceeds the ")
        code, _, err = run(["verify", path, "--suite", "lemma3", *wide], capsys)
        assert code == 3 and err.startswith(f"refused: a scan over {2 ** 64} table combinations")

    def test_deep_driver_refused_before_its_tables_are_counted(self, tmp_path, capsys):
        # a driver with 38 ancestors has 2^(2^38) class-inf tables; counting
        # them before the state-space cap would take minutes and gigabytes
        names = [f"v{i}" for i in range(40)]
        dag = Dag(names, list(zip(names, names[1:])))
        cbn = random_cbn(np.random.default_rng(40), dag)
        target = names[-1]
        spec = NetworkSpec.from_cbn(cbn, (names[-2],), (target,), {target: 1})
        path = str(tmp_path / "chain40.json")
        save(spec, path)
        for objective in ("max-max", "max-min"):
            code, _, err = run(["solve", path, "--objective", objective], capsys)
            assert code == 3, objective
            assert err.startswith("refused: state space of 1099511627776 configurations")


class TestVerify:
    def test_usm_pass(self, junction_file, capsys):
        code, out, _ = run(["verify", junction_file, "--suite", "usm"], capsys)
        assert code == 0
        assert "suite: usm" in out
        assert "result: PASS" in out

    def test_seed_required_without_cpds(self, junction_file, capsys):
        code, _, err = run(["verify", junction_file, "--suite", "lemma3"], capsys)
        assert code == 1
        assert "--seed" in err

    def test_seed_echoed(self, junction_file, capsys):
        code, out, _ = run(["verify", junction_file, "--suite", "lemma3", "--seed", "9"], capsys)
        assert code == 0
        assert "seed: 9" in out
        assert "result: PASS" in out

    @pytest.mark.parametrize("suite", ["lemma3", "usm", "all"])
    def test_seed_refused_on_a_file_with_cpds(self, gate, capsys, suite):
        # --seed samples a parametrization only for a file without cpds; on
        # one with cpds it is refused before the header, not ignored
        code, out, err = run(["verify", gate, "--suite", suite, "--seed", "3"], capsys)
        assert (code, out) == (1, "")
        assert err == (
            "error: file has cpds; drop --seed N, which samples a parametrization only for a file without cpds\n"
        )

    def test_seed_samples_the_declared_cardinalities(self, tmp_path, capsys):
        # card-3 nodes and desired value 2: binary tables would reject it
        doc = {
            "format": "cbn-net/1",
            "nodes": [{"name": f"v{i}", "card": 3} for i in range(4)],
            "edges": [["v0", "v1"], ["v1", "v3"], ["v2", "v3"]],
            "intervenable": ["v1", "v2"],
            "targets": [{"name": "v3", "desired": 2}],
        }
        path = tmp_path / "ternary.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(["verify", str(path), "--suite", "all", "--seed", "3"], capsys)
        assert code == 0, err
        assert out.count("result: PASS") == 4
        assert "overall: PASS" in out

    def test_level_zero_refused(self, gate, capsys):
        # before the header, as an unparseable level is
        code, out, err = run(["verify", gate, "--suite", "lemma3", "--levels", "0,1"], capsys)
        assert (code, out) == (1, "")
        assert err == "error: bracket levels must be >= 1 or inf, got 0\n"

    @pytest.mark.parametrize("levels, named", [("1,1", "1"), ("inf,2,infinity", "inf")])
    def test_a_repeated_level_is_refused_by_name(self, gate, capsys, levels, named):
        # before the header; checked twice, each bracket would count twice
        code, out, err = run(["verify", gate, "--suite", "lemma3", "--levels", levels], capsys)
        assert (code, out, err) == (1, "", f"error: bracket level {named} is given twice\n")

    @pytest.mark.parametrize("suite, levels", [("sufficiency", "0"), ("usm", "x"), ("extremality", "1,2,inf")])
    def test_levels_refused_unless_lemma3_runs(self, gate, capsys, suite, levels):
        # no other suite reads them, so they are refused before the header,
        # whether or not they would parse
        code, out, err = run(["verify", gate, "--suite", suite, "--levels", levels], capsys)
        assert (code, out) == (1, "")
        assert err == (
            f"error: --levels sets the lemma3 suite's bracket levels, and --suite {suite} does not run it; "
            "drop --levels\n"
        )
        code, out, err = run(["verify", gate, "--suite", "all", "--levels", "0"], capsys)
        assert (code, out, err) == (1, "", "error: bracket levels must be >= 1 or inf, got 0\n")

    def test_a_negative_seed_is_refused_by_name(self, junction_file, gate, capsys):
        # before the header, after the refusals of a file with cpds and of
        # usm as the only suite
        code, out, err = run(["verify", junction_file, "--suite", "lemma3", "--seed", "-1"], capsys)
        assert (code, out, err) == (1, "", "error: --seed must be a non-negative integer, got -1\n")
        code, out, err = run(["verify", gate, "--suite", "lemma3", "--seed", "-1"], capsys)
        assert (code, out) == (1, "") and err.startswith("error: file has cpds;")
        code, out, err = run(["verify", junction_file, "--suite", "usm", "--seed", "-1"], capsys)
        assert (code, out) == (1, "") and err.startswith("error: --seed samples a parametrization, and the usm suite")

    def test_seed_refused_when_usm_is_the_only_suite(self, junction_file, capsys):
        # usm builds its own parametrization, so a seed would sample nothing
        code, out, err = run(["verify", junction_file, "--suite", "usm", "--seed", "3"], capsys)
        assert (code, out) == (1, "")
        assert err == "error: --seed samples a parametrization, and the usm suite builds its own; drop --seed N\n"
        code, out, _ = run(["verify", junction_file, "--suite", "all", "--seed", "3"], capsys)
        assert code == 0 and "seed: 3" in out

    def test_levels_take_every_spelling_of_a_policy_class(self, gate, capsys):
        def report(levels):
            code, out, err = run(["verify", gate, "--suite", "lemma3", "--levels", levels], capsys)
            assert code == 0 and err == "", levels
            return out.split("\n", 1)[1]  # the header echoes the command line

        for spellings in (("inf,2", "INF,2", "∞,2", "infinity,2"), ("inf,1", " inf , 1 ")):
            assert len({report(levels) for levels in spellings}) == 1, spellings

    @pytest.mark.parametrize("levels, item", [("x", "x"), ("1, X ", "X"), ("1,,2", ""), ("1,²", "²"), ("2,-1", "-1")])
    def test_a_bad_level_is_refused_by_name(self, gate, capsys, levels, item):
        code, out, err = run(["verify", gate, "--suite", "lemma3", "--levels", levels], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: cannot parse policy class {item!r}\n"

    def test_all_suites_overall_line(self, gate, capsys):
        code, out, _ = run(["verify", gate, "--suite", "all"], capsys)
        assert code == 0
        assert out.count("suite:") == 4
        assert "overall: PASS" in out

    def test_failing_suite_exits_two(self, junction_file, capsys, monkeypatch):
        def broken(dag, intervenable, targets, budget=None):
            return SuiteReport("usm", False, ("forced failure for the exit-code contract",))

        monkeypatch.setattr(cli, "verify_usm", broken)
        code, out, _ = run(["verify", junction_file, "--suite", "usm"], capsys)
        assert code == 2
        assert "result: FAIL" in out

    def test_unknown_suite_rejected(self, gate, capsys):
        code, _, err = run(["verify", gate, "--suite", "everything"], capsys)
        assert code == 1


class TestUsm:
    def test_constructs_and_writes(self, junction_file, tmp_path, capsys):
        out_path = tmp_path / "adversarial.json"
        code, out, _ = run(["usm", junction_file, "--out", str(out_path)], capsys)
        assert code == 0
        assert "drivers: t3 t4" in out
        assert "desired: o=1" in out
        assert f"wrote: {out_path}" in out
        spec = load(out_path)
        assert spec.cbn is not None
        assert spec.cbn.marginal_prob({"o": 1}) == 0.0

    def test_out_that_cannot_be_written(self, junction_file, tmp_path, capsys):
        # a missing directory and a directory: an error line, no traceback
        for out_path in (tmp_path / "absent" / "usm.json", tmp_path):
            code, out, err = run(["usm", junction_file, "--out", str(out_path)], capsys)
            assert code == 1
            assert out == ""
            assert err.startswith(f"error: cannot write {out_path}: ")
            assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_written_file_passes_its_own_suites(self, junction_file, tmp_path, capsys):
        out_path = tmp_path / "adversarial.json"
        run(["usm", junction_file, "--out", str(out_path)], capsys)
        code, out, _ = run(["verify", str(out_path), "--suite", "all"], capsys)
        assert code == 0
        assert "overall: PASS" in out


class TestParser:
    def test_unknown_command(self, capsys):
        code, _, err = run(["meditate"], capsys)
        assert code == 1

    def test_no_command(self, capsys):
        code, _, err = run([], capsys)
        assert code == 1

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(["drivers", str(tmp_path / "nope.json")], capsys)
        assert code == 1
        assert "cannot read" in err

    def test_a_file_that_is_not_utf8(self, capsys, tmp_path):
        # an error line naming the file, no traceback
        path = tmp_path / "latin1.json"
        path.write_bytes(b"\xff{}")
        code, out, err = run(["drivers", str(path)], capsys)
        assert code == 1 and out == ""
        assert err.startswith(f"error: cannot read {path}: ")
        assert err.count("\n") == 1

    def test_json_that_json_loads_refuses(self, capsys, tmp_path):
        # nesting past the recursion limit and an integer past the digit
        # limit: one error line, no traceback
        path = tmp_path / "deep.json"
        for nodes in ("[" * 100000 + "]" * 100000, '[{"name": "a", "card": ' + "9" * 5000 + "}]"):
            path.write_text('{"format": "cbn-net/1", "nodes": ' + nodes + "}")
            code, out, err = run(["drivers", str(path)], capsys)
            assert code == 1 and out == ""
            assert err.startswith("error: not valid JSON: ")
            assert err.count("\n") == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["--help"])
        assert info.value.code == 0


# Golden outputs: every subcommand on each fixture, run from the repo root
# with relative fixture paths.  Each file under tests/golden/ holds the exit
# code, stdout, stderr and (for `usm`) the written network file, with the
# temporary output directory shown as <tmp>.  To rewrite them after an
# intended output change, run `PYTHONPATH=src python tests/test_cli.py`.
ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_ARGS = {
    "drivers": ["drivers", "{net}"],
    "eval": ["eval", "{net}"],
    "solve-min-min": ["solve", "{net}", "--objective", "min-min"],
    "solve-max-max": ["solve", "{net}", "--objective", "max-max"],
    "solve-min-max": ["solve", "{net}", "--objective", "min-max"],
    "solve-max-min": ["solve", "{net}", "--objective", "max-min"],
    "solve-max-max-budget-20000": ["solve", "{net}", "--objective", "max-max", "--budget", "20000"],
    "verify-all": ["verify", "{net}", "--suite", "all"],
    "verify-all-seed-3": ["verify", "{net}", "--suite", "all", "--seed", "3"],
    "verify-all-seed-3-budget-100": [
        "verify", "{net}", "--suite", "all", "--seed", "3", "--budget", "100"
    ],
    "verify-all-seed-3-budget-300": [
        "verify", "{net}", "--suite", "all", "--seed", "3", "--budget", "300"
    ],
    "usm": ["usm", "{net}", "--out", "{tmp}/usm.json"],
}
# --seed matters only without cpds, so it runs on the structure-only junction
GOLDEN_CASES = [
    (net, case)
    for net in ("xor_gate", "two_branch_junction", "dead_driver")
    for case in GOLDEN_ARGS
    if net == "two_branch_junction" or "seed" not in case
]


def golden_record(net: str, case: str) -> str:
    """Exit code, stdout, stderr and any written file of one CLI run, as
    the text kept in ``tests/golden/<net>.<case>.txt``; the caller must
    have the repo root as its working directory."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = [
            a.format(net=f"fixtures/{net}.json", tmp=tmp) for a in GOLDEN_ARGS[case]
        ]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        parts = [
            f"$ cbnctrl {' '.join(argv)}\n",
            f"exit: {code}\n",
            "--- stdout\n",
            out.getvalue(),
            "--- stderr\n",
            err.getvalue(),
        ]
        written = Path(tmp) / "usm.json"
        if written.exists():
            parts += ["--- usm.json\n", written.read_text()]
        return "".join(parts).replace(tmp, "<tmp>")


class TestGolden:
    @pytest.mark.parametrize("net,case", GOLDEN_CASES)
    def test_output_matches_golden(self, net, case, monkeypatch):
        monkeypatch.chdir(ROOT)
        expected = (GOLDEN_DIR / f"{net}.{case}.txt").read_text()
        assert golden_record(net, case) == expected


if __name__ == "__main__":
    os.chdir(ROOT)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for net, case in GOLDEN_CASES:
        (GOLDEN_DIR / f"{net}.{case}.txt").write_text(golden_record(net, case))
