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
        doc = json.loads(open(gate).read())
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
        code, _, err = run(["verify", gate, "--suite", "lemma3", "--levels", "0,1"], capsys)
        assert code == 1
        assert "levels" in err

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

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["--help"])
        assert info.value.code == 0


# Golden outputs: every subcommand on both fixtures, run from the repo root
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
    for net in ("xor_gate", "two_branch_junction")
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
