"""The committed benchmark records, ``BENCH_<n>.json`` at the repository
root, and what ``tools/bench_record.py`` writes, follow one schema.

Nothing here runs the benchmark: the recorder's rows are built from made-up
result lines of the form ``bench/run.py`` prints.
"""

import importlib.util
import json
import re
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
KEYS = {"commit", "dirty", "seed", "seconds", "python", "numpy", "nproc", "PYTHONDONTWRITEBYTECODE", "rows"}
ROW_KEYS = {"workload", "runs", "correct", "failed", "attempted", "metrics", "samples"}


def recorder():
    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def declared():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [w["name"] for w in doc["workloads"]], [m["name"] for m in doc["end_to_end"]]


def check_record(doc):
    workloads, metrics = declared()
    assert set(doc) == KEYS
    assert doc["commit"] is None or re.fullmatch(r"[0-9a-f]{40}", doc["commit"])
    assert doc["dirty"] in (None, True, False)
    assert all(type(doc[k]) is int and doc[k] >= 0 for k in ("seed", "seconds", "nproc"))
    assert re.fullmatch(r"\d+\.\d+\.\d+", doc["python"]) and isinstance(doc["numpy"], str)
    assert doc["PYTHONDONTWRITEBYTECODE"] is None or isinstance(doc["PYTHONDONTWRITEBYTECODE"], str)
    names = [row["workload"] for row in doc["rows"]]
    assert names and len(set(names)) == len(names) and set(names) <= set(workloads)
    for row in doc["rows"]:
        assert set(row) == ROW_KEYS
        assert type(row["runs"]) is int and row["runs"] >= 1
        assert type(row["correct"]) is bool
        assert type(row["failed"]) is int and type(row["attempted"]) is int
        assert 0 <= row["failed"] <= row["attempted"]
        assert list(row["metrics"]) == list(row["samples"]) == metrics
        for name, values in row["samples"].items():
            assert len(values) == row["runs"]
            assert all(isinstance(v, (int, float)) and v >= 0 for v in values)
            assert row["metrics"][name] == statistics.median(values)


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_a_committed_record_follows_the_schema(path):
    assert re.fullmatch(r"BENCH_\d+\.json", path.name)
    doc = json.loads(path.read_text())
    check_record(doc)
    # only records of passing runs are committed
    assert all(row["correct"] and row["failed"] == 0 for row in doc["rows"])


def test_records_are_committed():
    assert RECORDS


def test_the_recorder_writes_the_schema():
    bench = recorder()
    workloads, metrics = declared()

    def line(scale, correct=True, failed=0):
        return {
            "correct": correct, "attempted": 40, "failed": failed,
            "metrics": {m: {"value": scale * (i + 1), "unit": "-"} for i, m in enumerate(metrics)},
        }

    rows = [
        bench.summarize(workloads[0], [line(3.0), line(1.0), line(2.0)], metrics),
        bench.summarize(workloads[1], [line(1.0), line(1.0, correct=False, failed=2)], metrics),
    ]
    check_record(bench.record(str(ROOT), rows, 7, 15))
    assert rows[0]["metrics"] == {m: 2.0 * (i + 1) for i, m in enumerate(metrics)}
    assert (rows[0]["runs"], rows[0]["attempted"], rows[0]["correct"]) == (3, 120, True)
    assert (rows[1]["correct"], rows[1]["failed"]) == (False, 2)


@pytest.mark.parametrize("text, parsed", [("verify-corpus", ("verify-corpus", 1)), ("cli-files:3", ("cli-files", 3))])
def test_a_workload_takes_a_run_count(text, parsed):
    assert recorder().parse_workload(text, declared()[0]) == parsed


@pytest.mark.parametrize("text", ["nothing", "cli-files:0", "cli-files:x", "cli-files:-1"])
def test_a_bad_workload_is_refused(text):
    with pytest.raises(Exception, match="workload|runs"):
        recorder().parse_workload(text, declared()[0])
