"""Replay of the committed differential snapshot (`differential.py`).

The snapshot was written by the generator at the parent of the last change
that rewrote it; this replay holds the current tree to its rules: values
within 1e-12, refusals identical, witnesses identical or changed only among
ties.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import cbnctrl.control as control
from cbnctrl.intervention import scope_for_class

import differential

HERE = Path(__file__).parent
SNAPSHOT = HERE / "differential.json"

#: entries whose witness changed among ties, with the change that moved
#: them; each is named in CHANGES.md
TIE_CHANGES: dict[str, str] = {}


def test_snapshot_replays():
    with open(SNAPSHOT) as fh:
        snapshot = {e["id"]: e for e in json.load(fh)}
    seen, failures, ties = set(), [], []
    for entry, cbn, args in differential.corpus():
        key = entry["id"]
        seen.add(key)
        if key not in snapshot:
            failures.append(f"{key}: not in the snapshot")
            continue
        witnessed = entry["kind"] in ("opv", "revalue", "subsets", "dead")
        replay = differential.replay_witness(cbn, args) if witnessed else None
        why = differential.compare(snapshot[key], entry, replay)
        if why == "witness changed among ties":
            ties.append(key)
        elif why:
            failures.append(f"{key} ({entry['kind']}): {why}")
    failures += [f"{key}: no longer drawn" for key in snapshot.keys() - seen]
    assert not failures, failures
    assert sorted(ties) == sorted(TIE_CHANGES), "tie changes must be listed in TIE_CHANGES"


def test_small_chunks_write_the_snapshot(monkeypatch):
    # With chunks of 64 entries the kernel takes most drivers in blocks,
    # and its chunks come out of number order; the corpus must still write
    # the snapshot byte for byte, every tie kept where it was.  Each entry
    # draws a new structure, so each plan reads the patched size.
    monkeypatch.setattr(control, "CHUNK_ELEMENTS", 64)
    entries = [entry for entry, _, _ in differential.corpus()]
    assert differential.dumps(entries) == SNAPSHOT.read_text()


def test_snapshot_covers_every_kind_and_refusal():
    with open(SNAPSHOT) as fh:
        entries = json.load(fh)
    assert 300 <= len(entries) <= 700
    assert {e["kind"] for e in entries} == set(differential.KINDS)
    refused = {e["refusal"][0] for e in entries if "refusal" in e}
    assert {"BudgetExceededError", "ZeroProbabilityError"} <= refused
    assert {e["shape"] for e in entries} == set(differential.SHAPES)


def test_queries_print_the_same_under_two_hash_seeds():
    # node names are str, whose set order follows the hash seed: the
    # printed answers must not
    # answers, witnesses and refusals of every kind, since plans are keyed
    # by frozensets of node names
    script = [sys.executable, str(HERE / "differential.py"), "print"]
    src = str(HERE.parent / "src")
    outputs = []
    for seed in ("0", "1"):
        path = os.pathsep.join(p for p in (os.environ.get("PYTHONPATH"), src) if p)
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        done = subprocess.run(script, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) >= 200


def test_a_driver_in_a_chain_scope_keeps_its_witness(monkeypatch):
    # In entries 16.9 and 16.10 the requisite cut empties v1's scope, but
    # v1 is in the chain driver v2's class scope, so v1 is not read off the
    # base: v2's choice at v1's other value stays 0, where reading v1 off
    # the base would copy v2's choice at v1's chosen value there
    with open(SNAPSHOT) as fh:
        snapshot = {e["id"]: e for e in json.load(fh)}
    # each search plan made, with the dag that keeps it
    made = []
    search_plan = control._search_plan

    def recording(dag, cards, driver_list, ip_class, given):
        made.append((dag, ip_class, search_plan(dag, cards, driver_list, ip_class, given)))
        return made[-1][2]

    monkeypatch.setattr(control, "_search_plan", recording)
    wanted = {"16.9", "16.10"}
    for entry, cbn, _ in differential.corpus(kinds=("revalue", "subsets")):
        if entry["id"] not in wanted:
            continue
        wanted.remove(entry["id"])
        assert entry["witness"] == snapshot[entry["id"]]["witness"], entry["id"]
        (v1, v1_scope, v1_choices), (v2, v2_scope, v2_choices) = entry["witness"]
        assert (v1, v2, v2_scope) == ("v1", "v2", ["v1"])
        assert len(set(v1_choices)) == 1 and v2_choices[1 - v1_choices[0]] == 0
        plans = [p for dag, cls, p in made
                 if dag is cbn.dag and "v2" in p.gathers and "v1" in scope_for_class(dag, "v2", cls)]
        assert plans and all(p.free == 0 for p in plans)
    assert not wanted
