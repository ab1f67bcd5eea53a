"""Seeded inputs, operations and output checks for the four workloads.

Each ``build_*`` function generates its workload's network documents from
the seed, parses them through ``cbnctrl.netfile.parse`` and returns a
``Workload``: the fixed list of operations one pass runs, and the checks
that judge their outputs afterwards.  Network *structures* are fixed per
rung, so an operation's cost does not move with the seed; the seed draws
every probability table, desired value, evidence value and policy row.

``cbnctrl`` names are looked up when a workload is built, not when this
module is imported, so a tracer installed in between sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass, field
from math import prod
from typing import Callable

import cbnctrl
import cbnctrl.cli
import reference
from reference import Net

TOL = 1e-9
#: Largest number of table combinations the reference searches exhaustively.
EXHAUSTIVE_CAP = 1024


@dataclass
class Workload:
    """``ops`` are (name, thunk) pairs; each check maps the outputs of one
    pass (aligned with ``ops``) to a list of error strings."""

    ops: list[tuple[str, Callable[[], object]]] = field(default_factory=list)
    checks: list[Callable[[list], list[str]]] = field(default_factory=list)
    #: peak resident memory over the CLI processes run so far, in KiB
    child_peak_kb: int = 0

    def add(self, name: str, thunk: Callable[[], object]) -> int:
        self.ops.append((name, thunk))
        return len(self.ops) - 1


# ---------------------------------------------------------------- networks


def network(seed, label, names, cards, edges, intervenable, targets, *,
            deterministic=False) -> dict:
    """A ``cbn-net/1`` document with tables drawn from ``(seed, label)``.

    Positive rows are uniform in [0.05, 1] and normalised; deterministic
    rows put all mass on one drawn value.
    """
    rng = random.Random(f"{seed}/{label}")
    index = {n: i for i, n in enumerate(names)}
    parents = {n: [] for n in names}
    for p, c in edges:
        parents[c].append(p)
    cpds = {}
    for node in names:
        scope = sorted(parents[node], key=index.__getitem__)
        cpds[node] = {"parents": scope,
                      "rows": draw_rows(rng, cards[node], prod(cards[p] for p in scope),
                                        deterministic)}
    desired = {t: rng.randrange(cards[t]) for t in targets}
    return {
        "format": "cbn-net/1",
        "nodes": [{"name": n, "card": cards[n]} for n in names],
        "edges": [[p, c] for p, c in edges],
        "intervenable": list(intervenable),
        "targets": [{"name": t, "desired": desired[t]} for t in targets],
        "cpds": cpds,
    }


def draw_rows(rng: random.Random, card: int, count: int, deterministic=False) -> list:
    rows = []
    for _ in range(count):
        if deterministic:
            hot = rng.randrange(card)
            rows.append([1.0 if v == hot else 0.0 for v in range(card)])
        else:
            raw = [rng.uniform(0.05, 1.0) for _ in range(card)]
            total = sum(raw)
            rows.append([r / total for r in raw])
    return rows


def nest(k: int, card: int = 2):
    """Drivers d0..d(k-1) in a chain, all parents of the target ``o``;
    class-inf scopes are nested, so every driver joins one chain and the
    2^k scan in ``control._pick_chain`` dominates."""
    ds = [f"d{i}" for i in range(k)]
    names = ["u", *ds, "o"]
    edges = [("u", "d0"), ("u", "o")]
    edges += [(a, b) for a, b in zip(ds, ds[1:])] + [(d, "o") for d in ds]
    return names, {n: card for n in names}, edges, ds, ["o"]


def fan(k: int, roots: int, card: int = 2):
    """Drivers d_i, each with private root parents, joined by a mediator
    ``m`` above the target; the scopes are incomparable, so all but one
    driver's tables are enumerated."""
    names, edges = [], []
    for i in range(k):
        rs = [f"r{i}_{j}" for j in range(roots)]
        names += [*rs, f"d{i}"]
        edges += [(r, f"d{i}") for r in rs] + [(f"d{i}", "m")]
    names += ["m", "o"]
    edges.append(("m", "o"))
    return names, {n: card for n in names}, edges, [f"d{i}" for i in range(k)], ["o"]


def random_structure(label: str, n: int, card: int, edge_prob: float, max_parents: int):
    """A DAG on v0..v(n-1) fixed by ``label`` alone, never by the run seed."""
    rng = random.Random(f"structure/{label}")
    names = [f"v{i}" for i in range(n)]
    edges = []
    for j in range(1, n):
        pool = [i for i in range(j) if rng.random() < edge_prob][-max_parents:]
        if not pool and j == n - 1:
            pool = [j - 1]
        edges += [(names[i], names[j]) for i in pool]
    return names, {v: card for v in names}, edges


def skeleton(names, cards, edges, intervenable=(), targets=()) -> Net:
    """The reference's view of a structure that has no tables yet."""
    return Net({"nodes": [{"name": n, "card": cards[n]} for n in names], "edges": edges,
                "intervenable": list(intervenable),
                "targets": [{"name": t, "desired": 0} for t in targets]})


# ------------------------------------------------------------ output forms


def policy_tables(net: Net, pair) -> dict:
    return {p.target: net.table(p.scope, p.target, p.table.rows) for p in pair.policies}


def solve_output(result) -> tuple:
    pair = result.pair
    policies = () if pair is None else tuple(
        (p.target, p.scope, p.table.rows) for p in pair.policies)
    return result.drivers.members, result.value, policies


def close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL


def reference_optimum(net: Net, drivers, maximize: bool):
    """The reference's own exhaustive optimum, or None above the cap."""
    try:
        return reference.exhaustive(net, drivers, maximize, EXHAUSTIVE_CAP)
    except ValueError:
        return None


# ------------------------------------------------------------ solve-ladder

#: (label, structure, deterministic tables, replicates)
LADDER = [
    ("fan2x2-det", fan(2, 2), True, 4),
    ("fan2x1", fan(2, 1), False, 3),
    ("nest4-ternary", nest(4, 3), False, 3),
    ("fan3x1", fan(3, 1), False, 3),
    ("nest5-ternary", nest(5, 3), False, 3),
    ("nest8-det", nest(8), True, 3),
    ("fan4x1", fan(4, 1), False, 6),
    ("nest8", nest(8), False, 3),
    ("nest6-ternary", nest(6, 3), False, 3),
    ("nest10-det", nest(10), True, 3),
    ("nest11-det", nest(11), True, 3),
    ("nest10", nest(10), False, 3),
    ("fan3x2", fan(3, 2), False, 3),
    ("nest11", nest(11), False, 3),
    ("fan5x1", fan(5, 1), False, 3),
    ("nest12-det", nest(12), True, 3),
    ("fan3x1-ternary", fan(3, 1, 3), False, 3),
    ("nest12", nest(12), False, 3),
]


def build_solve_ladder(seed: int) -> Workload:
    parse, solve, Objective = cbnctrl.netfile.parse, cbnctrl.solve, cbnctrl.Objective
    w = Workload()
    for label, (names, cards, edges, intervenable, targets), det, reps in LADDER:
        for rep in range(reps):
            doc = network(seed, f"{label}/{rep}", names, cards, edges, intervenable, targets,
                          deterministic=det)
            spec = parse(json.dumps(doc))
            net = Net(doc)
            for objective in (Objective.MAX_MAX, Objective.MIN_MIN):
                problem = spec.problem(objective)
                i = w.add(f"{label}/{rep}/{objective.value}",
                          lambda p=problem, c=spec.cbn: solve_output(solve(p, c)))
                w.checks.append(solve_check(i, net, objective is Objective.MAX_MAX))
    return w


def solve_check(i: int, net: Net, maximize: bool):
    def check(outputs) -> list[str]:
        drivers, value, policies = outputs[i]
        errors = []
        if list(drivers) != net.drivers():
            errors.append(f"drivers {drivers} != reference {net.drivers()}")
        replay = reference.prob(net, net.desired, {
            t: net.table(scope, t, rows) for t, scope, rows in policies})
        if not close(replay, value):
            errors.append(f"witness replays to {replay!r}, reported {value!r}")
        baseline = reference.prob(net, net.desired)
        if (value < baseline - TOL) if maximize else (value > baseline + TOL):
            errors.append(f"value {value!r} on the wrong side of P(desired) {baseline!r}")
        best = reference_optimum(net, net.drivers(), maximize)
        if best is not None and not close(best, value):
            errors.append(f"value {value!r} != reference exhaustive optimum {best!r}")
        return errors
    return check


# --------------------------------------------------------------- query-enum

#: (label, nodes, card, replicates); structures come from the label alone
QUERY_NETS = [
    ("q8", 8, 2, 1), ("q5-ternary", 5, 3, 1), ("q9", 9, 2, 2), ("q6-ternary", 6, 3, 1),
    ("q10", 10, 2, 1), ("q11", 11, 2, 1), ("q7-ternary", 7, 3, 1), ("q12", 12, 2, 1),
    ("q8-ternary", 8, 3, 1), ("q13", 13, 2, 2),
]


def build_query_enum(seed: int) -> Workload:
    w = Workload()
    for label, n, card, reps in QUERY_NETS:
        names, cards, edges = random_structure(label, n, card, 0.35, 3)
        for rep in range(reps):
            add_queries(w, seed, f"{label}/{rep}", names, cards, edges)
    return w


def add_queries(w: Workload, seed: int, tag: str, names, cards, edges) -> None:
    """Every query kind on one network, each for all values of the target."""
    parse, solve, Objective = cbnctrl.netfile.parse, cbnctrl.solve, cbnctrl.Objective
    interventional_prob = cbnctrl.interventional_prob
    target = names[-1]
    card = cards[target]
    bare = skeleton(names, cards, edges)
    up = reference.full_scope(bare, target)
    actor, evidence = up[len(up) // 2], up[0]
    actor_scope = reference.full_scope(bare, actor)[:2]
    rng = random.Random(f"{seed}/{tag}/queries")
    doc = network(seed, tag, names, cards, edges, [actor, target], [target])
    given = {evidence: rng.randrange(cards[evidence])}
    atomic = dict(doc, policies={actor: {
        "scope": [], "rows": draw_rows(rng, cards[actor], 1, deterministic=True)}})
    conditional = dict(doc, policies={actor: {
        "scope": actor_scope,
        "rows": draw_rows(rng, cards[actor], prod(cards[s] for s in actor_scope))}})
    spec = parse(json.dumps(doc))
    atomic_pair = parse(json.dumps(atomic)).pair
    conditional_pair = parse(json.dumps(conditional)).pair
    cbn, net = spec.cbn, Net(doc)

    queries = [
        ("marginal", lambda e: cbn.marginal_prob(e), lambda e: reference.prob(net, e)),
        ("conditional", lambda e: cbn.conditional_prob(e, given),
         lambda e: reference.conditional(net, e, given)),
        ("atomic", lambda e: interventional_prob(cbn, atomic_pair, e),
         lambda e: reference.prob(net, e, policy_tables(net, atomic_pair))),
        ("policy", lambda e: interventional_prob(cbn, conditional_pair, e),
         lambda e: reference.prob(net, e, policy_tables(net, conditional_pair))),
    ]
    for kind, run, expect in queries:
        group = [w.add(f"{tag}/{kind}/{target}={v}", lambda e={target: v}, r=run: r(e))
                 for v in range(card)]
        w.checks.append(query_check(group, target, expect))
    for objective in (Objective.MIN_MAX, Objective.MAX_MIN, Objective.MIN_MIN):
        problem = spec.problem(objective)
        i = w.add(f"{tag}/{objective.value}", lambda p=problem: solve_output(solve(p, cbn)))
        w.checks.append(shortcut_check(i, net, objective is Objective.MIN_MIN))


def query_check(group: list[int], target: str, expect):
    def check(outputs) -> list[str]:
        errors = []
        for value, i in enumerate(group):
            want = expect({target: value})
            if not close(outputs[i], want):
                errors.append(f"{target}={value}: {outputs[i]!r} != reference {want!r}")
        total = sum(outputs[i] for i in group)
        if not close(total, 1.0):
            errors.append(f"probabilities over {target} sum to {total!r}")
        return errors
    return check


def shortcut_check(i: int, net: Net, reachable_target: bool):
    """min-min with an intervenable target forces it off its desired value;
    min-max and max-min are settled by the empty intervention."""
    def check(outputs) -> list[str]:
        drivers, value, policies = outputs[i]
        replay = reference.prob(net, net.desired, {
            t: net.table(scope, t, rows) for t, scope, rows in policies})
        errors = []
        if not close(replay, value):
            errors.append(f"witness replays to {replay!r}, reported {value!r}")
        if reachable_target:
            if value != 0.0 or list(drivers) != list(net.desired):
                errors.append(f"min-min on an intervenable target gave {drivers} {value!r}")
        elif drivers or not close(value, reference.prob(net, net.desired)):
            errors.append(f"adversarial objective gave {drivers} {value!r}")
        return errors
    return check


# ------------------------------------------------------------ verify-corpus

CORPUS_SIZE = 40
LEVELS = (1, 2, float("inf"))


def grid_heavy():
    """Two drivers behind one root each and a third with no parent; the
    0.25-grid search of ``verify_extremality`` covers 5^5 table combinations
    here, which makes that suite the workload's most expensive operation."""
    names = ["r0", "d0", "r1", "d1", "d2", "m", "o"]
    edges = [("r0", "d0"), ("r1", "d1"), ("d0", "m"), ("d1", "m"), ("d2", "m"), ("m", "o")]
    return names, {n: 2 for n in names}, edges, ["d0", "d1", "d2"], ["o"]


def corpus_structures():
    """Small binary networks, fixed by index, sized so that no suite is
    refused and no optimizer call enumerates more than a few thousand table
    combinations (see the README's note on the work estimate), plus
    ``grid_heavy``."""
    out = []
    candidate = 0
    while len(out) < CORPUS_SIZE:
        i = len(out)
        n = 4 + i % 4
        pool_size = 1 + (i // 4) % 3
        label = f"corpus{i}/{candidate}"
        candidate += 1
        names, cards, edges = random_structure(label, n, 2, 0.45, 3)
        target = names[-1]
        rng = random.Random(f"pool/{label}")
        pool = sorted(rng.sample(names[:-1], min(pool_size, n - 1)), key=names.index)
        bare = skeleton(names, cards, edges, pool, [target])
        scope_cells = {v: 2 ** len(bare.ancestors(v)) for v in pool}
        tables = prod(2 ** scope_cells[v] for v in pool)
        drivers = bare.drivers()
        grid = prod(5 ** scope_cells[d] for d in drivers)
        if drivers and tables <= 4096 and grid <= 5 ** 4:
            out.append((f"corpus{i}", names, cards, edges, pool, [target]))
    out.append(("grid", *grid_heavy()))
    return out


def build_verify_corpus(seed: int) -> Workload:
    parse = cbnctrl.netfile.parse
    suites = {
        "lemma3": lambda s: cbnctrl.verify_lemma3(s.cbn, s.intervenable, s.desired, LEVELS),
        "sufficiency": lambda s: cbnctrl.verify_sufficiency(
            s.cbn, s.intervenable, s.targets, s.desired),
        "usm": lambda s: cbnctrl.verify_usm(s.dag, s.intervenable, s.targets),
        "extremality": lambda s: cbnctrl.verify_extremality(
            s.cbn, s.intervenable, s.targets, s.desired),
    }
    w = Workload()
    for label, names, cards, edges, pool, targets in corpus_structures():
        doc = network(seed, label, names, cards, edges, pool, targets)
        spec = parse(json.dumps(doc))
        net = Net(doc)
        for suite, run in suites.items():
            i = w.add(f"{label}/{suite}", lambda r=run, s=spec: report_output(r(s)))
            w.checks.append(suite_check(i, net, suite))
    return w


def report_output(report) -> tuple:
    return report.name, report.passed, report.details


def suite_check(i: int, net: Net, suite: str):
    def check(outputs) -> list[str]:
        _, passed, details = outputs[i]
        return suite_errors(net, suite, passed, details, levels=len(LEVELS))
    return check


def suite_errors(net: Net, suite: str, passed: bool, details, levels=3,
                 baseline_known=True) -> list[str]:
    """Checks shared by the in-process suites and the ``verify`` command."""
    errors = [] if passed else [f"{suite} reported FAIL: {list(details)}"]
    drivers = net.drivers()
    text = "\n".join(details)
    if suite == "lemma3":
        want = 2 ** len(net.intervenable) * levels
        if f"brackets checked: {want}" not in details:
            errors.append(f"lemma3 did not report {want} brackets")
        if baseline_known:
            got = float(re.search(r"baseline probability (\S+)", text).group(1))
            if not close(got, reference.prob(net, net.desired)):
                errors.append(f"lemma3 baseline {got} != reference")
    elif suite == "usm":
        want = 2 ** len(drivers) - 1
        if f"proper subsets checked: {want}" not in details:
            errors.append(f"usm did not report {want} proper subsets")
    if suite in ("sufficiency", "usm", "extremality"):
        if f"drivers: {{{' '.join(drivers)}}}" not in details:
            errors.append(f"{suite} drivers differ from reference {drivers}")
    if suite in ("sufficiency", "extremality"):
        for direction in ("max", "min"):
            found = re.search(rf"{direction}: (?:drivers|deterministic) (\S+?),", text)
            best = reference_optimum(net, drivers, direction == "max")
            if best is not None and not close(float(found.group(1)), best):
                errors.append(f"{suite} {direction} {found.group(1)} != reference {best!r}")
    return errors


# ---------------------------------------------------------------- cli-files


def cli_runner(traced: bool, w: Workload):
    """Runs one command: a fresh ``python -m cbnctrl.cli`` process, or in the
    traced run ``cbnctrl.cli.main`` in process.  Returns (exit code, stdout).
    A process's peak memory goes into ``w.child_peak_kb``; it is read per
    process, because the pace kernel starts processes of its own."""
    if traced:
        def run(argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cbnctrl.cli.main(argv)
            return code, out.getvalue().encode()
        return run

    def run(argv):
        proc = subprocess.Popen([sys.executable, "-m", "cbnctrl.cli", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        with proc.stdout:
            stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        w.child_peak_kb = max(w.child_peak_kb, usage.ru_maxrss)
        return proc.returncode, stdout
    return run


def build_cli_files(seed: int, workdir: str, traced: bool) -> Workload:
    serialize, parse = cbnctrl.netfile.serialize, cbnctrl.netfile.parse
    os.makedirs(workdir, exist_ok=True)
    files = {"junction": "fixtures/two_branch_junction.json", "xor": "fixtures/xor_gate.json"}
    names, cards, edges = random_structure("cli-a", 6, 2, 0.5, 2)
    doc_a = network(seed, "cli-a", names, cards, edges, names[1:3], [names[-1]])
    doc_a["policies"] = {names[2]: {"scope": [], "rows": [[0.0, 1.0]]}}
    names, cards, edges = random_structure("cli-b", 4, 3, 0.6, 2)
    doc_b = network(seed, "cli-b", names, cards, edges, names[:2], [names[-1]])
    for key, doc in (("seeded-a", doc_a), ("seeded-b", doc_b)):
        path = os.path.join(workdir, f"{key}.json")
        with open(path, "w") as fh:
            fh.write(serialize(parse(json.dumps(doc))))
        files[key] = path
    nets = {}
    for key, path in files.items():
        with open(path) as fh:
            nets[key] = Net(json.load(fh))

    commands = [
        ("drivers", "junction", []),
        ("drivers", "seeded-a", []),
        ("eval", "xor", []),
        ("eval", "seeded-a", []),
        ("solve", "xor", ["--objective", "max-max"]),
        ("solve", "seeded-a", ["--objective", "max-max"]),
        ("solve", "seeded-a", ["--objective", "min-min"]),
        ("solve", "seeded-b", ["--objective", "max-max"]),
        ("solve", "seeded-b", ["--objective", "min-max"]),
        ("solve", "seeded-a", ["--objective", "max-min"]),
        ("verify", "junction", ["--suite", "lemma3", "--seed", str(seed)]),
        ("verify", "seeded-a", ["--suite", "sufficiency"]),
        ("verify", "xor", ["--suite", "all"]),
        ("usm", "junction", ["--out", os.path.join(workdir, "usm-junction.json")]),
        ("usm", "seeded-b", ["--out", os.path.join(workdir, "usm-seeded-b.json")]),
    ]
    w = Workload()
    run = cli_runner(traced, w)
    for command, key, extra in commands:
        argv = [command, files[key], *extra]
        out_path = extra[-1] if command == "usm" else None

        def op(argv=argv, out_path=out_path):
            code, stdout = run(argv)
            if out_path is None:
                return code, stdout, None
            with open(out_path, "rb") as fh:
                return code, stdout, fh.read()
        i = w.add(f"{command} {key} {' '.join(extra[:2])}".strip(), op)
        w.checks.append(cli_check(i, command, nets[key], extra))
    return w


def parse_report(stdout: bytes) -> dict[str, list[str]]:
    fields: dict[str, list[str]] = {}
    for line in stdout.decode().splitlines():
        key, _, value = line.partition(": ")
        fields.setdefault(key, []).append(value)
    return fields


def printed_policies(net: Net, lines) -> dict:
    tables = {}
    for line in lines:
        target, scope, rows = (part.split(": ", 1)[1] for part in ("x: " + line).split(" | "))
        scope_list = [] if scope == "(none)" else scope.split()
        values = [[float(c) for c in row.split()] for row in rows.split("; ")]
        tables[target] = net.table(scope_list, target, values)
    return tables


def cli_check(i: int, command: str, net: Net, extra):
    def check(outputs) -> list[str]:
        code, stdout, written = outputs[i]
        if code != 0:
            return [f"exit code {code}"]
        report = parse_report(stdout)
        drivers = " ".join(net.drivers()) or "(none)"
        errors = []
        if command == "drivers" and report.get("drivers") != [drivers]:
            errors.append(f"drivers {report.get('drivers')} != reference {drivers}")
        elif command == "eval":
            want = reference.prob(net, net.desired, net.policies)
            if not close(float(report["probability"][0]), want):
                errors.append(f"probability {report['probability']} != reference {want!r}")
        elif command == "solve":
            objective = extra[1]
            value = float(report["value"][0])
            if objective in ("max-max", "min-min"):
                if report["drivers"] != [drivers]:
                    errors.append(f"drivers {report['drivers']} != reference {drivers}")
                tables = {} if report["policy"] == ["(none)"] else printed_policies(
                    net, report["policy"])
                replay = reference.prob(net, net.desired, tables)
                best = reference_optimum(net, net.drivers(), objective == "max-max")
                for want in (replay, best):
                    if want is not None and not close(value, want):
                        errors.append(f"{objective} value {value} != reference {want!r}")
            elif not close(value, reference.prob(net, net.desired)):
                errors.append(f"{objective} value {value} != reference baseline")
        elif command == "verify":
            suites = report.get("suite", [])
            results = report.get("result", [])
            if not suites or results != ["PASS"] * len(suites):
                errors.append(f"suites {suites} gave {results}")
            details = report.get("detail", [])
            for suite in suites:
                errors += suite_errors(net, suite, True, details,
                                       baseline_known="--seed" not in extra)
        elif command == "usm":
            adversarial = Net(json.loads(written))
            forced = {d: adversarial.table([], d, [[0.0, 1.0]]) for d in net.drivers()}
            if report.get("drivers") != [drivers]:
                errors.append(f"usm drivers {report.get('drivers')} != reference {drivers}")
            if reference.prob(adversarial, adversarial.desired, forced) != 1.0:
                errors.append("forcing every driver on does not reach the target surely")
        return errors
    return check


BUILDERS = {
    "solve-ladder": build_solve_ladder,
    "query-enum": build_query_enum,
    "verify-corpus": build_verify_corpus,
    "cli-files": build_cli_files,
}
