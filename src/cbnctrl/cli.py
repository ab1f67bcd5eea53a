"""Command line interface.

Subcommands operate on network files (see `netfile`).  Exit codes: 0 for
success, 1 for usage and validation errors, 2 for a failed verification
suite, 3 for a refused computation (budget exceeded).  Reports are plain
text on stdout, probabilities printed with nine decimals, and a given
command line produces byte-identical output on every run.
"""

from __future__ import annotations

import argparse
import sys
from math import prod

import numpy as np

from .cbn import DEFAULT_BUDGET, Budget, BudgetExceededError
from .control import Objective, c_star, solve, usm_adversarial_cbn
from .intervention import InterventionPair, IpClass, interventional_prob
from .netfile import NetworkSpec, load, save
from .oracle import (
    SUITE_NAMES,
    SuiteReport,
    bracket_classes,
    random_cbn,
    verify_extremality,
    verify_lemma3,
    verify_sufficiency,
    verify_usm,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise _UsageError(message)


def _fmt_prob(value: float) -> str:
    return f"{value:.9f}"


def _fmt_set(names) -> str:
    return " ".join(names) if names else "(none)"


def _policy_lines(pair: InterventionPair) -> list[str]:
    if len(pair) == 0:
        return ["policy: (none)"]
    lines = []
    for policy in pair.policies:
        rows = "; ".join(" ".join(_fmt_prob(c) for c in row) for row in policy.table.rows)
        scope = " ".join(policy.scope) if policy.scope else "(none)"
        lines.append(f"policy: {policy.target} | scope: {scope} | rows: {rows}")
    return lines


def _desired_line(spec: NetworkSpec) -> str:
    return "desired: " + " ".join(f"{t}={spec.desired[t]}" for t in spec.targets)


def _budget_from(args) -> Budget:
    if getattr(args, "budget", None) is None:
        return DEFAULT_BUDGET
    if args.budget <= 0:
        raise ValueError("--budget must be a positive number of elementary steps")
    return Budget(max_work=args.budget)


def _cmd_drivers(args, header: str) -> int:
    spec = load(args.file)
    problem = spec.problem()
    result = problem.dag.backward_chain(problem.targets, problem.intervenable)
    terminals = set(result.terminals)
    print(header)
    print(f"targets: {_fmt_set(problem.targets)}")
    print(f"intervenable: {_fmt_set(problem.intervenable)}")
    for node in result.visited:
        if node in terminals:
            role = "terminal"
        elif problem.dag.parents(node):
            role = "expanded"
        else:
            role = "root"
        print(f"chain: {node} {role}")
    print(f"drivers: {_fmt_set(result.terminals)}")
    return 0


def _cmd_eval(args, header: str) -> int:
    spec = load(args.file)
    if spec.cbn is None:
        raise ValueError("file has no cpds; evaluation needs a full parametrization")
    pair = spec.pair if spec.pair is not None else InterventionPair.empty()
    value = interventional_prob(spec.cbn, pair, spec.desired)
    print(header)
    print(_desired_line(spec))
    for line in _policy_lines(pair):
        print(line)
    print(f"probability: {_fmt_prob(value)}")
    return 0


def _cmd_solve(args, header: str) -> int:
    spec = load(args.file)
    objective = Objective.parse(args.objective)
    problem = spec.problem(objective)
    result = solve(problem, spec.cbn, _budget_from(args))
    print(header)
    print(f"objective: {objective.value}")
    print(_desired_line(spec))
    print(f"drivers: {_fmt_set(result.drivers.members)}")
    print(f"provenance: {result.drivers.provenance.value}")
    if result.value is None:
        print("value: structural-only")
    else:
        print(f"value: {_fmt_prob(result.value)}")
        for line in _policy_lines(result.pair):
            print(line)
    return 0


def _print_report(report: SuiteReport) -> None:
    print(f"suite: {report.name}")
    print(f"result: {'PASS' if report.passed else 'FAIL'}")
    for line in report.details:
        print(f"detail: {line}")


def _cmd_verify(args, header: str) -> int:
    spec = load(args.file)
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    budget = _budget_from(args)
    # a flag that no chosen suite reads is refused, not ignored
    if args.levels is not None and "lemma3" not in names:
        raise ValueError(
            f"--levels sets the lemma3 suite's bracket levels, and --suite {args.suite} does not run it; "
            "drop --levels"
        )
    levels = ()
    if "lemma3" in names:
        levels = tuple(IpClass.parse(item).level for item in (args.levels or "1,2,inf").split(","))
        bracket_classes(levels)

    cbn = spec.cbn
    if cbn is not None and args.seed is not None:
        # the file's own tables would be checked, not a sampled network
        raise ValueError(
            "file has cpds; drop --seed N, which samples a parametrization only for a file without cpds"
        )
    seed_line = None
    needs_cbn = any(n != "usm" for n in names)
    if args.seed is not None and not needs_cbn:
        raise ValueError("--seed samples a parametrization, and the usm suite builds its own; drop --seed N")
    if needs_cbn and cbn is None:
        if args.seed is None:
            raise ValueError("file has no cpds; pass --seed N to sample a parametrization")
        if args.seed < 0:
            raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
        # no sampled table is larger than the state space
        budget.check_state_space(prod(spec.cards.values()))
        cbn = random_cbn(np.random.default_rng(args.seed), spec.dag, spec.cards)
        seed_line = f"seed: {args.seed}"

    print(header)
    if seed_line:
        print(seed_line)
    reports = []
    for name in names:
        if name == "lemma3":
            report = verify_lemma3(cbn, spec.intervenable, spec.desired, levels, budget)
        elif name == "sufficiency":
            report = verify_sufficiency(cbn, spec.intervenable, spec.targets, spec.desired, budget)
        elif name == "usm":
            report = verify_usm(spec.dag, spec.intervenable, spec.targets, budget)
        else:
            report = verify_extremality(cbn, spec.intervenable, spec.targets, spec.desired, budget)
        _print_report(report)
        reports.append(report)
    if args.suite == "all":
        print(f"overall: {'PASS' if all(r.passed for r in reports) else 'FAIL'}")
    return 0 if all(r.passed for r in reports) else 2


def _cmd_usm(args, header: str) -> int:
    spec = load(args.file)
    problem = spec.problem()
    drivers = c_star(problem)
    cbn, desired = usm_adversarial_cbn(spec.dag, drivers.members, spec.targets)
    out_spec = NetworkSpec.from_cbn(cbn, spec.intervenable, spec.targets, desired)
    save(out_spec, args.out)
    print(header)
    print(f"drivers: {_fmt_set(drivers.members)}")
    print(_desired_line(out_spec))
    print(f"wrote: {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cbnctrl", description="Targeted control of discrete causal networks.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("drivers", help="identify the driver set by backward chaining")
    p.add_argument("file", help="network file")
    p.set_defaults(func=_cmd_drivers)

    p = sub.add_parser("eval", help="probability of the desired realization under the file's policies")
    p.add_argument("file", help="network file with cpds")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("solve", help="optimize an objective over the driver set")
    p.add_argument("file", help="network file")
    p.add_argument("--objective", required=True, help="min-min, max-max, min-max or max-min")
    p.add_argument("--budget", type=int, help="override the elementary-step ceiling")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("file", help="network file")
    p.add_argument("--suite", required=True, choices=SUITE_NAMES + ("all",))
    p.add_argument("--seed", type=int, help="sample a parametrization when the file has no cpds")
    p.add_argument("--levels", help="scope levels for the lemma3 bracket suite (default 1,2,inf)")
    p.add_argument("--budget", type=int, help="override the elementary-step ceiling")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("usm", help="write an adversarial parametrization for the driver set")
    p.add_argument("file", help="network file")
    p.add_argument("--out", required=True, help="path for the constructed network file")
    p.set_defaults(func=_cmd_usm)

    return parser


def main(argv=None) -> int:
    display = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(display)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    header = "# cbnctrl " + " ".join(display)
    try:
        return args.func(args, header)
    except BudgetExceededError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
