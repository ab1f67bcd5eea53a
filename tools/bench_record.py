"""Record benchmark runs as one ``BENCH_<n>.json`` file.

Runs ``bench/run.py --workload W --seed S --seconds T --trace 0``, as it
is, from the root of a checkout, once per run of each workload, and writes
one row per workload: the median of each end-to-end metric over the runs,
each run's values in run order, whether every run was correct, the failed
and attempted operations summed over the runs, and the number of runs.
The file also records the checkout's commit, the seed, the run length,
the Python and numpy versions, the CPUs this process may use and the
``PYTHONDONTWRITEBYTECODE`` setting, which decides whether the CLI
processes of cli-files compile ``src`` afresh.

With ``--base DIR --base-out FILE`` each run is a pair: the checkout at
``DIR`` and this one, taking turns at going first, and the base's rows go
to ``FILE``.  Exits 1 unless every run is correct with no failed
operation, and 2, writing nothing, if a run gives no result.

    python3 tools/bench_record.py BENCH_31.json --seed 7 --seconds 15 \\
        --workload verify-corpus:10 --workload solve-ladder:5 \\
        --base ../parent --base-out BENCH_30.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def end_to_end(root: str) -> tuple[list[str], list[str]]:
    """The workload names and the end-to-end metric names that the
    checkout's ``BENCHMARK.json`` declares."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    return [w["name"] for w in declared["workloads"]], [m["name"] for m in declared["end_to_end"]]


def run_once(root: str, workload: str, seed: int, seconds: int) -> dict:
    """The last stdout line of one untraced ``bench/run.py`` run in ``root``."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} in {root}: bench/run.py exited {proc.returncode} without a result")
    return json.loads(lines[-1])


def summarize(workload: str, results: list[dict], metrics: list[str]) -> dict:
    """One row from the result lines of a workload's runs."""
    samples = {m: [r["metrics"][m]["value"] for r in results] for m in metrics}
    return {
        "workload": workload,
        "runs": len(results),
        "correct": all(r["correct"] is True for r in results),
        "failed": sum(r["failed"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "metrics": {m: statistics.median(values) for m, values in samples.items()},
        "samples": samples,
    }


def git(root: str, *args: str) -> str | None:
    """The output of ``git -C root ARGS``, or None where git cannot tell."""
    try:
        proc = subprocess.run(["git", "-C", root, *args], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def record(root: str, rows: list[dict], seed: int, seconds: int) -> dict:
    """The whole file: the setting the runs had, then the rows."""
    import numpy

    status = git(root, "status", "--porcelain", "--", "src", "bench", "BENCHMARK.json")
    return {
        "commit": git(root, "rev-parse", "HEAD"),
        # whether src, bench or BENCHMARK.json differ from the commit
        "dirty": None if status is None else bool(status),
        "seed": seed,
        "seconds": seconds,
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "rows": rows,
    }


def parse_workload(text: str, known: list[str]) -> tuple[str, int]:
    name, _, runs = text.partition(":")
    if name not in known:
        raise argparse.ArgumentTypeError(f"unknown workload {name!r}")
    if runs and (not runs.isdecimal() or int(runs) < 1):
        raise argparse.ArgumentTypeError(f"runs must be a positive integer, got {runs!r}")
    return name, int(runs or 1)


def main(argv=None) -> int:
    known, metrics = end_to_end(ROOT)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("out", help="file to write, say BENCH_31.json")
    ap.add_argument("--workload", action="append", type=lambda t: parse_workload(t, known),
                    help="W or W:RUNS (default: every workload, one run each)")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--base", help="a second checkout, run in pairs with this one")
    ap.add_argument("--base-out", help="file for the base checkout's rows")
    args = ap.parse_args(argv)
    if (args.base is None) != (args.base_out is None):
        ap.error("--base and --base-out go together")
    roots = [ROOT] if args.base is None else [os.path.abspath(args.base), ROOT]
    plan = args.workload or [(name, 1) for name in known]

    results: dict[str, dict[str, list]] = {root: {} for root in roots}
    try:
        for workload, runs in plan:
            for i in range(runs):
                # in a pair, the checkouts take turns at going first
                for root in roots if i % 2 == 0 else roots[::-1]:
                    line = run_once(root, workload, args.seed, args.seconds)
                    results[root].setdefault(workload, []).append(line)
                    print(f"{workload} run {i + 1}/{runs} {root}: {json.dumps(line)}", file=sys.stderr)
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    passed = True
    outs = [args.out] if args.base is None else [args.base_out, args.out]
    for root, out in zip(roots, outs):
        rows = [summarize(w, lines, metrics) for w, lines in results[root].items()]
        passed = passed and all(row["correct"] and row["failed"] == 0 for row in rows)
        with open(out, "w") as fh:
            json.dump(record(root, rows, args.seed, args.seconds), fh, indent=1)
            fh.write("\n")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
