"""Benchmark entry point: one workload, one run, one JSON result line.

    python3 bench/run.py --workload solve-ladder --seed 1 --seconds 15 --trace 0

Run from the repository root.  The package is used as it is in ``src``
(``PYTHONPATH=src``); numpy/BLAS is pinned to one thread.  With
``--trace 0`` the set-up is timed in several fresh processes and the
workload runs, untraced, in one more; the last stdout line carries every
end-to-end metric named in ``BENCHMARK.json``.  With ``--trace 1`` the
workload runs once under ``tracing`` and the line carries the per-layer
metrics instead.  Results and traces are written under ``bench/out``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("solve-ladder", "query-enum", "verify-corpus", "cli-files")
#: fresh processes that only set up, besides the one that also runs
SETUP_PROBES = 4
#: the whole run, all worker processes together, ends within this
TIMEOUT_S = 170


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def worker(args, workdir: str, deadline: float, *extra: str) -> dict:
    env = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir, *extra]
    t0 = time.perf_counter()
    # its own process group, so that a timeout also ends the CLI processes
    # a cli-files worker has started
    proc = subprocess.Popen([*cmd, "--t0", repr(t0)], env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("src", "cbnctrl", "__init__.py")):
        return fail("run from the repository root: src/cbnctrl is missing")
    try:
        with open("BENCHMARK.json") as fh:
            declared = json.load(fh)
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    workdir = os.path.join(HERE, "out", args.workload)
    os.makedirs(workdir, exist_ok=True)
    deadline = time.monotonic() + TIMEOUT_S

    try:
        if args.trace:
            result = worker(args, workdir, deadline)
            found = result.pop("layers")
            names = [m["name"] for m in declared["per_layer"]]
        else:
            probes = [worker(args, workdir, deadline, "--setup-only")
                      for _ in range(SETUP_PROBES)]
            result = worker(args, workdir, deadline)
            result["setup_s"] = statistics.median(
                [p["setup_s"] for p in probes] + [result["setup_s"]])
            result["raw"]["setup_s"] = statistics.median(
                [p["raw_setup_s"] for p in probes] + [result["raw"]["setup_s"]])
            found = {m["name"]: {"value": result[m["name"]], "unit": m["unit"]}
                     for m in declared["end_to_end"] if m["name"] in result}
            names = [m["name"] for m in declared["end_to_end"]]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        return fail(f"{args.workload}: {exc}")
    missing = [n for n in names if n not in found]
    if missing:
        return fail(f"metrics not measured: {missing}")

    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: found[n] for n in names},
    }
    detail = dict(line, **{k: result[k] for k in ("passes", "tail_percentile", "raw")
                           if k in result})
    path = os.path.join(HERE, "out", f"result-{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
