"""One workload in one fresh process: set up, warm up, time, check.

Started by ``run.py``; not meant to be run by hand.  ``--t0`` is the
parent's ``time.perf_counter()`` just before it started this process (on
Linux the clock is system-wide), so ``setup_s`` covers interpreter start,
``import cbnctrl``, generating the seeded inputs and parsing them.  Time
figures are put at nominal pace with ``pace.Pace``; the figures as timed
are kept under ``raw``.  Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time

from pace import PROCESS_NOMINAL_S, Pace, process_kernel

#: Seconds of ``--seconds`` that buy one pass: a run makes
#: round(seconds / this) whole passes and never stops part-way through one.
#: Set near each workload's pass time on the machine it was written on, a
#: little lower for cli-files, whose tail needs more samples.
PASS_SECONDS = {
    "solve-ladder": 2.1,
    "query-enum": 3.0,
    "verify-corpus": 0.55,
    "cli-files": 2.5,
}
#: cli-files samples its process kernel about this often (about every other
#: command), which keeps the run near 35 s
PROCESS_EVERY_S = 0.3
IMPORT_PROBES = 5
#: kernel samples taken before and after set-up, to put ``setup_s`` at
#: nominal pace
SETUP_PACE_SAMPLES = 12


def tail_percentile(samples: int) -> float:
    """Highest percentile (to 0.1) that leaves at least ten samples beyond."""
    return math.floor(1000.0 * (1.0 - 10.0 / samples)) / 10.0


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def import_ms() -> float:
    """Median time a fresh interpreter takes to run ``import cbnctrl``."""
    code = ("import time; t = time.perf_counter(); import cbnctrl; "
            "print(time.perf_counter() - t)")
    times = [float(subprocess.run([sys.executable, "-c", code], check=True,
                                  stdout=subprocess.PIPE, text=True).stdout)
             for _ in range(IMPORT_PROBES)]
    return statistics.median(times) * 1000.0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    setup_pace = Pace()
    pacing = sum(setup_pace.measure() for _ in range(SETUP_PACE_SAMPLES))
    # imported here, not at the top, because their cost belongs to set-up
    import tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    build = workloads.BUILDERS[args.workload]
    if args.workload == "cli-files":
        workload = build(args.seed, args.workdir, bool(args.trace))
    else:
        workload = build(args.seed)
    raw_setup_s = time.perf_counter() - args.t0 - pacing
    for _ in range(SETUP_PACE_SAMPLES):
        setup_pace.measure()
    setup_s = raw_setup_s * setup_pace.factor()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0

    ops = workload.ops
    passes = max(1, round(args.seconds / PASS_SECONDS[args.workload]))
    failed: list[str] = []

    def run_pass(order, latencies: list | None, pace: Pace | None) -> tuple[list, float]:
        """Outputs of one pass, indexed like ``ops``, and the seconds spent
        measuring the pace; ``latencies`` gets (start, seconds) pairs."""
        outputs: list = [None] * len(ops)
        pacing = 0.0
        for i in order:
            start = time.perf_counter()
            try:
                out = ops[i][1]()
            except Exception as exc:  # refused or broken: counted, never fatal
                out = ("raised", type(exc).__name__, str(exc))
            if latencies is not None:
                latencies.append((start, time.perf_counter() - start))
            outputs[i] = out
            if pace is not None:
                pacing += pace.tick()
        return outputs, pacing

    def raised(out) -> bool:
        return isinstance(out, tuple) and len(out) == 3 and out[0] == "raised"

    warm, _ = run_pass(range(len(ops)), None, None)
    gc.collect()
    # Each timed pass runs the operations in its own fixed shuffled order, so
    # that same-cost operations are spread over the pass instead of sharing
    # one moment of the host's speed.  A pass's wall time is put at nominal
    # pace by all of the pass's samples, each latency by the samples taken
    # closest to it.
    raw_latencies: list[float] = []
    latencies: list[float] = []
    raw_wall = wall = 0.0
    for number in range(passes):
        order = list(range(len(ops)))
        random.Random(f"pass/{number}").shuffle(order)
        pace = Pace(process_kernel, PROCESS_NOMINAL_S, PROCESS_EVERY_S) \
            if args.workload == "cli-files" and not args.trace else Pace()
        pass_latencies: list[float] = []
        start = time.perf_counter()
        outputs, pacing = run_pass(order, pass_latencies, pace)
        pass_wall = time.perf_counter() - start - pacing
        raw_wall += pass_wall
        wall += pass_wall * pace.factor()
        raw_latencies += [t for _, t in pass_latencies]
        latencies += [t * pace.factor_at(at + t / 2) for at, t in pass_latencies]
        # each pass is compared, then dropped, so that kept outputs do not
        # inflate the peak memory measured for the program
        for (name, _), out, first in zip(ops, outputs, warm):
            if raised(out):
                failed.append(f"{name}: {out[1]}: {out[2]}")
            elif out != first:
                failed.append(f"{name}: output differs from the warm-up pass")
        del outputs
    if args.workload == "cli-files" and not args.trace:
        peak_rss_mb = workload.child_peak_kb / 1024.0
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # checks against the reference, outside the timed section
    errors: list[str] = []
    for check in workload.checks:
        try:
            errors += check(warm)
        except Exception as exc:  # a check on an operation that raised cannot run
            if not any(raised(o) for o in warm):
                errors.append(f"check raised {type(exc).__name__}: {exc}")
    for line in (failed + errors)[:20]:
        print(f"check: {line}", file=sys.stderr)

    samples = len(latencies)
    pct = tail_percentile(samples) if samples >= 40 else 50.0

    def figures(times: list[float], seconds: float) -> dict:
        times = sorted(times)
        return {"ops_per_s": samples / seconds,
                "op_p50_ms": nearest_rank(times, 50.0) * 1000.0,
                "op_tail_ms": nearest_rank(times, pct) * 1000.0}

    result = {
        "correct": not errors,
        "attempted": samples,
        "failed": len(failed),
        "passes": passes,
        "tail_percentile": pct,
        **figures(latencies, wall),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
        "raw": dict(figures(raw_latencies, raw_wall), setup_s=raw_setup_s),
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["layers"]["cli.import_ms"] = {"value": round(import_ms(), 4), "unit": "ms"}
        path = os.path.join(args.workdir, f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "ops_per_s": result["ops_per_s"], "spans": tracer.spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
