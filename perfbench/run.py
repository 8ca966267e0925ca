#!/usr/bin/env python3
"""Host-cost benchmark of the rofs simulator.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles the simulator from src/) into
.bench_build/, then repeats the workload, one single-threaded process per
repetition, for S seconds: it starts another repetition only while one as
slow as the slowest so far still ends within S seconds, and it runs at
least MIN_REPS. Every repetition uses the same seed, so every one must
print the same simulated digest; a repetition that errs, fails a check,
or prints another digest counts as failed.

--trace 0 reports the end-to-end metrics of BENCHMARK.json (medians over
the repetitions; the times are scaled to a reference host speed, see
README.md); --trace 1 runs each repetition untraced and then traced and
reports the per-layer metrics. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

Default seed: 1. Held-out seed: 7919 (a claimed gain must also hold on
it; do not tune against it).
"""

import argparse
import json
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
DRIVER = BUILD_DIR / "perfbench_driver"
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
# Median of at least this many repetitions per run, untraced.
MIN_REPS = 3
# No repetition starts once the run could pass this many seconds.
RUN_CAP_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds perfbench_driver; returns False on failure."""
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR)]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    for cmd in (configure,
                ["cmake", "--build", str(BUILD_DIR), "-j", "4",
                 "--target", "perfbench_driver"]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return DRIVER.exists()


def run_rep(workload, seed, trace):
    """One repetition in its own process: its parsed JSON, or None."""
    try:
        proc = subprocess.run(
            [str(DRIVER), "--workload", workload, "--seed", str(seed),
             "--trace", str(trace)],
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=RUN_CAP_S)
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error("unknown workload: " + args.workload)
    wanted = [m["name"] for m in spec["per_layer" if args.trace else
                                     "end_to_end"]]
    if not build():
        log("build failed")
        return 1

    runs_per_rep = 2 if args.trace else 1
    min_reps = 1 if args.trace else MIN_REPS
    start = time.monotonic()
    reps = []
    attempted = failed = 0
    digest = None
    slowest = 0.0
    while True:
        elapsed = time.monotonic() - start
        if len(reps) >= min_reps and elapsed + slowest > args.seconds:
            break
        if elapsed + slowest > RUN_CAP_S:
            break
        began = time.monotonic()
        out = run_rep(args.workload, args.seed, args.trace)
        slowest = max(slowest, time.monotonic() - began)
        attempted += runs_per_rep
        if out is None:
            log("repetition failed to run")
            failed += runs_per_rep
            break
        for reason in out["failures"]:
            log("check failed: " + reason)
        digest = digest or out["digests"][0]
        bad = sum(d != digest for d in out["digests"])
        if bad:
            log("digest differs from the first repetition: %s" %
                out["digests"])
        if not out["ok"] or bad:
            failed += max(bad, 1)
            continue
        print("rep %d digest: %s" % (len(reps) + 1, digest))
        reps.append(out["metrics"])
    if not reps:
        log("no repetition succeeded")
        return 1

    metrics = {}
    complete = True
    print("%-34s %18s  %-6s %s" % ("metric", "median", "unit", "samples"))
    for name in wanted:
        values = [r[name]["value"] for r in reps if name in r]
        if not values or not NAME_RE.match(name):
            log("missing or malformed metric: " + name)
            complete = False
            continue
        unit = reps[0][name]["unit"]
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        print("%-34s %18.6g  %-6s %d" % (name, metrics[name]["value"], unit,
                                          len(values)))
    extra = set(reps[0]) - set(wanted)
    if extra:
        log("metrics missing from BENCHMARK.json: " + ", ".join(sorted(extra)))
        complete = False
    print(json.dumps({"correct": failed == 0 and complete,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
