#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload charmm|spmv|remesh|dsmc \
        --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (CMake, into .bench_build/perfbench) on
first use, runs one workload, and relays its output. The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}, holding the end-to-end metrics of BENCHMARK.json with
--trace 0 and the per-layer ones with --trace 1. Traced runs also write
their spans to .bench_build/traces/ as JSON lines and Chrome trace JSON.
Exits nonzero, without a result line, if the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src").is_dir():
        fail(f"no runtime sources under {ROOT / 'src'}; nothing to build")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(BUILD), "-j", jobs],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def expected_metrics(traced):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if traced else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["charmm", "spmv", "remesh", "dsmc"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build()
    traces = ROOT / ".bench_build" / "traces"
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--trace-dir", str(traces)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail(f"perfbench exited with {done.returncode}")
    result = json.loads(lines[-1])
    missing = expected_metrics(args.trace == 1) ^ set(result["metrics"])
    if missing:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"metrics differ from BENCHMARK.json: {sorted(missing)}")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
