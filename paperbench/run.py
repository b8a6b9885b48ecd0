#!/usr/bin/env python3
"""Paper-artifact benchmark: builds the simulator from source, runs one workload.

    python3 paperbench/run.py --workload fig5-estimate --seed 1 --seconds 15 --trace 0

Run from the repository root.  The first run configures and builds
paperbench/ (which compiles ../src) into .bench_build/paperbench; later runs
only re-check the build.  Every output line but the last comes from the
benchmark program; the last is one JSON object whose metrics are
BENCHMARK.json's end_to_end list (--trace 0) or per_layer list (--trace 1).
See paperbench/README.md.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "paperbench"
BINARY = BUILD_DIR / "paperbench"
# setup_s is the median over the workload process and this many extra
# processes that only set up.  Set-up takes tens of microseconds and one
# process start varies by 2x, so it takes many to settle the median.
SETUP_LAUNCHES = 15
# The workload process must end well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170


def fail(message):
    sys.stderr.write(f"paperbench: {message}\n")
    sys.exit(1)


def run_quiet(cmd):
    """Runs a build step, showing its output only when it fails."""
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail(f"{' '.join(cmd[:2])} failed with exit code {done.returncode}")


def build():
    if not (ROOT / "src" / "harness" / "runner.hpp").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", str(BUILD_DIR), "-j", jobs])


def run_binary(args, timeout):
    done = subprocess.run([str(BINARY)] + args, stdout=subprocess.PIPE,
                          text=True, timeout=timeout, check=False)
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        fail(f"benchmark exited with code {done.returncode}")
    return done.stdout.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")
    if args.seconds <= 0:
        fail("--seconds must be positive")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    build()

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    for _ in range(SETUP_LAUNCHES):
        lines = run_binary(common + ["--setup-only"], timeout=30)
        setups.append(float(lines[-1].split()[1]))

    cmd = common + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    ref = reference.get(args.workload)
    if ref is not None and ref["seed"] == args.seed:
        cmd += ["--expect-digest", ref["digest"]]
    if args.trace:
        trace_path = BUILD_DIR / f"trace-{args.workload}-{args.seed}.json"
        cmd += ["--trace-out", str(trace_path)]
    try:
        lines = run_binary(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    metrics = result["metrics"]
    setups.append(metrics["setup_s"]["value"])
    metrics["setup_s"]["value"] = statistics.median(setups)
    print(f"setup_s median over {len(setups)} processes: "
          + " ".join(f"{s:.6f}" for s in setups))
    missing = [n for n in wanted if metrics.get(n, {}).get("value") is None]
    if missing:
        fail(f"benchmark did not report {', '.join(missing)}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: metrics[n] for n in wanted},
    }))


if __name__ == "__main__":
    main()
