#!/usr/bin/env python3
"""GDISim benchmark entry point.

    python3 perfbench/run.py --workload consolidated_day --seed 42 --seconds 20 --trace 0

Run from the repository root. Builds perfbench/ (the simulator libraries
from src/ plus the gdibench program) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset, runs one workload, checks
that the result reports exactly the metrics BENCHMARK.json declares for the
chosen mode, and prints that result as the last line of stdout. A traced run
(--trace 1) also writes its spans next to the build as
spans-<workload>-<seed>.json.

Seeds: 42 is the default seed; 1009 is the held-out seed on which a
performance claim must also hold (see perfbench/README.md).
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 42
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures once, then rebuilds incrementally; returns the gdibench path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found; run from the root of a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"] + generator)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "--target", "gdibench", "-j", jobs])
    for cmd in steps:
        try:
            # Build chatter goes to stderr: stdout ends with the result line.
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            fail(f"build step timed out: {' '.join(cmd)}")
        if done.returncode != 0:
            fail(f"build step failed ({done.returncode}): {' '.join(cmd)}")
    return os.path.join(out, "gdibench")


def check_result(line, spec, trace):
    """Validates gdibench's result line against BENCHMARK.json."""
    try:
        result = json.loads(line)
    except ValueError:
        fail(f"last line is not JSON: {line!r}")
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result) if isinstance(result, dict) else result!r}")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail(f"{key} is not a whole number")
    if result["attempted"] < 1:
        fail("no run attempted")
    declared = spec["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    if set(got) != set(expected):
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    for name, unit in expected.items():
        value = got[name].get("value")
        if got[name].get("unit") != unit or not isinstance(value, (int, float)):
            fail(f"metric {name}: expected a number in {unit}, got {got[name]!r}")
    if not trace:
        for name, entry in got.items():
            if not entry["value"] > 0:
                fail(f"end-to-end metric {name} is not positive: {entry['value']}")


def main():
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be within 1..60")

    gdibench = build()
    cmd = [gdibench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(build_dir(), f"spans-{args.workload}-{args.seed}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        fail(f"gdibench exited with {done.returncode}")
    for line in lines[:-1]:
        print(line)
    check_result(lines[-1], spec, args.trace == 1)
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
