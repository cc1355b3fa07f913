#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workloads consolidated_small --runs 5
    python3 perfbench/spread.py --runs 10 --traced-seed 42 --out perfbench/baseline/x.json

For every end-to-end metric it prints the median of the runs and the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median, next to the metric's bound from BENCHMARK.json. A spread above
a third of the bound is flagged: the benchmark is not steady enough to judge
a change by that bound. With --traced-seed it adds one traced run per
workload, and --out writes everything as one JSON document (the format of
perfbench/baseline/).
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"spread: {workload} seed {seed} failed ({done.returncode})")
    return json.loads(lines[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def host():
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": model, "cores": os.cpu_count(), "system": platform.system()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced-seed", type=int)
    parser.add_argument("--out")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"host": host(), "run_seconds": spec["run_seconds"], "workloads": {}}
    steady = True
    for workload in args.workloads:
        seeds = list(range(1, args.runs + 1))
        results = []
        for seed in seeds:
            t0 = time.monotonic()
            results.append(run_once(workload, seed, 0))
            print(f"{workload} seed {seed}: {time.monotonic() - t0:.1f} s", file=sys.stderr)
        entry = {"seeds": seeds,
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "end_to_end": {}}
        print(f"\n{workload}: {args.runs} runs, attempted {entry['attempted']}, "
              f"failed {entry['failed']}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            s = summarize(values)
            s["values"] = values
            s["bound"] = bound
            entry["end_to_end"][name] = s
            flag = ""
            if s["spread"] > bound / 3:
                flag = "  <-- above bound/3"
                steady = False
            print(f"  {name:14s} median {s['median']:.6g}  spread {100 * s['spread']:.2f}% "
                  f"(bound {100 * bound:.0f}%){flag}")
        if args.traced_seed is not None:
            traced = run_once(workload, args.traced_seed, 1)
            entry["traced"] = {"seed": args.traced_seed, "correct": traced["correct"],
                               "metrics": {k: v["value"] for k, v in traced["metrics"].items()}}
        report["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
