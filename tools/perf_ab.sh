#!/usr/bin/env bash
# Interleaved A/B of one benchmark workload: a parent revision against this
# working tree.
#
#   tools/perf_ab.sh PARENT_REV WORKLOAD [PAIRS=10] [SEED=42]
#
# Exports PARENT_REV with `git archive` into a temporary directory, then runs
#
#   python3 perfbench/run.py --workload WORKLOAD --seed SEED --trace 0
#
# PAIRS times in each tree, alternating which tree runs first. Each tree
# builds into its own .bench_build/ (CARGO_TARGET_DIR is unset), so the two
# builds never share a directory; the first run of each side also builds,
# outside the timed spans. Prints, for every end-to-end metric of
# BENCHMARK.json, the parent and change medians with q1-q3
# (statistics.quantiles, n=4, as perfbench/spread.py), how many pairs the
# change won and the ratio of the medians, then the failed units of each
# side. The exported tree is removed on exit; TMPDIR chooses where it goes.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 4 ]]; then
  echo "usage: tools/perf_ab.sh PARENT_REV WORKLOAD [PAIRS=10] [SEED=42]" >&2
  exit 2
fi
PARENT_REV=$1
WORKLOAD=$2
PAIRS=${3:-10}
SEED=${4:-42}
ROOT=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
unset CARGO_TARGET_DIR

TMP=$(mktemp -d "${TMPDIR:-/tmp}/perf_ab.XXXXXX")
trap 'rm -rf "$TMP"' EXIT
mkdir "$TMP/parent"
git -C "$ROOT" archive "$PARENT_REV" | tar -x -C "$TMP/parent"
: >"$TMP/parent.jsonl"
: >"$TMP/change.jsonl"

# One benchmark run in tree $1; its result line (or "null" when the run
# fails) is appended to $2, its build and progress output to build.log.
run_side() {
  local out
  if out=$(cd "$1" && python3 perfbench/run.py --workload "$WORKLOAD" --seed "$SEED" \
             --trace 0 2>>"$TMP/build.log"); then
    tail -n 1 <<<"$out" >>"$2"
  else
    echo null >>"$2"
  fi
}

for ((i = 0; i < PAIRS; i++)); do
  if ((i % 2 == 0)); then
    run_side "$TMP/parent" "$TMP/parent.jsonl"
    run_side "$ROOT" "$TMP/change.jsonl"
  else
    run_side "$ROOT" "$TMP/change.jsonl"
    run_side "$TMP/parent" "$TMP/parent.jsonl"
  fi
  echo "perf_ab: pair $((i + 1))/$PAIRS done" >&2
done

python3 - "$ROOT/BENCHMARK.json" "$TMP/parent.jsonl" "$TMP/change.jsonl" \
  "$PARENT_REV" "$WORKLOAD" "$SEED" <<'EOF'
import json
import statistics
import sys

spec_path, parent_path, change_path, rev, workload, seed = sys.argv[1:]
with open(spec_path, encoding="utf-8") as f:
    spec = json.load(f)


def load(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


parent, change = load(parent_path), load(change_path)
print(f"perf_ab: {workload}, seed {seed}, {len(parent)} pairs, parent {rev} vs working tree")
print(f"{'metric':<14} {'parent median [q1-q3]':>30} {'change median [q1-q3]':>30} "
      f"{'won':>7} {'ratio':>7}")


def summary(values):
    if len(values) < 2:
        return f"{values[0]:.4g}" if values else "-"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.4g} [{q1:.4g}-{q3:.4g}]"


for metric in spec["end_to_end"]:
    name, lower = metric["name"], metric["better"] == "lower"
    pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
             for p, c in zip(parent, change) if p and c]
    pv = [p for p, _ in pairs]
    cv = [c for _, c in pairs]
    won = sum(1 for p, c in pairs if (c < p if lower else c > p))
    ratio = (statistics.median(cv) / statistics.median(pv)
             if pairs and statistics.median(pv) else float("nan"))
    print(f"{name:<14} {summary(pv):>30} {summary(cv):>30} {won:>3}/{len(pairs):<3} "
          f"{ratio:>7.3f}")


def failures(results):
    broken = sum(1 for r in results if r is None)
    units = sum(r["failed"] for r in results if r)
    wrong = sum(1 for r in results if r and not r["correct"])
    return f"{units} failed units, {wrong} runs not correct, {broken} runs failed outright"


print(f"parent: {failures(parent)}")
print(f"change: {failures(change)}")
EOF
