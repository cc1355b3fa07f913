#!/usr/bin/env bash
# CI driver: configure + build + test every leg of the matrix.
#
#   tools/ci.sh                # full matrix (see LEGS default below)
#   tools/ci.sh release        # one leg
#   tools/ci.sh lint audit     # just the correctness tooling
#   CTEST_ARGS="-R ActiveSet" tools/ci.sh tsan   # filter the test run
#
# Legs:
#   lint     tools/lint/gdisim_lint.py over src/ (no build), report in
#            build/lint-report.json: no determinism hazard (pointer-keyed or
#            address-ordered containers, raw RNG, wall clock, getenv); every
#            field of every snapshotable type is archived or declared
#            // ARCHIVE-TRANSIENT, and save/load bodies stay symmetric; the
#            agent-isolation model holds — no cross-agent writes from tick
#            paths, no unguarded shared state, and every sync primitive or
#            thread_local carries a // GDISIM-SHARED reason
#   tidy     clang-tidy with the repo .clang-tidy profile over src/, tools/
#            and the Ch. 4 runtime in bench/ch4/ (skipped with a notice when
#            clang-tidy is not installed)
#   smoke    determinism smoke: diff the release fingerprint of the
#            consolidated scenario under the active-set scheduler against a
#            --dense-sweep run (builds `release` if needed)
#   snapshot checkpoint/restore equivalence: a run that checkpoints mid-flight
#            and a fresh process that restores the snapshot must both produce
#            the uninterrupted run's fingerprint (release and audit binaries)
#   sanitize-snapshot  the snapshot/archive test suite (round trips,
#            corruption rollback, restore equivalence) and the in-flight
#            operation table tests under ASan+UBSan and standalone UBSan
#            builds
#   shape    paper-shape gate: perfbench's consolidated_small (the scale-0.1
#            day against the Ch. 6 bands) and validation_replicas (Ch. 5
#            experiments 1-3 against Table 5.3) must each report
#            "correct": true with no failed unit
#   repro    thesis reproduction: bench/gdisim_repro (release) must exit 0
#            (every row in its band or a marked known deviation, no marked
#            row back in band), and its checked block must equal the one in
#            EXPERIMENTS.md
#   release/audit/asan/ubsan/tsan   CMake presets: configure + build + ctest
#            (each in its own build-<preset>/ tree, so a plain `cmake -B build`
#            tree next to them is left alone)
#
# Sanitizer suites run the full tier-1 ctest set; on small hosts expect the
# tsan leg to dominate wall time (the suites of the Ch. 4 runtime in
# bench/ch4/ run their thread pools hard on purpose).
set -euo pipefail
cd "$(dirname "$0")/.."

LEGS=("$@")
if [ ${#LEGS[@]} -eq 0 ]; then
  LEGS=(lint release audit smoke shape repro snapshot sanitize-snapshot asan tsan)
fi

JOBS="${JOBS:-$(nproc)}"
CTEST_ARGS="${CTEST_ARGS:-}"
SMOKE_ARGS="${SMOKE_ARGS:---scenario consolidated --hours 1 --scale 0.05}"

run_preset() {
  local preset="$1"
  echo "=== [$preset] configure ==="
  cmake --preset "$preset"
  echo "=== [$preset] build ==="
  cmake --build --preset "$preset" -j "$JOBS"
  echo "=== [$preset] test ==="
  # shellcheck disable=SC2086
  ctest --preset "$preset" -j "$JOBS" $CTEST_ARGS
}

run_lint() {
  echo "=== [lint] gdisim lint: determinism, snapshot and isolation rules ==="
  mkdir -p build
  python3 tools/lint/gdisim_lint.py src --json build/lint-report.json || {
    echo "lint: active findings (see above); fix them, or annotate with" \
         "// ARCHIVE-TRANSIENT: <why>, // GDISIM-SHARED: <why> or" \
         "// NOLINT(gdisim-<rule>) <why>" >&2
    return 1
  }
}

run_tidy() {
  echo "=== [tidy] clang-tidy ==="
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "tidy: clang-tidy not installed; skipping (profile: .clang-tidy)"
    return 0
  fi
  cmake --preset release >/dev/null
  local sources
  sources=$(git ls-files 'src/*.cc' 'tools/*.cc' 'bench/ch4/*.cc')
  if command -v run-clang-tidy >/dev/null 2>&1; then
    # shellcheck disable=SC2086
    run-clang-tidy -p build-release -quiet -j "$JOBS" $sources
  else
    # shellcheck disable=SC2086
    clang-tidy -p build-release --quiet $sources
  fi
}

run_smoke() {
  echo "=== [smoke] determinism fingerprint: active set vs dense sweep ==="
  cmake --preset release >/dev/null
  cmake --build --preset release -j "$JOBS" --target gdisim_run >/dev/null
  local bin=build-release/tools/gdisim_run
  local fpA fpD
  # shellcheck disable=SC2086
  fpA=$("$bin" $SMOKE_ARGS --quiet --fingerprint | grep '^fingerprint:')
  # shellcheck disable=SC2086
  fpD=$("$bin" $SMOKE_ARGS --quiet --fingerprint --dense-sweep | grep '^fingerprint:')
  echo "  active: $fpA"
  echo "  dense:  $fpD"
  if [ "$fpA" != "$fpD" ]; then
    echo "smoke: FINGERPRINT MISMATCH — active-set scheduler diverges from dense sweep" >&2
    return 1
  fi
  echo "smoke: fingerprints identical across scheduler modes"
}

snapshot_check() {
  local preset="$1" bin="$2"
  local config="${SNAPSHOT_CONFIG:-configs/two_site.gdisim}"
  local workdir
  workdir=$(mktemp -d)
  # Clear the trap as it fires: RETURN traps outlive the function otherwise.
  trap 'rm -rf "${workdir:-}"; trap - RETURN' RETURN
  echo "--- [$preset] $config: uninterrupted vs checkpoint->restore ---"
  local full mid resumed periodic
  full=$("$bin" --config "$config" --hours 0.2 --quiet --fingerprint | grep '^fingerprint:')
  # Checkpoint halfway through, then finish the run from a fresh process.
  mid=$("$bin" --config "$config" --hours 0.1 --quiet --fingerprint \
        --checkpoint "$workdir/mid.snap" | grep '^fingerprint:')
  resumed=$("$bin" --config "$config" --restore "$workdir/mid.snap" --hours 0.2 \
        --quiet --fingerprint | grep '^fingerprint:')
  # Periodic checkpointing must not perturb the run it observes.
  periodic=$("$bin" --config "$config" --hours 0.2 --quiet --fingerprint \
        --checkpoint "$workdir/periodic.snap" --checkpoint-every 120 | grep '^fingerprint:')
  echo "  full:     $full"
  echo "  resumed:  $resumed"
  echo "  periodic: $periodic"
  if [ "$full" != "$resumed" ]; then
    echo "snapshot[$preset]: FINGERPRINT MISMATCH — restore diverges from uninterrupted run" >&2
    return 1
  fi
  if [ "$full" != "$periodic" ]; then
    echo "snapshot[$preset]: FINGERPRINT MISMATCH — periodic checkpointing perturbed the run" >&2
    return 1
  fi
  : "$mid"  # the half-run fingerprint differs by construction; only used for the snapshot
}

run_snapshot() {
  echo "=== [snapshot] checkpoint/restore fingerprint equivalence ==="
  local preset
  for preset in release audit; do
    cmake --preset "$preset" >/dev/null
    cmake --build --preset "$preset" -j "$JOBS" --target gdisim_run >/dev/null
  done
  snapshot_check release build-release/tools/gdisim_run
  snapshot_check audit build-audit/tools/gdisim_run
  echo "snapshot: restore and periodic-checkpoint runs match the uninterrupted fingerprint"
}

run_shape() {
  echo "=== [shape] paper-shape gate: perfbench correctness ==="
  local workload result
  for workload in consolidated_small validation_replicas; do
    result=$(python3 perfbench/run.py --workload "$workload" --seed 42 --seconds 1 \
        --trace 0 | tail -n 1) || {
      echo "shape: perfbench $workload did not run" >&2
      return 1
    }
    python3 - "$workload" "$result" <<'EOF' || return 1
import json, sys
workload, line = sys.argv[1], sys.argv[2]
try:
    result = json.loads(line)
except ValueError:
    sys.exit(f"shape: {workload}: last line is not a result: {line!r}")
if result.get("correct") is not True or result.get("failed") != 0:
    sys.exit(f"shape: {workload}: correct={result.get('correct')} failed={result.get('failed')}")
print(f"shape: {workload}: correct, {result['attempted']} units, 0 failed")
EOF
  done
}

run_repro() {
  echo "=== [repro] thesis reproduction: checked rows and EXPERIMENTS.md ==="
  cmake --preset release >/dev/null
  cmake --build --preset release -j "$JOBS" --target gdisim_repro >/dev/null
  local out
  out=$(mktemp)
  # Clear the trap as it fires: RETURN traps outlive the function otherwise.
  trap 'rm -f "${out:-}"; trap - RETURN' RETURN
  build-release/bench/gdisim_repro >"$out" || {
    echo "repro: gdisim_repro failed (rows above)" >&2
    return 1
  }
  local block='/^<!-- repro:begin -->$/,/^<!-- repro:end -->$/p'
  if ! diff <(sed -n "$block" "$out") <(sed -n "$block" EXPERIMENTS.md); then
    echo "repro: EXPERIMENTS.md's block differs from gdisim_repro's (diff above)" >&2
    return 1
  fi
  echo "repro: every row in band or a known deviation; EXPERIMENTS.md matches"
}

run_tsan() {
  run_preset tsan
  # Pin the only suites that start threads — those of the Ch. 4 runtime in
  # bench/ch4/ (engines, dispatcher, ports, coordination, stress) — under
  # -fsanitize=thread even when CTEST_ARGS filtered them out of the main
  # pass. src/ holds no thread, so scenario runs have nothing to race.
  echo "--- [tsan] Ch. 4 runtime suites (bench/ch4/) ---"
  ctest --preset tsan -j "$JOBS" --output-on-failure \
      -R '^(AllEngines|[A-Za-z]*Engine|[A-Za-z]*Stress|Dispatcher|Port|[A-Za-z]*Receiver)[./]'
}

run_sanitize_snapshot() {
  echo "=== [sanitize-snapshot] snapshot suite under ASan+UBSan and UBSan ==="
  local preset
  for preset in asan ubsan; do
    cmake --preset "$preset" >/dev/null
    cmake --build --preset "$preset" -j "$JOBS"
    echo "--- [$preset] snapshot/archive tests ---"
    ctest --preset "$preset" -j "$JOBS" \
        -R 'Snapshot|StateArchive|ArchiveCorruption|InFlightOperations'
  done
  echo "sanitize-snapshot: snapshot suite clean under both sanitizer builds"
}

for leg in "${LEGS[@]}"; do
  case "$leg" in
    lint) run_lint ;;
    tidy) run_tidy ;;
    smoke) run_smoke ;;
    snapshot) run_snapshot ;;
    shape) run_shape ;;
    repro) run_repro ;;
    sanitize-snapshot) run_sanitize_snapshot ;;
    tsan) run_tsan ;;
    *) run_preset "$leg" ;;
  esac
done

echo "ci.sh: all legs green (${LEGS[*]})"
