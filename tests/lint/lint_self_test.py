#!/usr/bin/env python3
"""Self-test for tools/lint/gdisim_lint.py, run under ctest.

Pins the lint pass so it cannot silently rot:
  1. every fixture under tools/lint/fixtures/ yields exactly its expected
     (line, rule, suppressed) set under all rules at once — a weakened rule
     shows up as a missing triple, a false positive as an extra one — and
     the table names every fixture on disk;
  2. NOLINT / NOLINTNEXTLINE suppressions are honoured, suppressed findings
     still appear in the JSON report, and the report's counts and exit
     status follow the active findings;
  3. the JSON schema (top-level, counts and per-finding keys) is stable;
  4. the real src/ tree scans clean and the scan saw a realistic file count.

ctest runs it once per fixture group, so each rule family keeps its own
test: with no argument it checks the top-level (determinism and snapshot)
fixtures, that the table names every fixture on disk, and the src/ scan;
with `archive` or `isolation` it checks the fixtures in that directory.
"""

import glob
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.environ.get("GDISIM_SOURCE_DIR") or os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", ".."))
LINT = os.path.join(ROOT, "tools", "lint", "gdisim_lint.py")
FIXTURES = os.path.join(ROOT, "tools", "lint", "fixtures")
GROUPS = ("", "archive", "isolation")

MISSING = "gdisim-archive-missing-field"

EXPECTED = {
    "bad.cc": {
        (15, "gdisim-ptr-key-decl", False),
        (16, "gdisim-ptr-key-decl", False),
        (17, "gdisim-ptr-key-iter", False),
        (21, "gdisim-ptr-key-iter", False),
        (27, "gdisim-addr-ordered", False),
        (28, "gdisim-addr-ordered", False),
        (34, "gdisim-raw-rand", False),
        (35, "gdisim-raw-rand", False),
        (36, "gdisim-raw-rand", False),
        (40, "gdisim-wall-clock", False),
        (45, "gdisim-getenv", False),
        # archive_state and archive_wire_job are declared without a body,
        # so no field of SnapshotQueue, its nested Entry or WireJob is
        # archived.
        (52, "gdisim-snapshot-ptr", False),
        (52, MISSING, False),
        (53, MISSING, False),
        (57, "gdisim-snapshot-ptr", False),
        (57, MISSING, False),
        (58, MISSING, False),
        (64, "gdisim-snapshot-ptr", False),
        (64, MISSING, False),
        (65, MISSING, False),
        # Reasonless gdisim suppressions: the NOLINT silences the underlying
        # rule (suppressed=True) but is itself an active nolint-reason finding.
        (72, "gdisim-getenv", True),
        (72, "gdisim-nolint-reason", False),
        (76, "gdisim-nolint-reason", False),
        (77, "gdisim-wall-clock", True),
        # A pointer inside template arguments and a mutable pointer are
        # flagged; the owning unique_ptr container is only unarchived.
        (83, "gdisim-snapshot-ptr", False),
        (83, MISSING, False),
        (84, "gdisim-snapshot-ptr", False),
        (84, MISSING, False),
        (85, MISSING, False),
    },
    "suppressed.cc": {
        (10, "gdisim-ptr-key-decl", True),
        (12, "gdisim-ptr-key-iter", True),
        (17, "gdisim-wall-clock", True),
        (19, "gdisim-getenv", True),
        (26, "gdisim-snapshot-ptr", True),
        (26, MISSING, True),
        (31, "gdisim-snapshot-ptr", True),
        (31, MISSING, True),
        (32, "gdisim-snapshot-ptr", True),
        (32, MISSING, True),
    },
    "clean.cc": set(),
    "archive/missing_field.cc": {
        (28, MISSING, False),   # Meter::dropped_
        (30, MISSING, True),    # suppressed via NOLINT
    },
    "archive/asymmetric.cc": {
        (18, "gdisim-archive-asymmetric", False),  # Pair: reordered
        (37, "gdisim-archive-asymmetric", False),  # Skew: save-only field
    },
    "archive/transient_no_reason.cc": {
        (22, "gdisim-archive-transient-no-reason", False),  # Cache::hit_rate_
    },
    "archive/nested_record.cc": {
        (30, MISSING, False),   # Row::fee, nested in Ledger
    },
    "archive/delegated.cc": set(),
    "isolation/cross_agent_write.cc": {
        (26, "gdisim-cross-agent-write", False),  # target_->hp_ -= 5
        (31, "gdisim-cross-agent-write", False),  # p.heat_ += 1 (reference)
        (36, "gdisim-cross-agent-write", False),  # via call closure (splash)
    },
    "isolation/unguarded_shared.cc": {
        (6, "gdisim-unguarded-shared", False),    # int g_total
        (9, "gdisim-raw-sync", False),            # unannotated thread_local
        (11, "gdisim-isolation-annotation-no-reason", False),  # bare GDISIM-SHARED
        (14, "gdisim-unguarded-shared", False),   # static int hits
    },
    "isolation/raw_sync.cc": {
        (17, "gdisim-raw-sync", False),           # std::atomic<long> hits_
        (18, "gdisim-raw-sync", False),           # std::mutex mu_
    },
    "isolation/thread_local_buffer.cc": {
        (12, "gdisim-raw-sync", False),           # unannotated thread_local
    },
    "isolation/clean.cc": set(),
    "isolation/suppressed.cc": {
        (8, "gdisim-unguarded-shared", True),     # NOLINT with reason
        (13, "gdisim-raw-sync", True),            # NOLINTNEXTLINE with reason
        (14, "gdisim-raw-sync", True),            # reasonless NOLINT still suppresses...
        (14, "gdisim-nolint-reason", False),      # ...but is itself flagged
    },
}

TOP_KEYS = {"version", "scanned_files", "counts", "findings"}
FINDING_KEYS = {"file", "line", "rule", "message", "snippet", "suppressed"}

failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print("FAIL:", what)
    else:
        print("ok:", what)


def run_lint(target):
    with tempfile.TemporaryDirectory() as tmp:
        dest = os.path.join(tmp, "report.json")
        proc = subprocess.run(
            [sys.executable, LINT, target, "--root", ROOT, "--json", dest],
            capture_output=True, text=True)
        with open(dest, encoding="utf-8") as f:
            return proc.returncode, json.load(f)


if len(sys.argv) > 2 or (sys.argv[1:] and sys.argv[1] not in GROUPS[1:]):
    sys.exit("usage: lint_self_test.py [%s]" % "|".join(GROUPS[1:]))
group = sys.argv[1] if len(sys.argv) > 1 else ""

if not group:
    on_disk = sorted(os.path.relpath(p, FIXTURES) for p in
                     glob.glob(os.path.join(FIXTURES, "**", "*.cc"), recursive=True))
    check(on_disk == sorted(EXPECTED),
          "every fixture has an expectation (unlisted: %s, missing: %s)"
          % (sorted(set(on_disk) - set(EXPECTED)), sorted(set(EXPECTED) - set(on_disk))))
    check(all(os.path.dirname(name) in GROUPS for name in EXPECTED),
          "every fixture belongs to a group run under ctest")

# 1-3. Each fixture under every rule: exact findings, counts, exit, schema.
for name, expected in sorted(EXPECTED.items()):
    if os.path.dirname(name) != group:
        continue
    rc, report = run_lint(os.path.join(FIXTURES, name))
    got = {(f["line"], f["rule"], f["suppressed"]) for f in report["findings"]}
    check(got == expected and len(report["findings"]) == len(expected),
          "%s: findings match (missing: %s, extra: %s)"
          % (name, sorted(expected - got), sorted(got - expected)))
    active = sum(1 for _line, _rule, suppressed in expected if not suppressed)
    counts = {"active": active, "suppressed": len(expected) - active}
    check(report["counts"] == counts,
          "%s: counts %s == %s" % (name, report["counts"], counts))
    check(rc == (1 if active else 0), "%s: exit %d with %d active" % (name, rc, active))
    check(set(report) == TOP_KEYS, "%s: JSON top-level keys stable" % name)
    check(all(set(f) == FINDING_KEYS for f in report["findings"]),
          "%s: JSON per-finding keys stable" % name)

# 4. The real tree scans clean.
if not group:
    rc, report = run_lint("src")
    check(rc == 0, "src/ scan exits 0 (no active findings)")
    check(report["counts"]["active"] == 0, "src/ has zero active findings")
    check(report["scanned_files"] > 50, "src/ scan saw a realistic file count")

if failures:
    print("\n%d check(s) failed" % len(failures))
    sys.exit(1)
print("\nall checks passed")
