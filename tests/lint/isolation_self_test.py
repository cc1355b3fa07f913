#!/usr/bin/env python3
"""Self-test for tools/lint/gdisim_isolation.py, run under ctest.

Pins four behaviours so the analyzer cannot silently rot:
  1. each seeded fixture violation (cross-agent write from a tick path,
     unguarded static/global, raw sync primitive or thread_local,
     reasonless annotation) is flagged at its exact line,
  2. the sanctioned patterns (Inbox::post, own-state writes, const statics,
     annotated shared state) produce zero findings — no false positives,
  3. NOLINT suppression and the JSON schema match the gdisim_lint report
     contract,
  4. the real src/ tree scans clean: the agent-isolation model holds, every
     sanctioned shared-state site carries a reason.

Runs the regex backend unconditionally and repeats the fixture checks under
the libclang backend when python clang bindings are importable.
"""

import json
import os
import subprocess
import sys
import tempfile

ROOT = os.environ.get("GDISIM_SOURCE_DIR") or os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", ".."))
TOOL = os.path.join(ROOT, "tools", "lint", "gdisim_isolation.py")
FIXTURES = os.path.join(ROOT, "tools", "lint", "fixtures", "isolation")

EXPECTED = {
    "cross_agent_write.cc": {
        (26, "gdisim-cross-agent-write", False),  # target_->hp_ -= 5
        (31, "gdisim-cross-agent-write", False),  # p.heat_ += 1 (reference)
        (36, "gdisim-cross-agent-write", False),  # via call closure (splash)
    },
    "unguarded_shared.cc": {
        (6, "gdisim-unguarded-shared", False),    # int g_total
        (9, "gdisim-raw-sync", False),            # unannotated thread_local
        (11, "gdisim-isolation-annotation-no-reason", False),  # bare GDISIM-SHARED
        (14, "gdisim-unguarded-shared", False),   # static int hits
    },
    "raw_sync.cc": {
        (17, "gdisim-raw-sync", False),           # std::atomic<long> hits_
        (18, "gdisim-raw-sync", False),           # std::mutex mu_
    },
    "thread_local_buffer.cc": {
        (12, "gdisim-raw-sync", False),           # unannotated thread_local
    },
    "clean.cc": set(),
    "suppressed.cc": {
        (8, "gdisim-unguarded-shared", True),     # NOLINT with reason
        (13, "gdisim-raw-sync", True),            # NOLINTNEXTLINE with reason
        (14, "gdisim-raw-sync", True),            # reasonless NOLINT still suppresses...
        (14, "gdisim-nolint-reason", False),      # ...but is itself flagged
    },
}

TOP_KEYS = {"version", "backend", "scanned_files", "counts", "findings"}
FINDING_KEYS = {"file", "line", "rule", "message", "snippet", "suppressed"}

failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print("FAIL:", what)
    else:
        print("ok:", what)


def run_tool(*args, backend="regex"):
    with tempfile.NamedTemporaryFile(mode="r", suffix=".json") as tmp:
        proc = subprocess.run(
            [sys.executable, TOOL, *args, "--root", ROOT,
             "--backend", backend, "--json", tmp.name],
            capture_output=True, text=True)
        report = json.load(open(tmp.name))
    return proc.returncode, report


def have_libclang():
    try:
        from clang import cindex  # noqa: F401
        cindex.Index.create()
        return True
    except Exception:
        return False


def fixture_pass(backend):
    for name, expected in sorted(EXPECTED.items()):
        rc, report = run_tool(os.path.join(FIXTURES, name), backend=backend)
        got = {(f["line"], f["rule"], f["suppressed"])
               for f in report["findings"]}
        check(got == expected,
              f"[{backend}] {name}: findings {sorted(got)} == {sorted(expected)}")
        active = [f for f in report["findings"] if not f["suppressed"]]
        check(rc == (1 if active else 0),
              f"[{backend}] {name}: exit code {rc} matches active={len(active)}")
        check(report["backend"] == backend,
              f"[{backend}] {name}: report backend is {report['backend']}")


# 1+2+3. Fixture violations, sanctioned patterns, suppression — regex always.
fixture_pass("regex")

# Schema contract: same shape as the gdisim_lint report.
rc, report = run_tool(os.path.join(FIXTURES, "suppressed.cc"))
check(set(report.keys()) == TOP_KEYS, "report top-level keys")
check(set(report["counts"].keys()) == {"active", "suppressed"}, "counts keys")
check(report["counts"] == {"active": 1, "suppressed": 3},
      "suppressed.cc counts")
check(all(set(f.keys()) == FINDING_KEYS for f in report["findings"]),
      "per-finding keys")

# Same checks under libclang when the bindings exist (they are optional; the
# regex backend is the floor every environment must meet).
if have_libclang():
    fixture_pass("libclang")
else:
    print("note: python clang bindings unavailable; libclang pass skipped")

# 4. The real tree scans clean: the isolation model is enforced, not assumed.
rc, report = run_tool("src")
check(rc == 0 and report["counts"]["active"] == 0,
      f"src/ scans clean (active={report['counts']['active']})")
check(report["scanned_files"] > 50, "src/ scan covered the tree")

if failures:
    print(f"\n{len(failures)} check(s) failed")
    sys.exit(1)
print("\nall isolation self-test checks passed")
