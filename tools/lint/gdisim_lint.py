#!/usr/bin/env python3
"""gdisim lint: one static pass over the C++ tree.

Each file is lexed once into the source model (``gdisim_lint_model.py``);
every rule family reads that model. The snapshot rules live in
``gdisim_lint_snapshot.py``, the isolation rules in
``gdisim_lint_isolation.py``. This file holds the determinism rules — the
constructs that break run-to-run determinism — and the NOLINT audit:

  gdisim-ptr-key-iter     range-for / iterator loop over a pointer-keyed
                          unordered container (iteration order depends on
                          allocator addresses)
  gdisim-ptr-key-decl     declaration of a pointer-keyed unordered container
                          (a loop over it is one refactor away)
  gdisim-addr-ordered     ordered container / comparator keyed on pointers
                          (std::set<T*>, std::map<T*, ...>, std::less<T*>)
  gdisim-raw-rand         std::rand / srand / std::random_device / std::mt19937
                          outside the seeding shim (src/core/rng.h|cc)
  gdisim-wall-clock       wall-clock reads in sim code (system_clock,
                          steady_clock, high_resolution_clock, time(),
                          gettimeofday, clock_gettime, localtime, gmtime)
  gdisim-getenv           getenv in sim code (behaviour varies by environment)
  gdisim-nolint-reason    a NOLINT that covers gdisim rules but carries no
                          reason text; suppressions must say why they are
                          sound so they can be audited

Suppression: append ``// NOLINT(gdisim-<rule>) <reason>`` to the offending
line, or put ``// NOLINTNEXTLINE(gdisim-<rule>) <reason>`` on the line above.
A bare ``NOLINT`` / ``NOLINTNEXTLINE`` (no rule list) suppresses every rule,
as does ``NOLINT(gdisim-*)``. The reason text is mandatory: a gdisim-scoped
marker whose comment says nothing beyond the marker itself is flagged by
gdisim-nolint-reason, and that finding is deliberately not suppressible —
the only fix is to write the reason.

Usage:
  gdisim_lint.py [paths...] [--json FILE] [--list-rules] [--include-suppressed]
                 [--root DIR]

The JSON report has the top-level keys ``version/scanned_files/counts/
findings``; each finding has ``file/line/rule/message/snippet/suppressed``.

Exit status: 0 when no active (unsuppressed) findings, 1 otherwise,
2 on usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import gdisim_lint_isolation as isolation  # noqa: E402
import gdisim_lint_snapshot as snapshot  # noqa: E402
from gdisim_lint_model import NOLINT, Model, SourceFile  # noqa: E402

CXX_EXTS = (".h", ".hpp", ".hh", ".cc", ".cpp", ".cxx")

# Matches a pointer type as the first template argument of an associative
# container, e.g. `std::unordered_map<OperationInstance*, ...>` or
# `std::unordered_set<const Foo *>`. Allows nested namespace qualifiers.
_PTR_KEY = r"<\s*(?:const\s+)?[A-Za-z_][A-Za-z0-9_:<>]*\s*\*\s*[,>]"
_PTR_KEY_DECL = re.compile(
    r"std\s*::\s*unordered_(?:map|set|multimap|multiset)\s*" + _PTR_KEY)

# rule -> (pattern, message, files exempt from the rule)
DETERMINISM = {
    # Only fires when the loop target was declared pointer-keyed in the
    # same file (see _ptr_key_names); alone, the pattern would flag every
    # range-for.
    "gdisim-ptr-key-iter": (
        re.compile(r"for\s*\(\s*(?:const\s+)?auto\s*&{0,2}\s*[A-Za-z_\[\]"
                   r"][^)]*:\s*[A-Za-z_][A-Za-z0-9_.\->]*_?\s*\)"),
        "range-for over a container; if it is pointer-keyed and unordered, "
        "iteration order is allocator-dependent", ()),
    "gdisim-ptr-key-decl": (
        _PTR_KEY_DECL,
        "pointer-keyed unordered container: iteration order depends on "
        "allocation addresses; key by a stable ID (e.g. instance_serial) or "
        "use a JobPool", ()),
    "gdisim-addr-ordered": (
        re.compile(r"std\s*::\s*(?:map|set|multimap|multiset)\s*" + _PTR_KEY
                   + r"|std\s*::\s*less\s*<\s*[A-Za-z_][A-Za-z0-9_:<>]*\s*\*\s*>"),
        "address-ordered comparator: ordering follows allocation addresses, "
        "which vary across runs and thread counts", ()),
    "gdisim-raw-rand": (
        re.compile(r"std\s*::\s*rand\b|(?<![A-Za-z0-9_])s?rand\s*\(|"
                   r"random_device\b|mt19937(?:_64)?\b"),
        "raw RNG outside the seeding shim: draw from core/rng.h "
        "(xoshiro256** seeded from the run seed) so streams are reproducible",
        ("src/core/rng.h", "src/core/rng.cc")),
    "gdisim-wall-clock": (
        re.compile(r"system_clock\b|steady_clock\b|high_resolution_clock\b|"
                   r"gettimeofday\b|clock_gettime\b|localtime\b|gmtime\b|"
                   r"(?<![A-Za-z0-9_.])time\s*\(\s*(?:NULL|nullptr|0|\))"),
        "wall-clock read in sim code: simulated time must come from the tick "
        "counter, never the host clock", ()),
    "gdisim-getenv": (
        re.compile(r"(?<![A-Za-z0-9_])(?:std\s*::\s*)?getenv\s*\("),
        "getenv in sim code: behaviour must not depend on the host "
        "environment; thread configuration through Scenario/GlobalOptions", ()),
}

NOLINT_REASON = "gdisim-nolint-reason"
NOLINT_REASON_MESSAGE = (
    "NOLINT covering gdisim rules without a reason: say why "
    "the suppression is sound (// NOLINT(gdisim-<rule>) <reason>); this "
    "finding cannot itself be suppressed")

RULES = {
    **{rule: message for rule, (_p, message, _x) in DETERMINISM.items()},
    **snapshot.RULES,
    **isolation.RULES,
    NOLINT_REASON: NOLINT_REASON_MESSAGE,
}


def _ptr_key_names(code_lines: list[str]) -> set[str]:
    """Names of variables declared with a pointer-keyed unordered container
    anywhere in the file — used to make gdisim-ptr-key-iter precise."""
    name = re.compile(r">\s*([A-Za-z_][A-Za-z0-9_]*)\s*[;{=]")
    names: set[str] = set()
    for line in code_lines:
        if _PTR_KEY_DECL.search(line):
            m = name.search(line)
            if m:
                names.add(m.group(1))
    return names


def determinism_findings(src: SourceFile) -> list[dict]:
    ptr_names = _ptr_key_names(src.code_lines)
    findings = []
    for lineno, code in enumerate(src.code_lines, start=1):
        for rule, (pattern, message, exempt) in DETERMINISM.items():
            if any(src.rel.endswith(e) for e in exempt):
                continue
            m = pattern.search(code)
            if not m:
                continue
            if rule == "gdisim-ptr-key-iter":
                target = re.search(r":\s*([A-Za-z_][A-Za-z0-9_]*)", m.group(0))
                if not target or target.group(1) not in ptr_names:
                    continue
            findings.append(src.finding(lineno, rule, message))
    return findings


def nolint_reason_findings(src: SourceFile) -> list[dict]:
    """Flag NOLINT markers that suppress gdisim rules without saying why.

    A marker is in scope when its rule list is empty (bare NOLINT covers
    everything, gdisim rules included) or names any gdisim rule. The reason
    is whatever comment text survives once the markers themselves are
    removed; punctuation alone does not count. Findings are always active:
    letting a NOLINT suppress the rule that audits NOLINTs would defeat it.
    """
    findings = []
    for lineno, raw in enumerate(src.raw_lines, start=1):
        markers = [
            m for m in NOLINT.finditer(raw)
            if m.group(2) is None
            or any(r.strip().startswith("gdisim") for r in m.group(2).split(","))
        ]
        if not markers:
            continue
        ci = raw.find("//")
        comment = raw[ci + 2:] if ci >= 0 else raw[markers[0].start():]
        text = NOLINT.sub("", comment).replace("*/", " ")
        if not re.search(r"\w", text):
            findings.append(src.finding(lineno, NOLINT_REASON,
                                        NOLINT_REASON_MESSAGE, suppressible=False))
    return findings


def collect_sources(paths: list[str], root: str) -> list[str]:
    files = []
    for p in paths:
        ap = p if os.path.isabs(p) else os.path.join(root, p)
        if os.path.isfile(ap):
            files.append(ap)
        else:
            for dirpath, _dirnames, filenames in os.walk(ap):
                files.extend(os.path.join(dirpath, fn) for fn in filenames
                             if fn.endswith(CXX_EXTS))
    return sorted(set(files))


def lint(files: list[str], root: str) -> list[dict]:
    """Every finding of every rule over `files`, sorted by file, line and rule."""
    model = Model([SourceFile(path, os.path.relpath(path, root)) for path in files])
    findings = snapshot.check(model) + isolation.check(model)
    for src in model.files:
        findings += determinism_findings(src) + nolint_reason_findings(src)
    findings.sort(key=lambda f: (f["file"], f["line"], f["rule"]))
    return findings


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="gdisim lint")
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories to scan (default: src/)")
    parser.add_argument("--json", metavar="FILE",
                        help="write a machine-readable report to FILE ('-' for stdout)")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--include-suppressed", action="store_true",
                        help="print suppressed findings too (always in JSON)")
    parser.add_argument("--root", default=None,
                        help="repo root for relative paths (default: auto)")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, message in sorted(RULES.items()):
            print(f"{rule}: {message}")
        return 0

    root = args.root or os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    paths = args.paths or ["src"]
    files = collect_sources(paths, root)
    if not files:
        print("gdisim_lint: no C++ sources found under", ", ".join(paths),
              file=sys.stderr)
        return 2

    findings = lint(files, root)
    active = [f for f in findings if not f["suppressed"]]
    if args.json:
        report = {
            "version": 2,
            "scanned_files": len(files),
            "counts": {"active": len(active),
                       "suppressed": len(findings) - len(active)},
            "findings": findings,
        }
        payload = json.dumps(report, indent=2)
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w", encoding="utf-8") as f:
                f.write(payload + "\n")

    for f in findings if args.include_suppressed else active:
        tag = " (suppressed)" if f["suppressed"] else ""
        print(f"{f['file']}:{f['line']}: [{f['rule']}]{tag} {f['message']}")
        print(f"    {f['snippet']}")
    print(f"gdisim_lint: {len(files)} files, {len(active)} active finding(s), "
          f"{len(findings) - len(active)} suppressed", file=sys.stderr)
    return 1 if active else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
