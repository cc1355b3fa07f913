#!/usr/bin/env python3
"""Mutation fuzz of the shipped .gdisim configs.

    python3 tests/cli/gdisim_config_fuzz_test.py path/to/gdisim_run

Builds deterministic variants of configs/two_site.gdisim and
configs/three_continents.gdisim: every token replaced by each value in
REPLACEMENTS, and every line deleted, duplicated, given an extra token, or
shortened by its last token. Each variant runs through `--validate`; one
that validates also runs for a few simulated seconds. The contract:

  * nothing ends in a signal or an rc >= 128;
  * every nonzero exit names the variant as `path:line:` on stderr;
  * every variant `--validate` accepts also runs to exit 0.
"""
import os
import re
import subprocess
import sys
import tempfile
import unittest

BIN = None
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
REPLACEMENTS = ["-1", "0", "nan", "inf", "1e400", "x", "1e30", "4294967296", "0.5"]


def content_lines(text):
    """Indices of the lines that hold tokens once comments are stripped."""
    lines = text.split("\n")
    return lines, [i for i, line in enumerate(lines) if line.split("#")[0].split()]


def variants(text):
    """Yields (description, variant text), each distinct text once."""
    lines, content = content_lines(text)
    seen = {text}

    def emit(what, new_lines):
        body = "\n".join(new_lines)
        if body not in seen:
            seen.add(body)
            yield what, body

    for i in content:
        tokens = lines[i].split("#")[0].split()
        indent = lines[i][: len(lines[i]) - len(lines[i].lstrip())]
        for k in range(len(tokens)):
            for value in REPLACEMENTS:
                mutated = indent + " ".join(tokens[:k] + [value] + tokens[k + 1:])
                yield from emit(f"line {i + 1} token {k} -> {value}",
                                lines[:i] + [mutated] + lines[i + 1:])
        yield from emit(f"line {i + 1} deleted", lines[:i] + lines[i + 1:])
        yield from emit(f"line {i + 1} duplicated", lines[:i + 1] + lines[i:])
        yield from emit(f"line {i + 1} extra token",
                        lines[:i] + [indent + " ".join(tokens + ["1"])] + lines[i + 1:])
        yield from emit(f"line {i + 1} shortened",
                        lines[:i] + [indent + " ".join(tokens[:-1])] + lines[i + 1:])


def run(args):
    return subprocess.run([BIN] + args, capture_output=True, text=True, timeout=120)


class ConfigFuzz(unittest.TestCase):
    def fuzz(self, name):
        with open(os.path.join(ROOT, "configs", name), encoding="utf-8") as f:
            text = f.read()
        failures = []
        count = 0
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, name)
            located = re.compile(re.escape(path) + r":\d+: ")
            for what, body in variants(text):
                count += 1
                with open(path, "w", encoding="utf-8") as f:
                    f.write(body)
                for args in (["--validate"], ["--hours", "0.002", "--quiet"]):
                    p = run(["--config", path] + args)
                    why = None
                    if p.returncode < 0 or p.returncode >= 128:
                        why = f"rc {p.returncode}"
                    elif p.returncode != 0 and not located.search(p.stderr):
                        why = f"rc {p.returncode} without {path}:line:"
                    elif p.returncode != 0 and args[0] != "--validate":
                        why = "validated, but the run failed"
                    if why:
                        failures.append(f"{what} {args[0]}: {why}: {p.stderr.strip()[-200:]}")
                    if p.returncode != 0:
                        break
        self.assertGreater(count, 500)
        self.assertFalse(failures, f"{len(failures)} of {count} {name} variants:\n" +
                         "\n".join(failures))

    def test_two_site(self):
        self.fuzz("two_site.gdisim")

    def test_three_continents(self):
        self.fuzz("three_continents.gdisim")


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: gdisim_config_fuzz_test.py path/to/gdisim_run")
    BIN = sys.argv.pop(1)
    unittest.main()
