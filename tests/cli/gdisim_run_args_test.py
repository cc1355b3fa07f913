#!/usr/bin/env python3
"""Command-line contract of gdisim_run.

    python3 tests/cli/gdisim_run_args_test.py path/to/gdisim_run

Every bad argument exits 2 and names the offending flag on stderr; every
failure after parsing (unwritable output path, broken config, unreadable
snapshot) exits 1 with a located message. No case may end in a signal or an
uncaught exception (rc >= 128, or a negative rc from subprocess).
"""
import os
import resource
import subprocess
import sys
import tempfile
import unittest

BIN = None
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
TWO_SITE = os.path.join(ROOT, "configs", "two_site.gdisim")

# (argv, expected rc, substring stderr must contain)
BAD_ARGS = [
    (["--hours", "abc"], 2, "--hours: bad value 'abc'"),
    (["--hours", "-1"], 2, "--hours: bad value '-1'"),
    (["--hours", "inf"], 2, "--hours: bad value 'inf'"),
    (["--hours", "1h"], 2, "--hours: bad value '1h'"),
    # A horizon past 2^63 ticks is refused, never wrapped into a 0-tick run.
    (["--scenario", "validation", "--hours", "1e15"], 2,
     "--hours: 1e+15 h is beyond the tick range; at a 0.01 s tick the longest run is"),
    (["--seed", "xyz"], 2, "--seed: bad value 'xyz'"),
    (["--seed", "-3"], 2, "--seed: bad value '-3'"),
    (["--seed", ""], 2, "--seed: bad value ''"),
    (["--experiment", "x"], 2, "--experiment: bad value 'x'"),
    (["--experiment", "0"], 2, "--experiment: bad value '0'"),
    (["--experiment", "4"], 2, "--experiment: bad value '4'"),
    (["--scale", "0"], 2, "--scale: bad value '0'"),
    (["--scale", "nan"], 2, "--scale: bad value 'nan'"),
    (["--checkpoint-every", "soon"], 2, "--checkpoint-every: bad value 'soon'"),
    (["--scenario", "bogus"], 2, "--scenario: bad value 'bogus'"),
    (["--hours"], 2, "--hours: missing value"),
    (["--bogus-flag"], 2, "unknown flag '--bogus-flag'"),
    (["--regime", "auto"], 2, "unknown flag '--regime'"),
    (["--regime=auto"], 2, "unknown flag '--regime=auto'"),
    (["--no-fastpath"], 2, "unknown flag '--no-fastpath'"),
    (["--no-route-cache"], 2, "unknown flag '--no-route-cache'"),
    (["--no-inbox-batch"], 2, "unknown flag '--no-inbox-batch'"),
    (["--no-wake-coalesce"], 2, "unknown flag '--no-wake-coalesce'"),
    (["--threads", "0"], 2, "unknown flag '--threads'"),
    (["--tick-profile", "/tmp/x.json"], 2, "unknown flag '--tick-profile'"),
    # Output paths are checked before the (here: full-scale, full-day) run.
    (["--scale", "1.0", "--hours", "24", "--checkpoint", "/nonexistent/dir/x.snap"], 1,
     "/nonexistent/dir/x.snap"),
    (["--scale", "1.0", "--hours", "24", "--csv", "/nonexistent/dir/x.csv"], 1,
     "/nonexistent/dir/x.csv"),
    (["--config", "/nonexistent/x.gdisim"], 1, "/nonexistent/x.gdisim"),
    # Scaled core and disk counts are unsigned: an overflowing scale fails, never wraps.
    (["--scenario", "consolidated", "--hours", "0.001", "--scale", "1e30"], 1,
     "scale 1e+30 overflows a core or disk count"),
    (["--restore", "/nonexistent/x.snap", "--hours", "0.01"], 1, "/nonexistent/x.snap"),
]


def run(args, timeout=60):
    return subprocess.run([BIN] + args, capture_output=True, text=True, timeout=timeout)


class GdisimRunArgs(unittest.TestCase):
    def check(self, args, rc, stderr_has):
        p = run(args)
        self.assertGreaterEqual(p.returncode, 0, f"{args}: killed by signal {-p.returncode}")
        self.assertLess(p.returncode, 128, f"{args}: rc {p.returncode}")
        self.assertEqual(p.returncode, rc, f"{args}: stderr {p.stderr!r}")
        self.assertIn(stderr_has, p.stderr, f"{args}")
        return p

    def test_bad_arguments(self):
        for args, rc, stderr_has in BAD_ARGS:
            with self.subTest(args=args):
                p = self.check(args, rc, stderr_has)
                self.assertNotIn("simulated", p.stdout, f"{args}: ran before failing")

    def test_scale_too_big_for_memory_is_refused(self):
        # Under a 3 GB address-space limit, 1e4 x the 6,601 consolidated
        # clients needs more than the limit in client slots alone and is
        # refused before set-up. Under 1 GB, 1e3 passes that estimate but its
        # hardware does not fit: the bad_alloc is reported with the same
        # numbers. Neither may end in a bare std::bad_alloc.
        with open(BIN, "rb") as f:
            image = f.read()
        if any(s in image for s in (b"__asan_init", b"__tsan_init", b"__msan_init")):
            self.skipTest("sanitizer runtimes reserve more address space than the limit")
        cases = [(3_000_000_000, "1e4", "scale 10000: the client slots need "),
                 (1_000_000_000, "1e3", "out of memory; scale 1000: the client slots need ")]
        for limit, scale, message in cases:
            with self.subTest(scale=scale):
                def cap_address_space(limit=limit):
                    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

                args = ["--scenario", "consolidated", "--hours", "0.001", "--scale", scale,
                        "--quiet", "--fingerprint"]
                p = subprocess.run([BIN] + args, capture_output=True, text=True, timeout=60,
                                   preexec_fn=cap_address_space)
                self.assertEqual(p.returncode, 1, p.stderr)
                self.assertIn(message, p.stderr)
                self.assertRegex(p.stderr, r"this process may use \d+ bytes")
                self.assertNotIn("fingerprint", p.stdout)

    def test_well_formed_numbers_run(self):
        p = run(["--scenario", "validation", "--experiment", "3", "--hours", "0.01", "--seed",
                 "7", "--quiet", "--fingerprint"])
        self.assertEqual(p.returncode, 0, p.stderr)
        self.assertIn("fingerprint: ", p.stdout)

    def test_regime_block_is_a_located_config_error(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "regime.gdisim")
            with open(TWO_SITE, encoding="utf-8") as f:
                text = f.read().rstrip("\n") + "\n"
            line = text.count("\n") + 1
            with open(path, "w", encoding="utf-8") as f:
                f.write(text + "regime auto\n  epoch 2\nend\n")
            for extra in ([], ["--validate"]):
                with self.subTest(extra=extra):
                    self.check(["--config", path, "--hours", "0.01"] + extra, 1,
                               f"{path}:{line}: unknown directive 'regime'")

    def test_version_6_snapshot_is_rejected(self):
        with tempfile.TemporaryDirectory() as tmp:
            snap = os.path.join(tmp, "v6.snap")
            base = ["--config", TWO_SITE, "--quiet"]
            p = run(base + ["--hours", "0.01", "--checkpoint", snap])
            self.assertEqual(p.returncode, 0, p.stderr)
            with open(snap, "r+b") as f:
                f.seek(8)  # the little-endian version field follows the magic
                f.write((6).to_bytes(4, "little"))
            self.check(base + ["--hours", "0.02", "--restore", snap], 1,
                       f"{snap}:byte 8: format version 6, this build reads 7")


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: gdisim_run_args_test.py path/to/gdisim_run")
    BIN = sys.argv.pop(1)
    unittest.main()
