#!/usr/bin/env python3
"""The benchmark's own test: it stays on the simulator's stable surface.

    python3 perfbench/test_surface.py

The benchmark may call only the scenario factories, the simulator's
constructor, run_until_seconds, loop() statistics and agent names,
collector() and scenario() outputs, set_collect_callback, result_fingerprint
and the queue classes' and Inbox's enqueue / advance / post / drain calls.
It must never name the route memoization class, the service-regime accessor,
or the per-message fast-path and regime fields of SimulatorConfig, so that
removing any of those needs no benchmark edit. The forbidden names are
assembled from pieces below so that this file does not name them either.
"""
import json
import os
import re
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GDIBENCH = os.path.join(HERE, "gdibench.cc")

FORBIDDEN = [
    "Route" + "Cache",
    "route" + "_cache",
    "regime" + "(",
    "Regime" + "Controller",
    "regime" + "_mode",
    "inbox" + "_batch",
    "wake" + "_coalesce",
]
ALLOWED_INCLUDES = {
    "config/scenarios.h",
    "hardware/component.h",
    "hardware/link.h",
    "queueing/fcfs_queue.h",
    "queueing/ps_queue.h",
    "sim/fingerprint.h",
    "sim/gdisim.h",
}
ALLOWED_CONFIG_FIELDS = {"threads", "collect_every_s"}


def benchmark_files():
    for base, dirs, files in os.walk(HERE):
        dirs[:] = [d for d in dirs if d != "__pycache__"]
        for name in sorted(files):
            yield os.path.join(base, name)


def read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


class StableSurface(unittest.TestCase):
    def test_no_forbidden_names(self):
        files = list(benchmark_files())
        self.assertIn(GDIBENCH, files)
        for path in files:
            text = read(path)
            for name in FORBIDDEN:
                self.assertFalse(name in text, f"{os.path.relpath(path, ROOT)} names {name}")

    def test_only_stable_headers(self):
        includes = set(re.findall(r'#include\s+"([^"]+)"', read(GDIBENCH)))
        self.assertTrue(includes, "no project headers found")
        self.assertLessEqual(includes, ALLOWED_INCLUDES)

    def test_config_sets_threads_and_collection_only(self):
        text = read(GDIBENCH)
        fields = set(re.findall(r"\bcfg\.(\w+)\s*=", text))
        self.assertLessEqual(fields, ALLOWED_CONFIG_FIELDS)
        # Serial on purpose: the benchmark never inherits a thread default.
        self.assertEqual(len(re.findall(r"\bcfg\.threads\s*=\s*0;", text)),
                         len(re.findall(r"\bSimulatorConfig cfg;", text)))

    def test_declared_metrics_are_emitted(self):
        spec = json.loads(read(os.path.join(ROOT, "BENCHMARK.json")))
        text = read(GDIBENCH)
        for metric in spec["end_to_end"] + spec["per_layer"]:
            name = metric["name"]
            if name.startswith("core.runs."):
                literal = '"' + name[len("core.runs."):] + '"'
            else:
                literal = '"' + name + '"'
            self.assertIn(literal, text, f"{name} is declared but never emitted")


if __name__ == "__main__":
    unittest.main()
