#!/usr/bin/env python3
"""Tests of the benchmark's own arithmetic and catalogue.

    python3 perfbench/test_perfbench.py

Builds the benchmark binary and its C++ self-test (metrics.hpp: the percentile
support rule, goodput / fail_frac with shed requests, per-token
normalisation), then checks that every metric the binary can emit is
declared in BENCHMARK.json with the same unit, and vice versa.
"""
import importlib.util
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)


def build_targets():
    run.build()
    rc, _ = run.run_group(["cmake", "--build", str(run.build_dir()),
                           "--target", "perfbench_selftest"],
                          run.BUILD_TIMEOUT_S, stdout=sys.stderr)
    if rc != 0:
        raise RuntimeError("self-test build failed")


class Arithmetic(unittest.TestCase):
    def test_selftest_binary_passes(self):
        out = subprocess.run([str(run.build_dir() / "perfbench_selftest")],
                             capture_output=True, text=True, timeout=60)
        self.assertEqual(out.returncode, 0, out.stdout)
        self.assertIn("selftest PASSED", out.stdout)


class Catalogue(unittest.TestCase):
    def catalogue(self):
        out = subprocess.run([str(run.build_dir() / "perfbench"),
                              "--list-metrics"],
                             capture_output=True, text=True, timeout=60,
                             check=True)
        return json.loads(out.stdout)

    def test_emitted_names_match_benchmark_json(self):
        cat = self.catalogue()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = run.declared_metrics(trace)
            emitted = {m["name"]: {"value": 1.0, "unit": m["unit"]}
                       for m in cat[key]}
            self.assertEqual(run.catalogue_mismatches(declared, emitted), [],
                             key)
            self.assertEqual(list(declared), [m["name"] for m in cat[key]])

    def test_mismatch_is_reported_both_ways(self):
        declared = {"a": "s", "b": "ms"}
        emitted = {"a": {"value": 1.0, "unit": "ms"},
                   "c": {"value": 2.0, "unit": "s"}}
        problems = run.catalogue_mismatches(declared, emitted)
        self.assertEqual(len(problems), 3)
        self.assertTrue(any("b not emitted" in p for p in problems))
        self.assertTrue(any("c not declared" in p for p in problems))
        self.assertTrue(any(p.startswith("a: unit") for p in problems))

    def test_setup_s_and_bounds_follow_the_contract(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        e2e = {m["name"]: m for m in spec["end_to_end"]}
        self.assertEqual(e2e["setup_s"]["unit"], "s")
        self.assertEqual(e2e["setup_s"]["better"], "lower")
        self.assertEqual(e2e["setup_s"]["bound"],
                         max(m["bound"] for m in e2e.values()))
        self.assertTrue(all(0 < m["bound"] <= 0.25 for m in e2e.values()))


if __name__ == "__main__":
    build_targets()
    unittest.main()
