#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/test_perfbench.py

Checks BENCHMARK.json against the benchmark contract, that targets.json maps
every per-layer metric, that a short run of every workload in both modes
passes its output checks and prints exactly the declared names and units,
and that run.py fails without a result when the library sources are absent.
Builds the benchmark on first use (about a minute) and runs for about a
minute more.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load(path):
    with open(path) as f:
        return json.load(f)


def run(cwd, workload, trace, seconds="1"):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", seconds,
         "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)


class BenchmarkJson(unittest.TestCase):
    def setUp(self):
        self.spec = load(os.path.join(ROOT, "BENCHMARK.json"))

    def test_contract(self):
        s = self.spec
        self.assertEqual(set(s), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        self.assertEqual(s["paths"], ["perfbench"])
        self.assertTrue(1 <= s["run_seconds"] <= 60)
        self.assertTrue(2 <= len(s["workloads"]) <= 8)
        names = []
        for w in s["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(len(w["why"]) <= 200 and "\n" not in w["why"])
            names.append(w["name"])
        for m in s["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
            names.append(m["name"])
        for m in s["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in s["end_to_end"] + s["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        setup = [m for m in s["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in s["end_to_end"]))

    def test_targets_cover_every_layer_metric(self):
        targets = load(os.path.join(HERE, "targets.json"))["groups"]
        layer = {m["name"] for m in self.spec["per_layer"]}
        e2e = {m["name"] for m in self.spec["end_to_end"]}
        workloads = {w["name"] for w in self.spec["workloads"]}
        mapped = set()
        for g in targets:
            mapped.update(g["metrics"])
            self.assertTrue(set(g["moves"]) <= e2e, g["group"])
            self.assertTrue(set(g["workloads"]) <= workloads, g["group"])
        self.assertEqual(mapped, layer)


class Runs(unittest.TestCase):
    def test_every_workload_and_mode(self):
        spec = load(os.path.join(ROOT, "BENCHMARK.json"))
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in spec[key]}
            for w in spec["workloads"]:
                with self.subTest(workload=w["name"], trace=trace):
                    proc = run(ROOT, w["name"], trace)
                    self.assertEqual(proc.returncode, 0,
                                     proc.stdout[-2000:] + proc.stderr[-2000:])
                    lines = proc.stdout.strip().split("\n")
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(
                        {n: m["unit"] for n, m in result["metrics"].items()},
                        declared)
                    # Every figure is also printed for people, with its unit.
                    for name, unit in declared.items():
                        self.assertRegex(
                            proc.stdout,
                            rf"metric {re.escape(name)} +\S+ {re.escape(unit)} \(n=")

    def test_fails_without_library_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc = run(bare, "sta_wide_100k", 0)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
