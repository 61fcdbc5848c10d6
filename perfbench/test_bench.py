#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/test_bench.py

- Tiny mode runs every workload untraced and traced and checks that every
  metric BENCHMARK.json names prints, with its unit, in the summary and in
  the final JSON line, and that every output check passed.
- A tampered reference must make every workload report failures.
- Without the repository's sources the command must fail without a result.
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
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload, trace, *extra, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "2",
         "--trace", str(trace), "--size", "tiny", *extra],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    return proc


def summary(stdout):
    """name -> (value, unit) from the harness's "  name = value unit" lines."""
    out = {}
    for line in stdout.split("\n"):
        m = re.match(r"^  (\S+) = (\S+) (\S+)", line)
        if m:
            out[m.group(1)] = (float(m.group(2)), m.group(3))
    return out


class TinyRuns(unittest.TestCase):
    def check(self, workload, trace, declared):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().split("\n")[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr[-2000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual([m["name"] for m in declared], list(result["metrics"]))
        printed = summary(proc.stdout)
        for metric in declared:
            got = result["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(got["value"], (int, float))
            self.assertIn(metric["name"], printed)
            self.assertEqual(printed[metric["name"]][1], metric["unit"])
        self.assertEqual(printed["error_rate"], (0.0, "share"))
        return result

    def test_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = self.check(workload, 0, BENCH["end_to_end"])
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_per_layer_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = self.check(workload, 1, BENCH["per_layer"])
                self.assertLess(result["metrics"]["unaccounted_share"]["value"], 0.05)


class TamperedReference(unittest.TestCase):
    def test_checks_fail(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run(workload, 1, "--tamper-reference")
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                result = json.loads(proc.stdout.strip().split("\n")[-1])
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertGreater(result["metrics"]["error_rate"]["value"], 0)


class WithoutSources(unittest.TestCase):
    def test_fails_without_result(self):
        bare = os.path.join(ROOT, ".bench_work", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=180)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
