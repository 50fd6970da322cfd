#!/usr/bin/env python3
"""Smoke tests of the benchmark itself, at the --tiny scale.

    python3 perfbench/tests/smoke_test.py

Checks, for every workload, that an untraced run prints every end-to-end
metric of BENCHMARK.json and a traced run every per-layer metric, each with
its unit; that the correctness gate fires when one expected answer (or one
reference event) is perturbed; and that the benchmark refuses to run from a
directory holding only BENCHMARK.json and perfbench/.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*extra, cwd=ROOT):
    command = [sys.executable, "perfbench/run.py", "--seed", "7",
               "--seconds", "1", "--tiny", *extra]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result_of(completed):
    lines = completed.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class MetricsPrinted(unittest.TestCase):
    def check(self, workload, trace, expected):
        completed = run("--workload", workload, "--trace", trace)
        self.assertEqual(completed.returncode, 0, completed.stderr[-3000:])
        result = result_of(completed)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(printed, {m["name"]: m["unit"] for m in expected})
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_end_to_end(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, "0", SPEC["end_to_end"])

    def test_per_layer(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, "1", SPEC["per_layer"])


class CorrectnessGate(unittest.TestCase):
    def test_perturbed_expectation_fails_the_run(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                completed = run("--workload", workload, "--trace", "0",
                                "--perturb")
                self.assertEqual(completed.returncode, 1)
                result = result_of(completed)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)


class BareDirectory(unittest.TestCase):
    def test_refuses_without_sources(self):
        target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        if not target.is_absolute():
            target = ROOT / target
        bare = target / "smoke_bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench")
        try:
            completed = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=bare, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(completed.returncode, 0)
            self.assertNotIn("correct", completed.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
