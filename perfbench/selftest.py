"""Tests of the benchmark itself.

Run from the repository root (under a minute)::

    python3 perfbench/selftest.py

* Every workload runs in ``--short`` mode (a few ops), untraced and traced:
  the last line carries every metric of ``BENCHMARK.json`` with its unit,
  and no op fails.
* With ``--corrupt`` one expected value is perturbed after the warm-up op,
  and every op of every workload must then be counted as failed.
* ``BENCHMARK.json`` keeps to its required format (keys, name and unit
  syntax, bounds), and ``design.json`` covers every workload and metric in
  it.
* The golden values in ``goldens.py`` agree with
  ``tests/test_golden_regression.py``.
"""

import ast
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
with open(os.path.join(HERE, "design.json"), encoding="utf-8") as _handle:
    DESIGN = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, *flags):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--short", *flags],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        timeout=180,
        check=False,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} {flags} exited {proc.returncode}:\n{proc.stderr.decode()}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


class ShortRuns(unittest.TestCase):
    def check_metrics(self, result, wanted):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(
            [m["name"] for m in wanted], list(result["metrics"]), "metric names or order"
        )
        for metric in wanted:
            entry = result["metrics"][metric["name"]]
            self.assertEqual(entry["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(entry["value"], (int, float), metric["name"])

    def test_end_to_end_metrics_and_no_failed_op(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = run(workload, "--trace", "0")
                self.check_metrics(result, SPEC["end_to_end"])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                for name, entry in result["metrics"].items():
                    self.assertGreater(entry["value"], 0, f"{workload} {name} reads 0")

    def test_per_layer_metrics_on_the_traced_run(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = run(workload, "--trace", "1")
                self.check_metrics(result, SPEC["per_layer"])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)

    def test_corrupted_expectation_fails_every_op(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = run(workload, "--trace", "0", "--corrupt")
                self.assertFalse(result["correct"])
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(result["failed"], result["attempted"])


class BenchmarkFormat(unittest.TestCase):
    def test_benchmark_json_shape(self):
        self.assertEqual(
            set(SPEC),
            {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        )
        self.assertEqual(SPEC["command"], ["python3", "perfbench/run.py"])
        self.assertIsInstance(SPEC["run_seconds"], int)
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        for workload in SPEC["workloads"]:
            self.assertEqual(set(workload), {"name", "why"})
            self.assertLessEqual(len(workload["why"]), 200)
            self.assertNotIn("\n", workload["why"])
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
        self.assertEqual(len(names), len(set(names)), "a name is used twice")
        for name in names:
            self.assertRegex(name, NAME)
        for metric in SPEC["end_to_end"]:
            self.assertEqual(set(metric), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < metric["bound"] <= 0.25)
        for metric in SPEC["per_layer"]:
            self.assertEqual(set(metric), {"name", "unit", "better"})
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("lower", "higher"))
        setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in SPEC["end_to_end"]))

    def test_design_notes_cover_every_workload_and_metric(self):
        self.assertEqual(set(DESIGN["workloads"]), set(WORKLOADS))
        end_to_end = {m["name"] for m in SPEC["end_to_end"]}
        self.assertLessEqual(end_to_end, set(DESIGN["end_to_end"]))
        covered = [name for group in DESIGN["per_layer"] for name in group["metrics"]]
        self.assertEqual(sorted(covered), sorted(m["name"] for m in SPEC["per_layer"]))
        for group in DESIGN["per_layer"]:
            for field in ("module", "kind", "moves", "on", "flat_on"):
                self.assertIn(field, group, group["metrics"])
            self.assertLessEqual(set(group["moves"]), end_to_end, group["metrics"])


class Goldens(unittest.TestCase):
    def test_goldens_match_the_regression_test(self):
        path = os.path.join(ROOT, "tests", "test_golden_regression.py")
        if not os.path.exists(path):
            self.skipTest("tests/test_golden_regression.py is not in this checkout")
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        pinned = {
            node.targets[0].id: ast.literal_eval(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign)
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id in ("GOLDEN", "VARIANT_GOLDEN")
        }
        sys.path.insert(0, HERE)
        import goldens

        self.assertEqual(pinned["GOLDEN"], goldens.GOLDEN)
        self.assertEqual(pinned["VARIANT_GOLDEN"], goldens.VARIANT_GOLDEN)


if __name__ == "__main__":
    unittest.main()
