#!/usr/bin/env python3
"""Tests of the benchmark's Python side: the BENCHMARK.json / spec.json
schema check and the exact-count comparison keyed by code identity. Run
from the repo root:

    python3 -m unittest perfbench/test_run.py
"""

import copy
import importlib.util
import json
import os
import re
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

_spec = importlib.util.spec_from_file_location("perfbench_run",
                                               os.path.join(HERE, "run.py"))
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load(path):
    with open(path) as f:
        return json.load(f)


class SchemaTest(unittest.TestCase):
    def setUp(self):
        self.bench = load(os.path.join(ROOT, "BENCHMARK.json"))
        self.spec = load(os.path.join(HERE, "spec.json"))

    def test_shipped_files_agree(self):
        self.assertEqual(run.check_schema(self.bench, self.spec), [])

    def test_every_metric_has_unit_direction_and_workloads(self):
        workloads = {w["name"] for w in self.bench["workloads"]}
        for kind in ("end_to_end", "per_layer"):
            for m in self.bench[kind]:
                self.assertTrue(UNIT.match(m["unit"]), m)
                self.assertIn(m["better"], ("higher", "lower"))
                doc = self.spec["metrics"][m["name"]]
                self.assertNotIn("unit", doc)
                self.assertNotIn("better", doc)
                self.assertTrue(doc["workloads"])
                self.assertLessEqual(set(doc["workloads"]), workloads)

    def test_benchmark_json_contract(self):
        b = self.bench
        self.assertEqual(set(b), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertIsInstance(b["run_seconds"], int)
        self.assertTrue(1 <= b["run_seconds"] <= 60)
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        names = [w["name"] for w in b["workloads"]]
        for kind, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                           ("per_layer", {"name", "unit", "better"})):
            for m in b[kind]:
                self.assertEqual(set(m), keys)
                names.append(m["name"])
                if kind == "end_to_end":
                    self.assertTrue(0 < m["bound"] <= 0.25)
        for n in names:
            self.assertTrue(NAME.match(n), n)
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in b["end_to_end"]))
        for p in b["paths"]:
            self.assertTrue(os.path.isdir(os.path.join(ROOT, p)))

    def test_missing_unit_or_direction_is_reported(self):
        b = copy.deepcopy(self.bench)
        b["per_layer"][0]["unit"] = ""
        b["end_to_end"][0]["better"] = "faster"
        problems = run.check_schema(b, self.spec)
        self.assertTrue(any(b["per_layer"][0]["name"] in p for p in problems))
        self.assertTrue(any(b["end_to_end"][0]["name"] in p for p in problems))

    def test_metric_without_workloads_is_reported(self):
        s = copy.deepcopy(self.spec)
        s["metrics"]["setup_s"]["workloads"] = []
        self.assertTrue(run.check_schema(self.bench, s))

    def test_undocumented_and_unlisted_metrics_are_reported(self):
        b = copy.deepcopy(self.bench)
        b["per_layer"].append({"name": "new.metric", "unit": "us",
                               "better": "lower"})
        self.assertTrue(run.check_schema(b, self.spec))
        s = copy.deepcopy(self.spec)
        s["metrics"]["ghost"] = dict(s["metrics"]["setup_s"])
        self.assertTrue(run.check_schema(self.bench, s))

    def test_layer_metric_needs_mapping(self):
        s = copy.deepcopy(self.spec)
        name = self.bench["per_layer"][0]["name"]
        del s["metrics"][name]["moves"]
        self.assertTrue(run.check_schema(self.bench, s))

    def test_workload_parameters_required(self):
        s = copy.deepcopy(self.spec)
        del s["workloads"]["decode_bound"]["limit_ms"]
        self.assertTrue(run.check_schema(self.bench, s))


class CountsTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.store = os.path.join(self.dir.name, "counts.json")

    def tearDown(self):
        self.dir.cleanup()

    def test_counts_must_repeat(self):
        first = {"decoded": 10, "flops": 12345}
        self.assertEqual(run.check_counts(self.store, "w:1:a", first, True),
                         [])
        self.assertEqual(run.check_counts(self.store, "w:1:a", dict(first),
                                          True), [])
        diff = run.check_counts(self.store, "w:1:a",
                                {"decoded": 11, "flops": 12345}, True)
        self.assertEqual(len(diff), 1)
        self.assertIn("decoded", diff[0])
        # Another seed is another key.
        self.assertEqual(run.check_counts(self.store, "w:2:a", {"decoded": 3},
                                          True), [])

    def test_other_code_starts_a_fresh_entry(self):
        self.assertEqual(run.check_counts(self.store, "w:1:a", {"flops": 9},
                                          True), [])
        # A change that legitimately moves a count is not compared with
        # the counts of the code before it ...
        self.assertEqual(run.check_counts(self.store, "w:1:b", {"flops": 7},
                                          True), [])
        # ... and both stay the reference for their own code.
        self.assertTrue(run.check_counts(self.store, "w:1:a", {"flops": 7},
                                         True))
        self.assertTrue(run.check_counts(self.store, "w:1:b", {"flops": 9},
                                         True))

    def test_failed_run_is_not_the_reference(self):
        self.assertEqual(run.check_counts(self.store, "w:1:a", {"flops": 1},
                                          False), [])
        self.assertEqual(run.check_counts(self.store, "w:1:a", {"flops": 2},
                                          True), [])
        self.assertTrue(run.check_counts(self.store, "w:1:a", {"flops": 1},
                                         True))

    def test_code_identity_follows_file_contents(self):
        with tempfile.TemporaryDirectory() as root:
            os.makedirs(os.path.join(root, "src", "llm"))
            os.makedirs(os.path.join(root, "perfbench", "__pycache__"))
            path = os.path.join(root, "src", "llm", "model.cc")
            with open(path, "w") as f:
                f.write("int a;\n")
            before = run.code_identity(root)
            with open(os.path.join(root, "perfbench", "__pycache__", "x.pyc"),
                      "w") as f:
                f.write("bytecode")
            self.assertEqual(run.code_identity(root), before)
            with open(path, "w") as f:
                f.write("int b;\n")
            self.assertNotEqual(run.code_identity(root), before)


if __name__ == "__main__":
    unittest.main()
