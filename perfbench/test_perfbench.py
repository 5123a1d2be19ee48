#!/usr/bin/env python3
"""The benchmark's own tests: a short smoke pass over every workload.

    python3 perfbench/test_perfbench.py          (from the repository root)

Checks BENCHMARK.json against the benchmark contract, runs each workload
for one second untraced and traced and validates the printed result object
against BENCHMARK.json, confirms that an injected wrong answer is counted
as a failed operation, and that the benchmark refuses to run, without a
result line, from a directory that holds only BENCHMARK.json and
perfbench/.
"""

import json
import math
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
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seconds=1, trace=0, inject=0, cwd=ROOT):
    cmd = load_benchmark()["command"] + [
        "--workload", workload, "--seed", "7", "--seconds", str(seconds),
        "--trace", str(trace), "--inject-wrong", str(inject)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr[-2000:]
    return json.loads(lines[-1])


class ContractTest(unittest.TestCase):
    def test_benchmark_json(self):
        b = load_benchmark()
        self.assertEqual(set(b), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        self.assertLessEqual(os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")),
                             64 * 1024)
        self.assertTrue(1 <= len(b["paths"]) <= 16)
        for p in b["paths"]:
            self.assertRegex(p, PATH)
            self.assertFalse(p.startswith("/") or ".." in p.split("/"))
            self.assertTrue(os.path.isdir(os.path.join(ROOT, p)))
        self.assertTrue(1 <= len(b["command"]) <= 32)
        for arg in b["command"]:
            self.assertLessEqual(len(arg), 200)
            self.assertFalse(arg.startswith("/") or ".." in arg.split("/"))
        self.assertIsInstance(b["run_seconds"], int)
        self.assertTrue(1 <= b["run_seconds"] <= 60)
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], NAME)
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        self.assertTrue(1 <= len(b["end_to_end"]) <= 16)
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in b["end_to_end"]))
        self.assertTrue(1 <= len(b["per_layer"]) <= 128)
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        names = [m["name"] for m in b["end_to_end"] + b["per_layer"]]
        names += [w["name"] for w in b["workloads"]]
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        self.assertEqual(len(set(n for n in names)), len(names))

    def test_layer_map_covers_every_layer_metric(self):
        with open(os.path.join(HERE, "map.json")) as f:
            mapped = {row[0] for row in json.load(f)["layer_map"]}
        self.assertEqual(mapped, {m["name"] for m in load_benchmark()["per_layer"]})


class SmokeTest(unittest.TestCase):
    def check(self, res, trace):
        b = load_benchmark()
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertIsInstance(res["attempted"], int)
        self.assertIsInstance(res["failed"], int)
        self.assertGreaterEqual(res["attempted"], 1)
        want = b["per_layer"] if trace else b["end_to_end"]
        self.assertEqual(set(res["metrics"]), {m["name"] for m in want})
        for m in want:
            got = res["metrics"][m["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], m["unit"])
            self.assertTrue(math.isfinite(got["value"]))
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])

    def test_workloads(self):
        for w in load_benchmark()["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    proc = run(w["name"], trace=trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    res = result_of(proc)
                    self.check(res, trace)
                    self.assertTrue(res["correct"], proc.stdout[-3000:])
                    self.assertEqual(res["failed"], 0)

    def test_wrong_answer_counts_as_failure(self):
        for w in load_benchmark()["workloads"]:
            with self.subTest(workload=w["name"]):
                proc = run(w["name"], inject=1)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                res = result_of(proc)
                self.check(res, 0)
                self.assertFalse(res["correct"])
                self.assertGreaterEqual(res["failed"], 1)


class BareDirectoryTest(unittest.TestCase):
    def test_refuses_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for p in load_benchmark()["paths"]:
            shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p))
        try:
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            cmd = load_benchmark()["command"] + [
                "--workload", load_benchmark()["workloads"][0]["name"],
                "--seed", "1", "--seconds", "1", "--trace", "0"]
            proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True,
                                  timeout=180, env=env)
            self.assertNotEqual(proc.returncode, 0)
            last = (proc.stdout.strip().splitlines() or [""])[-1]
            self.assertNotIn('"correct"', last)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(unittest.main())
