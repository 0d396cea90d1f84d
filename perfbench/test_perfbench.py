#!/usr/bin/env python3
"""Tests of the repo benchmark itself (shrunken --smoke inputs).

    python3 perfbench/test_perfbench.py

Run from the root of a checkout; builds perfbench/ like run.py does.
"""
import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_py(*args):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)
    return proc


def run_binary(binary, workload, workers, seed=7):
    with tempfile.TemporaryDirectory(dir=run.build_dir()) as workdir:
        out = subprocess.run([binary, "--workload", workload, "--seed", str(seed),
                              "--workers", str(workers), "--trace", "0", "--smoke"],
                             cwd=workdir, stdout=subprocess.PIPE, text=True,
                             check=True, timeout=300).stdout
    return json.loads(out.strip().splitlines()[-1])


class MetricCatalogue(unittest.TestCase):
    def test_names_and_units_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual(e2e, run.END_TO_END)
        self.assertEqual(layer, run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        for name, unit in list(e2e.items()) + list(layer.items()):
            self.assertRegex(name, NAME)
            self.assertRegex(unit, UNIT)
        for m in spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in spec["end_to_end"]))


class Smoke(unittest.TestCase):
    """Every workload exits 0 with a correct, complete result line."""

    def check(self, workload, trace, names):
        proc = run_py("--workload", workload, "--seed", "3", "--seconds", "1",
                      "--trace", str(trace), "--smoke")
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr[-3000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), set(names))
        for name, m in result["metrics"].items():
            self.assertEqual(m["unit"], names[name])
            self.assertIsInstance(m["value"], (int, float))
        return result["metrics"]

    def test_untraced(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                m = self.check(workload, 0, run.END_TO_END)
                self.assertEqual(m["ok_ratio"]["value"], 1.0)
                self.assertGreater(m["run_s"]["value"], 0.0)

    def test_traced(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                m = self.check(workload, 1, run.PER_LAYER)
                self.assertGreater(m["sim.ns_per_instr"]["value"], 0.0)
                self.assertGreater(m["trace.gen_ns_per_op"]["value"], 0.0)
                # The server never degrades or refuses on the serve mix.
                self.assertEqual(m["srv.degraded"]["value"], 0)
                self.assertEqual(m["srv.refused"]["value"], 0)


class WorkRepeats(unittest.TestCase):
    """Identical work across runs and across worker counts."""

    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        assert cls.binary, "build failed"
        cls.workers = run.fixed_workers()

    def test_two_runs_do_identical_work(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                a = run_binary(self.binary, workload, self.workers)
                b = run_binary(self.binary, workload, self.workers)
                for field in run.EXACT_FIELDS:
                    self.assertEqual(a[field], b[field], field)

    def test_worker_count_changes_no_result(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                serial = run_binary(self.binary, workload, 1)
                pooled = run_binary(self.binary, workload, self.workers)
                self.assertEqual(serial["outcome"], pooled["outcome"])
                for key in ("core.walk_steps", "core.configs_on_path",
                            "srv.memo_hit_ratio"):
                    self.assertEqual(serial["counts"].get(key), pooled["counts"].get(key), key)
                if workload == "walk":
                    # A serial engine skips the walk's speculative frontier,
                    # so it simulates a subset of the pooled run's points.
                    self.assertLessEqual(serial["counts"]["exp.jobs_executed"],
                                         pooled["counts"]["exp.jobs_executed"])
                else:
                    for field in ("instructions", "configs", "digest"):
                        self.assertEqual(serial[field], pooled[field], field)
                    for key in ("sim.instructions", "exp.jobs_executed"):
                        self.assertEqual(serial["counts"][key], pooled["counts"][key], key)


class MissingSources(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            subprocess.run(["cp", "-r", HERE, os.path.join(tmp, "perfbench")], check=True)
            subprocess.run(["cp", os.path.join(ROOT, "BENCHMARK.json"), tmp], check=True)
            env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tmp, ".bench_build"))
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "walk",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=tmp, env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
