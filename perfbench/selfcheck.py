"""Tests of the benchmark itself (kept out of the package's pytest suite).

    python3 perfbench/selfcheck.py
"""

import copy
import json
import shutil
import subprocess
import sys
import tempfile
import unittest

import bootstrap

bootstrap.prepare()  # pins BLAS threads, so it runs before numpy loads

import numpy as np

import reference
import tracer
from workloads import make_workloads

RUN = [sys.executable, str(bootstrap.ROOT / "perfbench" / "run.py")]
SPEC = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())


def traced_ops(workload, seed, n_ops):
    spans = tracer.Tracer()
    spans.install()
    try:
        for k in range(n_ops):
            inp = workload.inputs(seed, k)
            try:
                if not workload.check(inp, spans.run_op(k, workload.run, inp)):
                    raise AssertionError(f"{workload.name} op {k} failed its check")
            finally:
                workload.cleanup(inp)
    finally:
        spans.uninstall()
    return spans


def run_bench(*args):
    return subprocess.run(RUN + list(args), cwd=bootstrap.ROOT,
                          capture_output=True, text=True, timeout=170)


class BenchmarkSelfCheck(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        bootstrap.WORK.mkdir(exist_ok=True)
        cls.tmp = tempfile.mkdtemp(dir=bootstrap.WORK)
        cls.workloads = make_workloads(cls.tmp)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def inputs(self, workload, seed, k):
        inp = workload.inputs(seed, k)
        workload.cleanup(inp)
        inp.pop("output_dir", None)  # a fresh directory per op, by design
        return {key: np.asarray(v).tolist() for key, v in inp.items()}

    def test_same_seed_gives_same_inputs(self):
        for name, w in self.workloads.items():
            with self.subTest(workload=name):
                first = [self.inputs(w, 5, k) for k in range(3)]
                self.assertEqual(first, [self.inputs(w, 5, k) for k in range(3)])
                self.assertNotEqual(first, [self.inputs(w, 6, k) for k in range(3)])

    def test_same_seed_gives_same_calls_per_op(self):
        for name, w in self.workloads.items():
            with self.subTest(workload=name):
                runs = [traced_ops(w, 5, 2).layer_metrics(1.0, 1.0) for _ in range(2)]
                counts = [{k: m["value"] for k, m in r.items()
                           if k.endswith(("calls_per_op", "errors", "newton_ratio",
                                          "bytes_per_op"))} for r in runs]
                self.assertEqual(counts[0], counts[1])
                self.assertGreater(sum(counts[0].values()), 0)

    def test_self_times_sum_to_op_time(self):
        spans = traced_ops(self.workloads["identify"], 5, 2)
        cols = spans.arrays()
        _, self_s = spans.self_times()
        per_op = np.bincount(cols["op"], weights=self_s)
        np.testing.assert_allclose(per_op, spans.op_times(), rtol=1e-9)

    def test_reference_matches_this_tree(self):
        self.assertEqual(reference.check(reference.COMPUTE), [])

    def test_reference_check_catches_a_perturbed_value(self):
        ref = reference.load()
        bad = copy.deepcopy(ref)
        bad["values"]["reach_grid"][40] *= 1 + 1e-6
        found = reference.check(["reach_grid"], bad)
        self.assertEqual(len(found), 1)
        self.assertIn("reach_grid[40]", found[0])
        bad = copy.deepcopy(ref)
        bad["values"]["identification"]["B/order3"]["mse"] *= 1 + 1e-6
        self.assertEqual(len(reference.check(["identification"], bad)), 1)

    def test_one_command_prints_every_metric_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            with self.subTest(trace=trace):
                done = run_bench("--workload", "reach", "--seed", "3",
                                 "--seconds", "1", "--trace", str(trace))
                self.assertEqual(done.returncode, 0, done.stderr)
                lines = done.stdout.strip().splitlines()
                result = json.loads(lines[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed",
                                               "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                want = {m["name"]: m["unit"] for m in SPEC[key]}
                got = {k: m["unit"] for k, m in result["metrics"].items()}
                self.assertEqual(got, want)
                for name, unit in want.items():
                    self.assertTrue(any(line.startswith(f"{name}: ")
                                        and line.endswith(f" {unit}")
                                        for line in lines), name)

    def test_spec_names_match_the_code(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(self.workloads))
        self.assertEqual([m["name"] for m in SPEC["per_layer"]],
                         tracer.layer_metric_names())

    def test_fails_without_the_package(self):
        with tempfile.TemporaryDirectory(dir=bootstrap.WORK) as bare:
            shutil.copy(bootstrap.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(bootstrap.ROOT / "perfbench", f"{bare}/perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "reach",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=170)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn("metrics", done.stdout)


if __name__ == "__main__":
    unittest.main()
