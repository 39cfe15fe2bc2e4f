#!/usr/bin/env python3
"""Self-tests of the benchmark.

    python3 perfbench/selftest.py          # fast checks, no build needed
    python3 perfbench/selftest.py --runs   # also builds and runs workloads

Checks that BENCHMARK.json keeps to its format rules, that the metric
names a run prints are exactly BENCHMARK.json's, that --seed reaches the
input generator and the program receives only generated inputs, and that
a percentile is reported only with at least ten samples beyond it.
"""

import json
import os
import re
import subprocess
import sys
import unittest

import benchlib

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RUNS = "--runs" in sys.argv


def run_benchmark(workload, seed, seconds, trace):
    """Runs run.py; returns its exit code, result line and the input count
    and digest from its report."""
    proc = subprocess.run(
        [sys.executable, str(benchlib.BENCH_DIR / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], capture_output=True, text=True, cwd=benchlib.ROOT,
        timeout=600)
    lines = proc.stdout.strip().splitlines()
    inputs = re.search(r"^inputs: (\d+) generated, digest (\w+)$",
                       proc.stdout, re.M)
    return (proc.returncode, json.loads(lines[-1]), int(inputs.group(1)),
            inputs.group(2))


def dump(workload, seed, count=8):
    proc = subprocess.run(
        [str(benchlib.BINARY), "--workload", workload, "--seed", str(seed),
         "--dump-inputs", "--dump-count", str(count)],
        capture_output=True, text=True, check=True,
        env=benchlib.pinned_env(os.environ))
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Format(unittest.TestCase):
    def setUp(self):
        self.bench = benchlib.load_benchmark()

    def test_keys_and_limits(self):
        b = self.bench
        self.assertEqual(set(b), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        self.assertTrue(1 <= len(b["paths"]) <= 16)
        for p in b["paths"]:
            self.assertRegex(p, r"^[A-Za-z0-9_./-]{1,200}$")
            self.assertTrue((benchlib.ROOT / p).is_dir())
        self.assertTrue(len(b["command"]) <= 32)
        for arg in b["command"]:
            self.assertFalse(arg.startswith("/") or ".." in arg)
        self.assertIsInstance(b["run_seconds"], int)
        self.assertTrue(1 <= b["run_seconds"] <= 60)
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        self.assertTrue(1 <= len(b["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(b["per_layer"]) <= 128)
        names = []
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(len(w["why"]) <= 200 and "\n" not in w["why"])
            names.append(w["name"])
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
            names.append(m["name"])
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)))
        self.assertLessEqual(len(json.dumps(b)), 64 * 1024)

    def test_setup_has_the_largest_bound(self):
        e2e = {m["name"]: m for m in self.bench["end_to_end"]}
        setup = e2e["setup_s"]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in e2e.values()))

    def test_end_to_end_names_match(self):
        raw = {"work": 10.0, "timed_s": 2.0, "op_ms": [1.0, 2.0, 3.0],
               "setup_s": [1.0], "bytes_per_session": [5.0],
               "peak_rss_mb": 7.0}
        computed = benchlib.end_to_end(raw)
        self.assertEqual(set(computed),
                         {m["name"] for m in self.bench["end_to_end"]})
        selected = benchlib.select(computed, self.bench["end_to_end"])
        self.assertEqual(list(selected),
                         [m["name"] for m in self.bench["end_to_end"]])

    def test_select_refuses_missing_or_empty(self):
        specs = [{"name": "a", "unit": "s"}]
        with self.assertRaises(KeyError):
            benchlib.select({}, specs)
        with self.assertRaises(ValueError):
            benchlib.select({"a": None}, specs)

    def test_layer_doc_covers_every_per_layer_metric(self):
        doc = benchlib.load_layers()
        for m in self.bench["per_layer"]:
            self.assertIn(m["name"], doc["per_layer"])
        self.assertEqual(set(doc["workloads"]),
                         {w["name"] for w in self.bench["workloads"]})

    def test_environment_is_pinned(self):
        env = benchlib.pinned_env({"PSA_SIMD": "scalar", "PSA_OBS_OUT": "x",
                                   "PSA_THREADS": "1", "HOME": "/h"})
        self.assertEqual(env["PSA_THREADS"], str(benchlib.nproc()))
        for name in benchlib.PINNED_UNSET:
            self.assertNotIn(name, env)
        self.assertEqual(env["HOME"], "/h")


class Percentiles(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(benchlib.percentile(list(range(99)), 0.9))
        self.assertEqual(benchlib.percentile(list(range(100)), 0.9), 89)
        self.assertIsNone(benchlib.percentile([], 0.5))
        self.assertEqual(benchlib.percentile(list(range(21)), 0.5), 10)

    def test_short_run_is_flagged(self):
        short = {"op_ms": [1.0] * 50}
        long = {"op_ms": [1.0] * 200}
        self.assertTrue(benchlib.too_short("scan_serve", short))
        self.assertFalse(benchlib.too_short("scan_serve", long))
        self.assertFalse(benchlib.too_short("fleet_enroll", short))

    def test_report_shows_na_without_enough_samples(self):
        raw = {"attempted": 3, "failed": 0, "work_unit": "requests",
               "op_ms": [1.0] * 50, "simulated": {}}
        e2e = {"setup_s": 1.0, "throughput_per_s": 2.0, "latency_ms_p50": 1.0,
               "bytes_per_session": 1.0, "peak_rss_mb": 1.0}
        rows = dict((n, v) for n, v, _ in
                    benchlib.named_metrics("scan_serve", raw, e2e))
        self.assertIsNone(rows["scan_ms_p90"])


@unittest.skipUnless(RUNS, "pass --runs to build and run the workloads")
class Runs(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        benchlib.build()
        cls.bench = benchlib.load_benchmark()

    def test_seed_reaches_the_generator(self):
        for w in (w["name"] for w in self.bench["workloads"]):
            a, b, c = dump(w, 1), dump(w, 1), dump(w, 2)
            self.assertEqual(a, b, w)
            self.assertNotEqual(a["digest"], c["digest"], w)

    def test_untraced_run_prints_listed_names_and_generated_inputs(self):
        code, line, count, digest = run_benchmark("scan_serve", 5, 8, 0)
        self.assertEqual(code, 0)
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(list(line["metrics"]),
                         [m["name"] for m in self.bench["end_to_end"]])
        self.assertEqual(digest, dump("scan_serve", 5, count)["digest"])

    def test_traced_run_prints_every_layer_metric(self):
        code, line, _, digest = run_benchmark("fleet_enroll", 5, 1, 1)
        self.assertEqual(code, 0)
        self.assertEqual(list(line["metrics"]),
                         [m["name"] for m in self.bench["per_layer"]])
        self.assertEqual(digest, dump("fleet_enroll", 5)["digest"])


if __name__ == "__main__":
    argv = [a for a in sys.argv if a != "--runs"]
    unittest.main(argv=argv, verbosity=2)
