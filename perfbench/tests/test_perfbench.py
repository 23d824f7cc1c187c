#!/usr/bin/env python3
"""The benchmark's own tests.

Builds the driver and the C++ unit tests (tail-percentile selection,
span self-time arithmetic, metric registry), runs the unit tests, then
checks the driver end to end: every metric of BENCHMARK.json is printed
with its unit, a seconds-long run of each workload verifies its outputs,
a corrupted output makes the check fail, per-layer counts repeat exactly
at the same seed, advise_mix reaches hits, misses, LRU evictions, memo
warm starts and drift invalidations, and the thread guard refuses too few
CPUs.

  python3 perfbench/tests/test_perfbench.py     (or: perfbench/run.py --test)
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.dont_write_bytecode = True
sys.path.insert(0, BENCH_DIR)
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
# Counters of the traced run that must repeat exactly at the same seed.
COUNT_UNITS = {"count"}


def drive(workload, trace, seconds=1, seed=3, extra=(), prefix=()):
    cmd = list(prefix) + [run.driver_path(), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds),
                          "--trace", str(trace)] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith(
        "{\"correct\"") else None
    return proc.returncode, result


class UnitTests(unittest.TestCase):
    def test_cpp_unit_tests(self):
        binary = os.path.join(run.build_dir(), "perfbench_tests")
        self.assertTrue(os.path.exists(binary), "GTest not available")
        self.assertEqual(subprocess.run([binary]).returncode, 0)


class DriverTests(unittest.TestCase):
    def test_registry_matches_benchmark_json(self):
        out = subprocess.run([run.driver_path(), "--list-metrics"],
                             stdout=subprocess.PIPE, text=True, check=True)
        registry = [json.loads(l) for l in out.stdout.splitlines()]
        e2e = {m["name"]: m["unit"] for m in registry if m["end_to_end"]}
        layer = {m["name"]: m["unit"] for m in registry if not m["end_to_end"]}
        self.assertEqual(e2e, {m["name"]: m["unit"]
                               for m in BENCH["end_to_end"]})
        self.assertEqual(layer, {m["name"]: m["unit"]
                                 for m in BENCH["per_layer"]})

    def check_result(self, result, trace):
        self.assertIsNotNone(result)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in expected})
        for m in expected:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])

    def test_smoke_each_workload_verified(self):
        for w in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=w, trace=trace):
                    code, result = drive(w, trace)
                    self.assertEqual(code, 0)
                    self.check_result(result, trace)
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    if not trace:
                        self.assertEqual(result["metrics"]["ok_frac"]["value"],
                                         1.0)
                        for m in BENCH["end_to_end"]:
                            self.assertNotEqual(
                                result["metrics"][m["name"]]["value"], 0,
                                m["name"])

    def test_corrupted_output_fails_the_check(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, result = drive(w, 0, extra=["--corrupt-check"])
                self.assertNotEqual(code, 0)
                self.check_result(result, 0)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertLess(result["metrics"]["ok_frac"]["value"], 1.0)

    def test_per_layer_counts_repeat_at_same_seed(self):
        counts = [m["name"] for m in BENCH["per_layer"]
                  if m["unit"] in COUNT_UNITS]
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, a = drive(w, 1, seed=5)
                _, b = drive(w, 1, seed=5)
                for name in counts:
                    self.assertEqual(a["metrics"][name]["value"],
                                     b["metrics"][name]["value"], name)

    def test_advise_mix_exercises_every_cache_path(self):
        _, result = drive("advise_mix", 1)
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        for name in ("api.evictions", "api.memo_warm_starts",
                     "api.drift_invalidations", "api.advise_miss_us"):
            self.assertGreater(metrics[name], 0, name)
        self.assertGreater(metrics["api.hit_rate"], 0.8)
        self.assertLess(metrics["api.hit_rate"], 1.0)

    def test_single_threaded_workloads_use_one_cpu(self):
        for w in ("advise_mix", "replay_grid"):
            with self.subTest(workload=w):
                _, result = drive(w, 1)
                self.assertLess(result["metrics"]["proc.cpu_util"]["value"],
                                1.05)

    @unittest.skipUnless(shutil.which("taskset"), "taskset not installed")
    def test_thread_guard_refuses_more_threads_than_cpus(self):
        code, result = drive("validate_tpch", 0,
                             prefix=["taskset", "-c", "0"])
        self.assertEqual(code, 2)
        self.assertIsNone(result)


if __name__ == "__main__":
    if not run.build(["perfbench_driver", "perfbench_tests"]):
        sys.exit("perfbench: build failed")
    unittest.main()
