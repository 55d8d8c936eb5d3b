#!/usr/bin/env python3
"""Self-test of the simulator benchmark.

Runs every workload once at reduced size (--smoke) untraced and traced,
checks that every metric BENCHMARK.json names is printed with its unit,
that the trace file parses, and that a planted wrong reference checksum
counts as a failed simulation instead of crashing the benchmark.

    python3 simbench/test_simbench.py      # from the repository root
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run_bench(*extra):
    out = subprocess.run([sys.executable, RUN, "--seconds", "1", "--smoke",
                          *extra], capture_output=True, text=True,
                         cwd=ROOT, timeout=600)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return out.returncode, result


class SmokeTest(unittest.TestCase):
    def check_metrics(self, result, expected):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in expected})
        for m in expected:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_every_workload_untraced(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                code, res = run_bench("--workload", w["name"], "--trace", "0")
                self.assertEqual(code, 0)
                self.check_metrics(res, SPEC["end_to_end"])
                # two deterministic gate simulations + one timed one
                self.assertEqual((res["attempted"], res["failed"]), (3, 0))
                self.assertTrue(res["correct"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(res["metrics"][m["name"]]["value"], 0)

    def test_every_workload_traced_with_probes(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]), \
                    tempfile.TemporaryDirectory() as tmp:
                trace = os.path.join(tmp, "trace.json")
                code, res = run_bench("--workload", w["name"], "--trace", "1",
                                      "--trace-out", trace)
                self.assertEqual(code, 0)
                self.check_metrics(res, SPEC["per_layer"])
                self.assertTrue(res["correct"])
                # two gate simulations + one untraced/traced pair
                self.assertEqual((res["attempted"], res["failed"]), (4, 0))
                with open(trace) as f:
                    doc = json.load(f)
                names = {s["name"] for s in doc["spans"]}
                for span in ("simulation", "setup", "run", "validate",
                             "teardown", "probe.perf.execute_instructions",
                             "probe.mem.l1_hit", "probe.mem.coherence_miss",
                             "probe.stats.histogram_record",
                             "probe.stats.histogram_record_4t",
                             "probe.net.route", "probe.net.queue_enqueue",
                             "probe.host.handoff"):
                    self.assertIn(span, names)
                for s in doc["spans"]:
                    self.assertLessEqual(s["start_ns"], s["end_ns"])
                self.assertIn("ledger.residual_s", doc["ledger"])

    def test_default_seed_reproduces_fingerprint(self):
        out = subprocess.run([sys.executable, RUN, "--seconds", "1",
                              "--workload", "lu_non_cont.t16.free4",
                              "--seed", "42", "--trace", "0"],
                             capture_output=True, text=True, cwd=ROOT,
                             timeout=600)
        res = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertEqual(out.returncode, 0)
        self.assertEqual((res["attempted"], res["failed"]), (3, 0))

    def test_planted_bad_checksum_counts_as_failed(self):
        code, res = run_bench("--workload", "lu_non_cont.t16.free4",
                              "--trace", "0", "--expect-checksum", "1.5")
        self.assertEqual(code, 0)
        self.assertEqual((res["attempted"], res["failed"]), (3, 3))
        self.assertFalse(res["correct"])
        self.check_metrics(res, SPEC["end_to_end"])


if __name__ == "__main__":
    unittest.main()
