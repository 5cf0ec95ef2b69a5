#!/usr/bin/env python3
"""Smoke test of the benchmark: tiny inputs, every workload, both modes.

Run from the root of a checkout: python3 repobench/test_smoke.py
Checks that each run passes its output checks and prints every metric of
BENCHMARK.json by name with its unit, every timing with its percentile
sample count, and that the benchmark refuses to run without the sources.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# End-to-end metrics that are timings: the report gives their sample count.
TIMINGS = ("time_to_result_s", "setup_s", "score_s", "packets_per_s",
           "scenarios_per_s", "job_p50_ms", "job_p95_ms")


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "repobench", "run.py")]
                          + list(args), cwd=cwd, capture_output=True, text=True,
                          timeout=900)


class Smoke(unittest.TestCase):
    def check_run(self, workload, trace):
        proc = bench("--workload", workload, "--seed", str(run.DEFAULT_SEED),
                     "--seconds", "1", "--trace", str(trace), "--smoke")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        self.assertIn("failed_ratio 0 ", proc.stdout)
        wanted = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in wanted])
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            line = next(l for l in lines if l.startswith(m["name"] + " "))
            self.assertTrue(line.split()[2] == m["unit"], line)
            if not trace and m["name"] in TIMINGS:
                self.assertRegex(line, r"\(p50 of n=\d+; (p[\d.]+ \S+ with \d+ beyond"
                                       r"|no percentile has 10 samples beyond)\)")
        if not trace:
            for m in wanted:
                self.assertGreater(result["metrics"][m["name"]]["value"], 0, m["name"])

    def test_paper_sweep(self):
        self.check_run("paper_sweep", 0)
        self.check_run("paper_sweep", 1)

    def test_field_rcad(self):
        self.check_run("field_rcad", 0)
        self.check_run("field_rcad", 1)

    def test_longrun_leakage(self):
        self.check_run("longrun_leakage", 0)
        self.check_run("longrun_leakage", 1)

    def test_refuses_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "repobench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc = bench("--workload", "paper_sweep", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertFalse(re.search(r'"correct"', proc.stdout))
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
