#!/usr/bin/env python3
"""Self-tests of the benchmark.

Usage, from the root of a repro checkout::

    python3 perfbench/selftest.py

Checks BENCHMARK.json's shape, runs every workload at its smallest size
(untraced, traced, and with a corrupted output), checks the traced
runs' bypass property, and that the benchmark refuses to run where
there is no program to measure.  Takes about two minutes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))

import pipeline_cold  # noqa: E402
import serve_query  # noqa: E402
from run import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
MODULES = {"pipeline-cold": pipeline_cold, "serve-query": serve_query}
#: Layers each workload must not reach.
BYPASSED = {
    "pipeline-cold": ("bgp.", "serve.", "ingest.", "http.", "index.", "encode.",
                      "telemetry.", "query.", "loadgen.", "server."),
    "serve-query": ("simulation.", "restoration.", "rir.", "lifetimes.", "core."),
}
#: Per-layer metrics that read 0 in a healthy run.
MAY_BE_ZERO = ("trace.overhead_s", "loadgen.saturated", "server.stage_s")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--size", "smoke", "--seconds", "1", *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SpecTest(unittest.TestCase):
    def test_keys_and_names(self):
        self.assertEqual(set(SPEC), {
            "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
        })
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(WORKLOADS))
        names = []
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertTrue(NAME.fullmatch(metric["name"]), metric["name"])
            self.assertTrue(UNIT.fullmatch(metric["unit"]), metric["unit"])
            self.assertIn(metric["better"], ("lower", "higher"))
            names.append(metric["name"])
        self.assertEqual(len(names), len(set(names)))

    def test_bounds(self):
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(bounds.values()))

    def test_layer_metrics_declared(self):
        declared = {m["name"] for m in SPEC["per_layer"]}
        union = set()
        for module in MODULES.values():
            self.assertLessEqual(set(module.LAYER_METRICS), declared)
            union |= set(module.LAYER_METRICS)
        self.assertEqual(union, declared)


class SmokeTest(unittest.TestCase):
    def check_run(self, workload: str, trace: int) -> dict:
        proc = bench("--workload", workload, "--trace", str(trace))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = result_of(proc)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(
            {name: m["unit"] for name, m in result["metrics"].items()},
            {m["name"]: m["unit"] for m in declared},
        )
        return {name: m["value"] for name, m in result["metrics"].items()}

    def test_end_to_end(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                values = self.check_run(workload, 0)
                self.assertTrue(all(v > 0 for v in values.values()), values)
                self.assertEqual(values["ok_share"], 1.0)

    def test_traced_bypass(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                values = self.check_run(workload, 1)
                for name, value in values.items():
                    if name.startswith(BYPASSED[workload]):
                        self.assertEqual(value, 0.0, name)
                for name in MODULES[workload].LAYER_METRICS:
                    if name not in MAY_BE_ZERO:
                        self.assertGreater(values[name], 0.0, name)
                if workload == "serve-query":
                    # the timed phase ran no pipeline stage in the server
                    self.assertEqual(values["server.stage_s"], 0.0)
                    # sanitize is most of the store build, the base
                    # re-sanitize most of the append
                    self.assertGreater(values["bgp.sanitize_s"], 0.5 * values["ingest.build_s"])
                    self.assertGreater(
                        values["bgp.append_base_s"], 0.5 * values["ingest.append_s"]
                    )

    def test_corrupted_output_fails(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = bench("--workload", workload, "--corrupt")
                self.assertEqual(proc.returncode, 1, proc.stderr)
                result = result_of(proc)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertLess(result["metrics"]["ok_share"]["value"], 1.0)
                self.assertIn("check failed", proc.stderr)


class BareDirectoryTest(unittest.TestCase):
    def test_refuses_without_program(self):
        bare = ROOT / ".perfbench_work" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            proc = bench("--workload", "pipeline-cold", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)
            try:
                bare.parent.rmdir()
            except OSError:
                pass  # a benchmark run still works there


if __name__ == "__main__":
    unittest.main()
