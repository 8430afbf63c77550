#!/usr/bin/env python3
"""Self-test of the benchmark: every workload in small mode, in seconds.

Usage (from the repository root):

    python3 perfbench/test_perfbench.py

Runs each workload (fleet_checkpointed included) through run.py with
--small, untraced and traced, and asserts that every correctness check
passed, that every metric of BENCHMARK.json is reported, and that each
workload exercised the layers it exists for. It also checks that run.py
fails without printing a result in a directory holding only
BENCHMARK.json and perfbench/.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# Per-layer metrics each workload must move off zero.
EXERCISED = {
    "paper_serial": ["core.suggest_ms", "core.acquisition_ms", "gp.fit_ms",
                     "gp.refits", "gp.extends", "rf.feasibility_fit_ms",
                     "suite.evaluate_us", "api.study_build_ms",
                     "exec.checkpoint_write_us", "serve.wire_codec_us"],
    "tenants_baco": ["core.suggest_ms", "gp.fit_ms", "serve.rpc_suggest_ms",
                     "serve.rpc_observe_ms", "serve.session_suggest_ms",
                     "serve.session_observe_ms", "serve.spills",
                     "serve.reloads", "serve.reload_ms", "suite.evaluate_us",
                     "exec.checkpoint_write_us", "serve.wire_codec_us"],
    "fleet_uniform": ["core.suggest_ms", "serve.coord_roundtrip_us",
                      "serve.coord_dispatched", "serve.wire_codec_us",
                      "api.study_build_ms", "suite.evaluate_us"],
    "fleet_checkpointed": ["serve.coord_roundtrip_us",
                           "serve.coord_dispatched", "api.study_build_ms",
                           "exec.checkpoint_write_us", "exec.checkpoint_kb"],
}


def run(workload, trace, seed=5, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--small"],
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=900)


class SmallModeTest(unittest.TestCase):
    def check(self, workload):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(workload, trace)
            self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertEqual(set(res), {"correct", "attempted", "failed",
                                        "metrics"})
            self.assertTrue(res["correct"], proc.stderr[-2000:])
            self.assertEqual(res["failed"], 0)
            self.assertGreater(res["attempted"], 0)
            names = [m["name"] for m in SPEC[key]]
            self.assertEqual(sorted(res["metrics"]), sorted(names))
            for m in SPEC[key]:
                self.assertEqual(res["metrics"][m["name"]]["unit"], m["unit"])
            if trace == 0:
                for name, v in res["metrics"].items():
                    self.assertGreater(v["value"], 0, name)
            else:
                for name in EXERCISED[workload]:
                    self.assertGreater(res["metrics"][name]["value"], 0, name)

    def test_paper_serial(self):
        self.check("paper_serial")

    def test_tenants_baco(self):
        self.check("tenants_baco")

    def test_fleet_uniform(self):
        self.check("fleet_uniform")

    def test_fleet_checkpointed(self):
        self.check("fleet_checkpointed")

    def test_fails_without_sources(self):
        base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        if not os.path.isabs(base):
            base = os.path.join(ROOT, base)
        lonely = os.path.join(base, "perfbench-selftest", "lonely")
        shutil.rmtree(lonely, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(lonely, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lonely)
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        try:
            proc = run("paper_serial", 0, cwd=lonely, env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(lonely, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
