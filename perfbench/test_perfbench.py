#!/usr/bin/env python3
"""Self-test of the repo benchmark (a few minutes on 4 cores):

    python3 perfbench/test_perfbench.py

Runs every workload twice untraced and once traced through run.py, with
the shortest run length, and checks the output contract: metric names,
every declared metric emitted, sim-time metrics and fingerprints repeating
exactly, the traced run reproducing the untraced one, and a tampered
fingerprint reported as a failed run.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("static-stream", "group-steady", "shards-churn-wire")
# Simulated-time results: a pure function of the seed.
SIM_METRICS = ("delivery_ratio", "latency_mean_ms", "latency_p99_ms",
               "msgs_per_proc_s")
NAME = re.compile(r"[A-Za-z0-9_.-]+")
SEED = 5

_runs = {}


def run(workload, trace, tag="", extra=()):
    """run.py's (facts, result) for one invocation, cached by tag."""
    key = (workload, trace, tag)
    if key not in _runs:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
               *extra]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=400, check=False)
        if proc.returncode != 0:
            raise AssertionError(f"{cmd} exited {proc.returncode}:\n"
                                 f"{proc.stderr[-2000:]}")
        lines = proc.stdout.strip().splitlines()
        _runs[key] = (json.loads(lines[-2]), json.loads(lines[-1]))
    return _runs[key]


def declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec, {m["name"] for m in spec["end_to_end"]}, \
        {m["name"] for m in spec["per_layer"]}


class PerfbenchSelfTest(unittest.TestCase):
    def test_declared_names_are_well_formed(self):
        spec, e2e, layer = declared()
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(WORKLOADS))
        for name in e2e | layer:
            self.assertTrue(NAME.fullmatch(name), name)

    def test_every_declared_metric_is_emitted(self):
        _, e2e, layer = declared()
        for w in WORKLOADS:
            for trace, names in ((0, e2e), (1, layer)):
                facts, result = run(w, trace)
                self.assertTrue(result["correct"], (w, trace, facts))
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(set(result["metrics"]), names, (w, trace))
                for name, m in result["metrics"].items():
                    self.assertTrue(NAME.fullmatch(name), name)
                    self.assertIsInstance(m["value"], (int, float))
                    self.assertTrue(m["unit"])

    def test_sim_time_metrics_repeat_exactly(self):
        for w in WORKLOADS:
            facts_a, a = run(w, 0)
            facts_b, b = run(w, 0, tag="again")
            self.assertEqual(facts_a["fingerprint"], facts_b["fingerprint"])
            self.assertEqual(facts_a["sim_events"], facts_b["sim_events"])
            for name in SIM_METRICS:
                self.assertEqual(a["metrics"][name]["value"],
                                 b["metrics"][name]["value"], (w, name))

    def test_traced_run_only_observes(self):
        for w in WORKLOADS:
            untraced, _ = run(w, 0)
            traced, result = run(w, 1)
            self.assertEqual(traced["checks_failed"], [])
            self.assertEqual(traced["fingerprint"], untraced["fingerprint"])
            self.assertEqual(traced["sim_events"], untraced["sim_events"])
            self.assertEqual(result["metrics"]["sim.events"]["value"],
                             untraced["sim_events"])

    def test_tampered_fingerprint_fails_the_run(self):
        for trace in (0, 1):
            facts, result = run("group-steady", trace, tag="tamper",
                                extra=("--tamper",))
            self.assertFalse(result["correct"])
            self.assertEqual(result["failed"], result["attempted"])
            self.assertTrue(any("fingerprint" in c
                                for c in facts["checks_failed"]), facts)


if __name__ == "__main__":
    unittest.main(verbosity=2)
