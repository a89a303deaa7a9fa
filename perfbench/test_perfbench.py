#!/usr/bin/env python3
"""Tests for the benchmark itself (not for flexnets).

    python3 perfbench/test_perfbench.py

Builds the harness on first use (like run.py) and runs every workload for
its minimum of three iterations, so the whole file takes about two minutes.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SHORT = 0.01  # seconds: every run still makes its minimum iterations


def harness(workload, seed, trace=False):
    result = run.run_harness(workload, seed, SHORT, trace)
    assert result is not None, "harness failed for %s seed %d" % (workload, seed)
    return result


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        assert run.build(), "perfbench build failed"
        cls.expected = run.load_expected()
        cls.seed1 = {w: harness(w, 1) for w in run.WORKLOADS}

    def test_recorded_outputs_match(self):
        for w, result in self.seed1.items():
            self.assertEqual(run.check(result, self.expected), [], w)
            self.assertEqual(result["failed"], 0, w)

    def test_corrupted_record_fires(self):
        for w, result in self.seed1.items():
            for key in self.expected[w]["1"]:
                bad = copy.deepcopy(self.expected)
                value = bad[w]["1"][key]
                if isinstance(value, list):  # GK points: flip one lambda
                    value[-1]["lambda"] = value[-1]["lambda"] * (1 + 1e-15)
                elif isinstance(value, str):
                    bad[w]["1"][key] = value[:-1] + ("0" if value[-1] != "0" else "1")
                else:
                    bad[w]["1"][key] = value + 1
                problems = run.check(result, bad)
                self.assertTrue(problems, "%s: corrupting %s went unnoticed" % (w, key))

    def test_failed_check_fails_every_operation(self):
        result = copy.deepcopy(self.seed1["xpander_hyb"])
        result["checks"]["post_repair_blackholes_zero"] = False
        self.assertEqual(run.check(result, self.expected),
                         ["post_repair_blackholes_zero"])

    def test_second_seed_changes_inputs_and_passes_checks(self):
        for w, first in self.seed1.items():
            second = harness(w, 2)
            self.assertNotEqual(first["manifest"]["input_digest"],
                                second["manifest"]["input_digest"], w)
            self.assertNotEqual(first["outputs"], second["outputs"], w)
            self.assertTrue(all(second["checks"].values()), (w, second["checks"]))
            self.assertEqual(second["failed"], 0, w)
            # An unrecorded seed is judged by the seed-independent checks only.
            self.assertEqual(run.check(second, {}), [], w)

    def test_traced_counts_repeat_and_cover_every_metric(self):
        with open(run.SPEC) as f:
            specs = json.load(f)["per_layer"]
        for w in ("xpander_hyb", "fattree_gray", "jellyfish_gk"):
            a = harness(w, 1, trace=True)
            b = harness(w, 1, trace=True)
            self.assertTrue(a["counts_repeat"], w)
            counts_a = dict(a["layer_counts"])
            counts_b = dict(b["layer_counts"])
            # A ratio of two wall times, not an exact count.
            counts_a.pop("pdes.cpu_per_wall", None)
            counts_b.pop("pdes.cpu_per_wall", None)
            self.assertEqual(counts_a, counts_b, w)
            self.assertEqual(run.check(a, self.expected), [], w)
            metrics = run.with_units(run.per_layer(a), specs)
            self.assertEqual(len(metrics), len(specs), w)
            self.assertTrue(all(isinstance(m["value"], (int, float))
                                for m in metrics.values()), w)

    def test_span_self_time(self):
        harness("xpander_hyb", 1, trace=True)
        path = os.path.join(run.ROOT, ".bench_build", "traces", "xpander_hyb-1.jsonl")
        with open(path) as f:
            spans = [json.loads(line) for line in f]
        children = {}
        for s in spans:
            children.setdefault(s["parent"], []).append(s)
        for s in spans:
            covered = sum(c["end_ns"] - c["start_ns"] for c in children.get(s["id"], []))
            self.assertEqual(s["self_ns"], s["end_ns"] - s["start_ns"] - covered)
            self.assertGreaterEqual(s["self_ns"], 0)
        self.assertTrue({"sim.run", "pdes.run", "routing.ecmp_build"} <=
                        {s["name"] for s in spans})

    def test_exits_nonzero_without_sources(self):
        scratch = os.path.join(run.ROOT, ".bench_build", "tmp")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(run.SPEC, tmp)
            shutil.copytree(run.BENCH_DIR, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "xpander_hyb",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=170)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
