"""Self-test of the benchmark harness at tiny size.

Run from the repository root (takes about ten seconds):

    python3 perfbench/selftest.py

It checks that every metric named in BENCHMARK.json is reported, with
its unit, for every workload, traced and untraced; that wrong answers
(a wrong recorded digest, a wrong expected instance count) count as
failed operations; and that the benchmark refuses to run without the
package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest

import run
from workloads import FIRST_RULE_STRATA, SWEEP_SUITES

sys.path.insert(0, str(run.SRC))

# Same suites as the sweep workloads, at bounds that take well under a
# second, with their checked counts.
TINY_SUITES = {
    "sweep_warm": (("dimensions-first", 3, 3, 51),
                   ("dimensions-second", 3, 3, 51),
                   ("labelling-equivalence", 3, 2, 19)),
    "oracle_sweep": (("lr-oracle", 1, 3, 43), ("cosets", 1, 3, 29),
                     ("stabilizers", 1, 3, 29), ("length-lemma", 1, 3, 7)),
}


def tiny_run(workload, trace, digests=None, suites=None):
    lines = []
    result = run.run(workload, seed=0, seconds=0, trace=trace,
                     digests=digests, batch=2, setup_samples=1,
                     suites=suites or TINY_SUITES.get(workload),
                     trace_per_stratum=1, emit=lines.append)
    return result, lines


class MetricsReported(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        contract = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(set(contract["paths"]), {"perfbench"})
        self.assertEqual({w["name"] for w in contract["workloads"]},
                         set(FIRST_RULE_STRATA) | set(SWEEP_SUITES))
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in contract[key]}
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    result, lines = tiny_run(workload, trace)
                    self.assertTrue(result["correct"], lines)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {name: m["unit"]
                           for name, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, m in result["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)
                    printed = " ".join(lines)
                    for name in want:
                        self.assertIn(name, printed)
                    json.dumps(result)


class FailuresCounted(unittest.TestCase):
    def test_wrong_digest_is_a_failed_request(self):
        inputs = json.loads((run.HERE / "inputs.json").read_text())
        wrong = {key: "0" * 64 for key in inputs["digests"]}
        result, lines = tiny_run("first_rule_wide", 0, digests=wrong)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        error_rate = next(line for line in lines if "error_rate" in line)
        self.assertGreater(float(error_rate.split()[1]), 0)
        self.assertIn("recorded digest", " ".join(lines))

    def test_wrong_checked_count_is_a_failed_suite(self):
        suites = (("length-lemma", 1, 3, 8),)
        result, _ = tiny_run("oracle_sweep", 0, suites=suites)
        self.assertEqual(result["failed"], 1)


class RefusesWithoutSources(unittest.TestCase):
    def test_bare_directory_exits_nonzero_without_result(self):
        bare = run.ROOT / ".perfbench" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "first_rule_deep", "--seed", "0", "--seconds", "1",
                 "--trace", "0"], cwd=bare, capture_output=True, text=True,
                timeout=60)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
