"""Self-test of the benchmark harness.

    python3 -m unittest discover -s perfbench

Runs every workload at tiny sizes in a fresh process, and checks that the
output checker counts a wrong allocation as an error.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

import tracing  # noqa: E402
import workloads  # noqa: E402
import fairdiv.ef1  # noqa: E402
import fairdiv.matching  # noqa: E402
from fairdiv.generators import FamilySpec, generate_adversarial  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class SmokeTest(unittest.TestCase):
    def test_every_metric_is_emitted(self):
        for workload in workloads.WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = subprocess.run(
                        [sys.executable, str(HERE / "run.py"), "--workload",
                         workload, "--seed", "7", "--seconds", "0.3",
                         "--trace", str(trace), "--tiny"],
                        capture_output=True, text=True, timeout=120)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stderr)
                    self.assertEqual(
                        {m: e["unit"] for m, e in result["metrics"].items()},
                        {m["name"]: m["unit"] for m in BENCH[key]})
                    name = f"{workload}-seed7-trace{trace}.json"
                    self.assertTrue(
                        (run.out_dir(True) / "results" / name).exists())

    def test_workloads_match_benchmark_json(self):
        self.assertEqual(set(workloads.WORKLOADS),
                         {w["name"] for w in BENCH["workloads"]})


class CheckerTest(unittest.TestCase):
    def _solve_output(self, bundles, welfare):
        out = json.dumps({"algorithm": "ef1", "branch": "abs",
                          "welfare": welfare, "allocation": bundles})
        return lambda: workloads.CliResult(0, out, "")

    def test_non_ef1_allocation_counts_as_an_error(self):
        inst = generate_adversarial(FamilySpec(family="ef1-unscaled", n=3))
        check = workloads.check_solve(inst, 2)
        requests = [
            workloads.Request("one-good-each",
                              self._solve_output([[1], [2], [3]], "11/3"),
                              check),
            workloads.Request("all-to-agent-1",
                              self._solve_output([[1, 2, 3], [], []], "9"),
                              check),
        ]
        sample = run.measure(lambda i: (0, requests, False), 0)
        self.assertEqual((sample.attempted, sample.failed), (2, 1))
        self.assertIn("all-to-agent-1", sample.errors[0])
        self.assertIn("not EF1", sample.errors[0])

    def test_unexpected_exit_code_counts_as_an_error(self):
        check = workloads.check_verdict(True)
        with self.assertRaises(workloads.Wrong):
            check(workloads.CliResult(1, '{"holds": false}', ""))
        check(workloads.CliResult(0, '{"holds": true}', ""))


class HarnessTest(unittest.TestCase):
    def test_tail_percentile_leaves_ten_samples_beyond(self):
        self.assertEqual(run.tail_percentile(12), 50.0)
        self.assertEqual(run.tail_percentile(40), 75.0)
        self.assertEqual(run.tail_percentile(100), 90.0)
        self.assertEqual(run.tail_percentile(1000), 99.0)

    def test_measure_makes_the_fewest_passes_past_the_time(self):
        request = workloads.Request("noop", lambda: 1, lambda out: None)
        sample = run.measure(lambda i: (i % 2, [request], False), 0,
                             min_passes=3)
        self.assertEqual(sample.sets, [0, 1, 0])

    def test_measure_ends_on_a_whole_block(self):
        request = workloads.Request("noop", lambda: 1, lambda out: None)
        sample = run.measure(lambda i: (i // 2, [request], False), 0,
                             min_passes=3, block=2)
        self.assertEqual(sample.sets, [0, 0, 1, 1])

    def test_a_request_is_timed_by_its_fastest_third(self):
        self.assertEqual(run.fastest_third([5.0, 2.0]), 2.0)
        self.assertEqual(run.fastest_third([9.0, 1.0, 3.0, 2.0, 8.0, 7.0]),
                         1.5)
        sample = run.Sample(passes=[[10.0, 3.0], [20.0, 1.0]], sets=[0, 0])
        metrics, facts = run.end_to_end(sample, 2, [0.5])
        self.assertEqual(facts["samples"], 2)
        self.assertEqual(metrics["latency_p50_ms"], 5500.0)

    def test_sweep_s_weighs_every_input_set_alike(self):
        sample = run.Sample(passes=[[1.0], [1.0], [4.0]], sets=[0, 0, 1])
        metrics, facts = run.end_to_end(sample, 1, [0.5])
        self.assertEqual(metrics["sweep_s"], 2.5)
        self.assertEqual(facts["input_sets"], 2)

    def test_a_changed_output_is_checked_again(self):
        checked = []
        request = workloads.Request("r", None, checked.append)
        for out in (1, 1, 2):
            request.verify(out)
        self.assertEqual(checked, [1, 2])

    def test_uninstall_restores_every_binding(self):
        original = fairdiv.matching.max_weight_left_perfect_matching
        tracer = tracing.Tracer()
        tracer.install()
        self.assertIsNot(fairdiv.ef1.max_weight_left_perfect_matching,
                         original)
        tracer.uninstall()
        self.assertIs(fairdiv.ef1.max_weight_left_perfect_matching, original)
        self.assertIs(fairdiv.matching.max_weight_left_perfect_matching,
                      original)

    def test_compare_flags_a_regression_beyond_the_bound(self):
        def write(directory, latency):
            for seed in range(3):
                result = {"workload": "pof-sweep", "metrics": {
                    "latency_p50_ms": {"value": latency + seed,
                                       "unit": "ms"}}}
                (directory / f"r{seed}.json").write_text(
                    json.dumps(result))

        run.OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp, \
                contextlib.redirect_stdout(io.StringIO()):
            old, same, slow = (Path(tmp, name) for name in ("o", "s", "n"))
            for directory, latency in ((old, 100), (same, 100), (slow, 200)):
                directory.mkdir()
                write(directory, latency)
            self.assertEqual(run.compare(old, same), 0)
            self.assertEqual(run.compare(old, slow), 1)


if __name__ == "__main__":
    unittest.main()
