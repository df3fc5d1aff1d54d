"""Tests of the benchmark itself.

    python3 perfbench/selftest.py

Smoke runs use ``--smoke`` (the A2 and A3 quivers only) so the whole file
takes seconds.  The file is not named ``test_*.py`` on purpose: the
repository's own test command collects from the root and should not start
benchmark processes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import qhammock  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeRun(unittest.TestCase):
    def test_every_metric_is_emitted_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            for w in SPEC["workloads"]:
                with self.subTest(workload=w["name"], trace=trace):
                    proc = bench("--workload", w["name"], "--seed", "7", "--seconds", "0",
                                 "--trace", str(trace), "--smoke")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    out = result(proc)
                    self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(out["correct"])
                    self.assertEqual(out["failed"], 0)
                    self.assertGreaterEqual(out["attempted"], 1)
                    got = {n: m["unit"] for n, m in out["metrics"].items()}
                    self.assertEqual(got, want)
                    for name in list(want) + ["fail_frac"]:
                        self.assertIn(f"  {name} ", proc.stdout)

    def test_traced_counts_match_the_workload(self):
        roundtrip = result(bench("--workload", "roundtrip", "--seconds", "0", "--trace", "1", "--smoke"))
        m = {n: v["value"] for n, v in roundtrip["metrics"].items()}
        self.assertEqual(m["cluster.calls"], 0)
        self.assertEqual(m["complexes.builds"], 0)
        self.assertGreater(m["objects.tensor_calls"], 0)
        sweep = result(bench("--workload", "sweep3", "--seconds", "0", "--trace", "1", "--smoke"))
        m = {n: v["value"] for n, v in sweep["metrics"].items()}
        self.assertGreater(m["cluster.mutations"], 0)
        self.assertGreater(m["cluster.seeds"], 0)

    def test_refuses_to_run_without_the_library(self):
        bare = HERE / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            (bare / "perfbench").mkdir(parents=True)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for f in HERE.glob("*.py"):
                shutil.copy(f, bare / "perfbench")
            shutil.copy(HERE / "expected.json", bare / "perfbench")
            proc = bench("--workload", "sweep3", "--seconds", "0", "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


class InjectedFault(unittest.TestCase):
    def test_wrong_answer_and_error_are_counted_not_fatal(self):
        inputs = workloads.make_inputs("sweep3", 7, smoke=True)
        q, roots = inputs[-1]
        wrong, broken = roots[0], roots[-1]
        real = qhammock.qchar_recursion

        def perturbed(q_, xi, beta, *rest):
            if q_ == q and tuple(beta) == wrong:
                return real(q_, xi, beta, *rest) + qhammock.LaurentPoly.one()
            if q_ == q and tuple(beta) == broken:
                raise qhammock.InexactDivision("injected")
            return real(q_, xi, beta, *rest)

        qhammock.qchar_recursion = perturbed
        try:
            res = workloads.run_pass("sweep3", inputs)
        finally:
            qhammock.qchar_recursion = real
        total = sum(len(r) for _, r in inputs)
        self.assertEqual(res.attempted, total)
        self.assertEqual(len(res.failures), 2)
        by_beta = {tuple(f["beta"]): f for f in res.failures}
        self.assertEqual(by_beta[wrong]["at"], "recursion")
        self.assertIn("InexactDivision", by_beta[broken]["why"])
        for f in res.failures:
            self.assertEqual((f["family"], f["rank"]), (q.family, q.rank))
            self.assertEqual(f["arrows"], [list(a) for a in q.arrows])


class TraceAccounting(unittest.TestCase):
    def test_self_times_add_up_to_the_wall_time(self):
        proc = bench("--workload", "pivots", "--seed", "7", "--seconds", "0", "--trace", "1", "--smoke")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        m = {n: v["value"] for n, v in result(proc)["metrics"].items()}
        trace = json.loads((HERE / "out" / "trace-pivots-7.json").read_text())
        wall = trace["wall_s"]
        layers = sum(v for n, v in m.items() if n.endswith(".self_s"))
        self.assertAlmostEqual(layers, wall, delta=1e-6)
        # benchmark time outside any item is loop bookkeeping plus wrapper
        # cost, which the tracing overhead bounds
        outside = m["bench.self_s"] - trace["item_self_s"]
        overhead = wall - wall / m["trace.overhead_ratio"]
        self.assertGreaterEqual(outside, -1e-6)
        self.assertLessEqual(outside, max(overhead, 0.05 * wall))

        spans = {row[0]: row for row in trace["spans"]}
        self.assertTrue(spans)
        for _index, _name, start, end, parent, _item in spans.values():
            self.assertLessEqual(start, end)
            if parent is not None:
                self.assertLessEqual(spans[parent][2], start)
                self.assertLessEqual(end, spans[parent][3])


if __name__ == "__main__":
    unittest.main()
