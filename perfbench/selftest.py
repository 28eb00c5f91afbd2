"""The benchmark's own tests.

Run with ``python3 perfbench/selftest.py`` from the root of a checkout
(or ``python -m pytest perfbench/selftest.py``).  The file name keeps it
out of the repository's tier-1 collection: each test runs a workload for
a second or more, which is benchmark time, not unit-test time.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import pb_util  # noqa: E402
import run as bench  # noqa: E402

pb_util.clear_overrides()


def _invoke(workload: str, trace: int, cwd: str = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join("perfbench", "run.py"),
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            str(trace),
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc.returncode, proc.stdout


class SmokeRuns(unittest.TestCase):
    """Every workload, smoke-sized, through the real command line."""

    def check_output(self, stdout: str, names) -> dict:
        result = json.loads(stdout.strip().splitlines()[-1])
        self.assertEqual(
            set(result), {"correct", "attempted", "failed", "metrics"}
        )
        self.assertEqual(list(result["metrics"]), [name for name, _ in names])
        for name, unit in names:
            self.assertEqual(result["metrics"][name]["unit"], unit)
            # the people-facing table gives value, unit and sample count
            self.assertRegex(
                stdout, rf"\n  {re.escape(name)} +\S+  {re.escape(unit)} +\d+\n"
            )
        self.assertTrue(result["correct"], stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        return result

    def test_every_workload_untraced(self):
        for workload in bench.WORKLOADS:
            with self.subTest(workload=workload):
                code, stdout = _invoke(workload, 0)
                self.assertEqual(code, 0, stdout)
                result = self.check_output(stdout, bench.END_TO_END)
                for name, _unit in bench.END_TO_END:
                    self.assertGreater(result["metrics"][name]["value"], 0, name)
                self.assertIn("error_rate", stdout)

    def test_every_workload_traced(self):
        for workload in bench.WORKLOADS:
            with self.subTest(workload=workload):
                code, stdout = _invoke(workload, 1)
                self.assertEqual(code, 0, stdout)
                self.check_output(stdout, bench.PER_LAYER)
                path = os.path.join(bench.OUT, f"{workload}-seed3.trace.json")
                with open(path, encoding="utf-8") as fh:
                    events = json.load(fh)["traceEvents"]
                spans = [e for e in events if e["ph"] == "X"]
                self.assertTrue(spans)
                self.assertTrue(all(e["dur"] >= 0 for e in spans))

    def test_refuses_without_sources(self):
        bare = os.path.join(bench.OUT, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(
            HERE,
            os.path.join(bare, "perfbench"),
            ignore=shutil.ignore_patterns("out", "__pycache__"),
        )
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            code, stdout = _invoke("fpu-sweep", 0, cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertNotIn('"correct"', stdout)


class InjectedWrongAnswers(unittest.TestCase):
    """A wrong answer must show up as a failed operation."""

    def measure_tampered(self, wl, tamper) -> pb_util.Run:
        run = pb_util.Run(wl.__name__, 3, 0.5, False)
        state = wl.setup(run)
        try:
            tamper(state)
            wl.measure(run, state, 0.5)
            wl.finish(run, state)
        finally:
            wl.teardown(state)
        return run

    def test_wrong_checksum_rv32_fig5(self):
        import wl_fig5

        def tamper(progs):
            progs[0].expected ^= 1

        run = self.measure_tampered(wl_fig5, tamper)
        self.assertGreater(run.error_rate, 0)

    def test_wrong_checksum_rv32_interactive(self):
        import wl_interactive

        def tamper(state):
            state.expected ^= 1

        run = self.measure_tampered(wl_interactive, tamper)
        self.assertGreater(run.error_rate, 0)

    def test_tampered_digest_fpu_sweep(self):
        import wl_fpu

        def tamper(state):
            for seed in range(state.seed_base, state.seed_base + wl_fpu.SHARDS):
                state.digests[seed] = "0" * 40

        run = self.measure_tampered(wl_fpu, tamper)
        self.assertGreater(run.error_rate, 0)


class Declaration(unittest.TestCase):
    def test_benchmark_json_matches_the_command(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual(
            [w["name"] for w in spec["workloads"]], list(bench.WORKLOADS)
        )
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]], bench.END_TO_END
        )
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["per_layer"]], bench.PER_LAYER
        )


if __name__ == "__main__":
    unittest.main()
