"""Self-test of the benchmark, in its low-degree smoke mode.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
that a wrong expected output counts as an error, that the tracer patches
every lookup site and reports a removed function as absent, and that the
z^4 prefix the oracle uses agrees with the floating-point rank.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def smoke(workload: str, trace: int, seed: int = 0):
    """Run one smoke pass in-process; returns (printed lines, result)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(["--workload", workload, "--seed", str(seed),
                         "--seconds", "1", "--trace", str(trace), "--smoke"])
    assert code == 0, code
    lines = out.getvalue().splitlines()
    return lines, json.loads(lines[-1])


class MetricsPrinted(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(workloads.WORKLOADS))
        for workload in workloads.WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    lines, result = smoke(workload, trace, seed=1)
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, unit in want.items():
                        self.assertTrue(any(line.split()[:1] == [name]
                                            and line.split()[2] == unit
                                            for line in lines), name)
                    self.assertTrue(any(line.split()[:3] == ["error_rate", "0", "ratio"]
                                        for line in lines))
                    if trace:
                        self._self_times_add_up(result["metrics"])

    def _self_times_add_up(self, metrics):
        layers = sum(metrics[f"{layer}.self_s"]["value"] for layer in tracing.LAYERS)
        wall = metrics["trace.wall_s"]["value"]
        self.assertAlmostEqual(layers, wall, delta=0.01 * wall + 0.005)


class Oracles(unittest.TestCase):
    def test_wrong_expected_prefix_is_an_error(self):
        real = oracles.expected_prefix

        def wrong(a, degree):
            return [1, 2, 2] + [0] * (degree - 2) if a == "-1" else real(a, degree)

        with mock.patch.object(oracles, "expected_prefix", wrong):
            lines, result = smoke("hilbert-sweep", 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        rate = next(line.split()[1] for line in lines if line.split()[:1] == ["error_rate"])
        self.assertGreater(float(rate), 0)

    def test_closed_forms(self):
        self.assertEqual(oracles.generic_prefix(6), [1, 2, 4, 8, 14, 24, 40])
        self.assertEqual(oracles.expected_prefix("1", 6), [1, 2, 3, 4, 5, 6, 7])
        self.assertEqual(oracles.expected_prefix("-1", 6), [1, 2, 1, 0, 0, 0, 0])

    def test_root_of_unity_prefixes_match_numeric_rank(self):
        from dinfnichols.field import Scalar
        from dinfnichols.linalg import numeric_rank
        from dinfnichols.nichols import quantum_symmetrizer
        from dinfnichols.ydmod import h_class

        for a in ("z^4", "z"):
            m = h_class(1, Scalar.parse(a))
            ranks = [1, 2] + [numeric_rank(quantum_symmetrizer(m, d))
                              for d in range(2, workloads.DEGREE + 1)]
            self.assertEqual(ranks, oracles.expected_prefix(a, workloads.DEGREE), a)

    def test_golden_report_is_current(self):
        ops = workloads.build("classify-report", 0, run.WORKDIR)
        self.assertEqual(ops[0].argv, ("classify", "--all", "--format", "json"))
        _, code, out = run.run_op(ops[0])
        self.assertEqual(ops[0].check(code, out), [])


class Tracer(unittest.TestCase):
    def test_patches_every_lookup_site_and_restores(self):
        classify, field, nichols, verify = (
            importlib.import_module(f"dinfnichols.{name}")
            for name in ("classify", "field", "nichols", "verify"))
        before = (classify.graded_dims, nichols.graded_dims,
                  verify.SUITES["braid"], field.Scalar.__rmul__)
        t = tracing.Tracer()
        t.install()
        try:
            after = (classify.graded_dims, nichols.graded_dims,
                     verify.SUITES["braid"], field.Scalar.__rmul__)
            for old, new in zip(before, after):
                self.assertIsNot(old, new)
            self.assertIs(field.Scalar.__mul__, field.Scalar.__rmul__)
            x = field.Scalar.parse("z")
            _ = 2 * x + x * 3 - 1
            self.assertEqual(t.calls["field.mul"], 2)
            self.assertEqual(t.calls["field.addsub"], 2)
        finally:
            t.uninstall()
        self.assertEqual(before, (classify.graded_dims, nichols.graded_dims,
                                  verify.SUITES["braid"], field.Scalar.__rmul__))

    def test_removed_function_is_absent(self):
        targets = tuple(
            tracing.Target(t.name, t.owner, ("no_longer_there",), t.record, t.sites)
            if t.name == "nichols.braid_word_at" else t
            for t in tracing.TARGETS)
        t = tracing.Tracer(targets)
        t.install()
        try:
            _, code, out = run.run_op(workloads.build("hilbert-sweep", 0, run.WORKDIR,
                                                      smoke=True)[2])
        finally:
            t.uninstall()
        self.assertEqual(code, 0)
        metrics = tracing.layer_metrics(t)
        self.assertNotIn("nichols.braid_evals", metrics)
        self.assertGreater(metrics["nichols.graded_dims.calls"][0], 0)


class Seeds(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in workloads.WORKLOADS:
            for seed in (0, 7):
                a = workloads.build(workload, seed, run.WORKDIR, smoke=True)
                b = workloads.build(workload, seed, run.WORKDIR, smoke=True)
                self.assertEqual([op.argv for op in a], [op.argv for op in b])

    def test_seed_zero_is_canonical(self):
        ops = workloads.build("hilbert-sweep", 0, run.WORKDIR)
        self.assertEqual([op.argv[5] for op in ops],
                         ["--a=1", "--a=-1", "--a=2", "--a=z", "--a=z^4"])


if __name__ == "__main__":
    unittest.main()
