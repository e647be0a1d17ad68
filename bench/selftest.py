"""Self-tests of the benchmark.

    python3 bench/selftest.py

* every workload's operations run cleanly at s = 1 sizes;
* the self-time arithmetic is right on a synthetic span tree;
* the tracer restores every function it rebinds;
* a traced run and an untraced run give identical stdout digests;
* BENCHMARK.json lists exactly the workloads and per-layer metrics the
  benchmark produces.

The file name keeps pytest's default collection from picking it up.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def small_ops() -> list[workloads.Op]:
    seen: dict[str, workloads.Op] = {}
    for ops in workloads.workloads(small=True).values():
        for op in ops:
            seen.setdefault(op.label, op)
    return list(seen.values())


class SmallWorkloads(unittest.TestCase):
    def test_operations_run_cleanly_at_s1(self):
        with run.Launcher() as launcher:
            runner = run.Runner(launcher, random.Random(0), None)
            for op in small_ops():
                result, _ = runner.run(op)
                self.assertEqual(result.code, 0, op.label)
                self.assertGreater(result.rss_mb, 0, op.label)
        self.assertEqual(runner.problems, [])
        self.assertEqual((runner.attempted, runner.failed), (len(small_ops()), 0))

    def test_checks_reject_a_wrong_output(self):
        op = workloads.workloads(small=True)["special-large-s"][0]
        with run.Launcher() as launcher:
            good, _ = run.Runner(launcher, random.Random(0), None).run(op)
        bad = good.stdout.replace(b"genus = 196", b"genus = 195")
        self.assertNotEqual(bad, good.stdout)
        self.assertTrue(workloads.check_output(op, bad, random.Random(0)))
        self.assertTrue(workloads.check_output(op, b"", random.Random(0)))

    def test_traced_and_untraced_digests_match(self):
        spans_path = run.OUT / "selftest-spans.json"
        with run.Launcher() as launcher:
            runner = run.Runner(launcher, random.Random(0), None)
            for op in small_ops():
                plain, _ = runner.run(op)
                traced, trace = runner.run(op, spans_path)
                self.assertEqual(hashlib.sha256(plain.stdout).hexdigest(),
                                 hashlib.sha256(traced.stdout).hexdigest(), op.label)
                self.assertIsNotNone(trace, op.label)
                layers = tracer.summarize(trace)
                if not op.library:
                    self.assertIn("cli.render", layers, op.label)
        self.assertEqual(runner.failed, 0, runner.problems)


class SelfTime(unittest.TestCase):
    def test_synthetic_tree(self):
        # root [0, 10] with 1 s of per-item calls; children [1, 3] and
        # [2, 5] overlap, [9, 12] sticks out past the root's end; a
        # grandchild [1.5, 2.5] counts against its own parent only.
        spans = [
            ["root", 0.0, 10.0, -1, 1.0, 0, {}],
            ["a", 1.0, 3.0, 0, 0.0, 0, {}],
            ["b", 2.0, 5.0, 0, 0.5, 0, {}],
            ["c", 9.0, 12.0, 0, 0.0, 0, {}],
            ["d", 1.5, 2.5, 1, 0.0, 0, {}],
        ]
        selfs = tracer.self_times(spans)
        self.assertAlmostEqual(selfs[0], 10 - (4 + 1) - 1)
        self.assertAlmostEqual(selfs[1], 2 - 1)
        self.assertAlmostEqual(selfs[2], 3 - 0.5)
        self.assertAlmostEqual(selfs[3], 3)
        self.assertAlmostEqual(selfs[4], 1)

    def test_busy_counts_outermost_calls_only(self):
        trace = {
            "spans": [
                ["f", 0.0, 4.0, -1, 0.0, 2048, {"gaps": 3}],
                ["f", 1.0, 2.0, 0, 0.0, 1024, {"gaps": 4}],
                ["f", 5.0, 6.0, -1, 0.0, 1024, {}],
            ],
            "items": {"p": [10, 0.25, 1]},
        }
        layers = tracer.summarize(trace)
        self.assertEqual(layers["f"]["calls"], 3)
        self.assertAlmostEqual(layers["f"]["busy_s"], 5.0)
        self.assertAlmostEqual(layers["f"]["self_s"], 3 + 1 + 1)
        self.assertEqual(layers["f"]["gaps"], 7)
        self.assertEqual(layers["f"]["rss_mb"], 2.0)
        self.assertEqual(layers["p"], {"calls": 10, "busy_s": 0.25, "failed": 1})


class Wrapping(unittest.TestCase):
    def test_install_rebinds_every_binding_and_restore_undoes_it(self):
        sys.path.insert(0, str(run.ROOT / "src"))
        try:
            import skabelund
            from skabelund import cli, curve, families, semigroup
        finally:
            sys.path.pop(0)
        before = {(m.__name__, k): v for m in (skabelund, cli, curve, families, semigroup)
                  for k, v in vars(m).items()}
        recorder = tracer.Recorder()
        recorder.install(skabelund)
        try:
            self.assertIs(families.verify_cofinite_complement,
                          semigroup.verify_cofinite_complement)
            self.assertIsNot(families.verify_cofinite_complement,
                             before[("skabelund.families", "verify_cofinite_complement")])
            self.assertIs(skabelund.gap_witness, families.gap_witness)
            p = curve.make_params(1)
            skabelund.profile_from_generators(curve.quartic_generators(p))
            self.assertEqual(curve.quartic_apery(p), frozenset(curve.quartic_apery(p)))
        finally:
            recorder.restore()
        after = {(m.__name__, k): v for m in (skabelund, cli, curve, families, semigroup)
                 for k, v in vars(m).items()}
        self.assertEqual(before.keys(), after.keys())
        self.assertTrue(all(after[k] is v for k, v in before.items()))
        names = [s[0] for s in recorder.spans]
        self.assertEqual(names.count("semigroup.profile_from_generators"), 1)
        self.assertEqual(names.count("curve.quartic_apery"), 2)
        self.assertEqual(recorder.items["curve.phi"][0], 2 * curve.quartic_multiplicity(p))


class Manifest(unittest.TestCase):
    def test_benchmark_json_matches_the_benchmark(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.workloads()))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], run.PER_LAYER)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.E2E_UNITS)
        layer_names = {name.rsplit(".", 1)[0] for name, _ in run.PER_LAYER}
        traced = set(tracer.SPANNED) | set(tracer.PER_ITEM) | {"trace"}
        self.assertLessEqual(layer_names, traced)


if __name__ == "__main__":
    run.OUT.mkdir(exist_ok=True)
    unittest.main()
