"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Generator determinism, fingerprint stability, detection of corrupted
outputs, and the trace's span bookkeeping.  Takes about ten seconds.
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path

import layertrace
import run
import workloads as wl

LAB = run.import_lab()
REFERENCE = json.loads((run.HERE / "reference.json").read_text(encoding="utf-8"))


def _builtin_item(workload: str, name: str, workdir: Path) -> wl.Item:
    items = wl.setup(LAB, workload, 0, workdir)
    return next(item for item in items if item.key == name)


def _run(item: wl.Item, outdir: Path):
    code, stderr = wl.run_op(LAB, item, outdir)
    return wl.read_outcome(item, outdir, code, stderr)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_gives_identical_bytes(self):
        for seed in (0, 7, 123456):
            first = [wl.spec_bytes(s) for s in wl.symmetric_specs(seed)]
            second = [wl.spec_bytes(s) for s in wl.symmetric_specs(seed)]
            self.assertEqual(first, second)
        self.assertNotEqual(wl.symmetric_specs(0), wl.symmetric_specs(1))

    def test_specs_are_valid_and_k_fold(self):
        for spec in wl.symmetric_specs(3):
            LAB.domain.validate_scenario(LAB.domain.scenario_from_dict(spec))
            k = int(spec["name"].rsplit("_k", 1)[1])
            self.assertIn(k, wl.SYMMETRIC_FOLDS)
            self.assertIn(f"cos({k}*theta)", spec["boundary"]["psi_exterior"])
            self.assertIn(f"cos({2 * k}*theta)", spec["domain"]["exterior"]["radius"])


class FingerprintTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.tmp = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def test_verify_fingerprint_stable_and_recorded(self):
        item = _builtin_item("library_default", "z_plus_inv", self.tmp)
        first, second = _run(item, self.tmp), _run(item, self.tmp)
        self.assertEqual(wl.fingerprint(first.summary), wl.fingerprint(second.summary))
        ref = REFERENCE["library_default"]["z_plus_inv"]
        self.assertTrue(wl.check(first, ref).ok)

    def test_render_fingerprint_stable_and_recorded(self):
        item = _builtin_item("render_sweep", "disk_z3", self.tmp)
        first, second = _run(item, self.tmp), _run(item, self.tmp)
        self.assertEqual(first.summary, second.summary)
        self.assertEqual(len(first.summary["levels"]), wl.RENDER_LEVELS)
        self.assertTrue(wl.check(first, REFERENCE["render_sweep"]["disk_z3"]).ok)

    def test_corrupted_outputs_count_as_failed(self):
        item = _builtin_item("library_default", "z_plus_inv", self.tmp)
        ref = REFERENCE["library_default"]["z_plus_inv"]
        report = json.loads(json.dumps(_run(item, self.tmp).summary))

        dropped = json.loads(json.dumps(report))
        dropped["points"] -= 1
        dropped["multiplicities"].pop()
        verdict = wl.check(wl.Outcome(0, "", dropped), ref)
        self.assertFalse(verdict.ok)
        self.assertTrue(verdict.wrong)

        flipped = json.loads(json.dumps(report))
        applicable = next(v for v in flipped["verdicts"] if v[1])
        applicable[2] = False
        verdict = wl.check(wl.Outcome(0, "", flipped), ref)
        self.assertFalse(verdict.ok)
        self.assertTrue(verdict.wrong)

        render_item = _builtin_item("render_sweep", "disk_z3", self.tmp)
        _run(render_item, self.tmp)
        svg = (self.tmp / "levelsets.svg").read_text(encoding="utf-8")
        lines = svg.splitlines()
        lines.remove(next(line for line in lines if line.startswith("<circle")))
        outcome = wl.Outcome(0, "", wl.render_summary("\n".join(lines)))
        self.assertFalse(wl.check(outcome, REFERENCE["render_sweep"]["disk_z3"]).ok)

    def test_recorded_error_is_a_failure_but_not_wrong(self):
        item = _builtin_item("library_fine", "z_plus_inv", self.tmp)
        ref = REFERENCE["library_fine"]["z_plus_inv"]
        self.assertIn("error", ref)
        stderr = f"error: x.json: verify: {ref['error']} (iterations=1, residual=1e-9)\n"
        verdict = wl.check(wl.Outcome(1, stderr, None), ref)
        self.assertEqual((verdict.ok, verdict.wrong), (False, False))
        other = wl.check(wl.Outcome(1, "error: x.json: verify: boom\n", None), ref)
        self.assertEqual((other.ok, other.wrong), (False, True))
        # once the scenario returns a report without FAIL it counts as correct
        report = REFERENCE["library_default"]["z_plus_inv"]["summary"]
        self.assertTrue(wl.check(wl.Outcome(0, "", report), ref).ok)

    def test_every_symmetric_seed_is_checked_against_a_record(self):
        recorded = REFERENCE["symmetric_annuli"]
        for seed in (0, 31, 67, 123456):
            items = wl.setup(LAB, "symmetric_annuli", seed, self.tmp / str(seed))
            self.assertEqual(len(items), wl.SYMMETRIC_COUNT)
            for item in items:
                self.assertIn(item.key, recorded)
        ref = recorded["3/sym1_k3"]
        self.assertTrue(wl.check(wl.Outcome(0, "", ref["summary"]), ref).ok)
        empty = {"points": 0, "multiplicities": [], "censuses": [], "verdicts": []}
        verdict = wl.check(wl.Outcome(0, "", empty), ref)
        self.assertEqual((verdict.ok, verdict.wrong), (False, True))
        census = json.loads(json.dumps(ref["summary"]))
        census["censuses"][0][1] += 1
        self.assertTrue(wl.check(wl.Outcome(0, "", census), ref).wrong)
        # an output, or an error, without a recorded reference is wrong
        self.assertTrue(wl.check(wl.Outcome(0, "", ref["summary"]), None).wrong)
        self.assertTrue(wl.check(wl.Outcome(1, "error: x: verify: boom\n", None), None).wrong)


class TraceTest(unittest.TestCase):
    def test_spans_cover_the_operation(self):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            item = _builtin_item("library_default", "z_plus_inv", tmp)
            tracer = layertrace.Tracer()
            tracer.install(LAB)
            try:
                tracer.op = 0
                tracer.wrap("op", wl.run_op)(LAB, item, tmp)
            finally:
                tracer.uninstall()
            self.assertEqual(LAB.cli.run_scenario.__module__, "levelset_lab.verify")
            spans = tracer.spans
            names = {rec[layertrace.NAME] for rec in spans}
            for name in ("cli.main", "verify.run_scenario", "solver.solve", "solver.interpolant",
                         "critical.detect", "topology.census", "solver.eval", "cli.report"):
                self.assertIn(name, names)
            for rec in spans[1:]:
                self.assertGreaterEqual(rec[layertrace.PARENT], 0)
                parent = spans[rec[layertrace.PARENT]]
                self.assertLessEqual(parent[layertrace.START], rec[layertrace.START])
                self.assertGreaterEqual(parent[layertrace.END], rec[layertrace.END])
            self.assertGreaterEqual(min(layertrace.coverage(spans)), 0.95)
            # self times partition the operation's wall time
            op = spans[0]
            self.assertAlmostEqual(sum(layertrace.self_times(spans)), op[2] - op[1], places=9)
            interp = [r for r in spans if r[layertrace.NAME] == "solver.interpolant"]
            self.assertEqual(len(interp), 2)  # one per solved grid

    def test_tail_percentile(self):
        samples = [float(k) for k in range(30)]
        self.assertEqual(run.tail(samples), (19.0, 100.0 * 20 / 30, 30))
        self.assertEqual(run.tail(samples[:21]), (10.0, 100.0 * 11 / 21, 21))
        self.assertEqual(run.tail(samples[:20]), (10.0, 55.0, 20))
        self.assertEqual(run.tail([4.0]), (4.0, 100.0, 1))


if __name__ == "__main__":
    unittest.main(argv=[sys.argv[0], *sys.argv[1:]], verbosity=2)
