"""Self-tests of the benchmark's own machinery (not of alphareg).

Run from the repository root:

    python3 perfbench/selftest.py
"""

import contextlib
import io
import json
import math
import os
import shutil
import time
import unittest

import run as bench

bench._import_program()

import numpy as np  # noqa: E402

import alphareg  # noqa: E402
from alphareg import selection  # noqa: E402
from check import check_document  # noqa: E402
from session import REFERENCE_DIR, Session  # noqa: E402
from spans import (  # noqa: E402
    Recorder, Span, Tracer, layer_breakdown, layer_metrics, self_times,
)
from workloads import Outcome, Workload  # noqa: E402


class SelfTimeTest(unittest.TestCase):
    def test_hand_built_tree(self):
        # root [0, 10] has two children that overlap on [3, 4], as work items
        # on two threads do; child a has one grandchild.
        spans = [
            Span(1, None, "run.run_fit", "run", 0.0, 10.0),
            Span(2, 1, "regression.fit", "regression", 1.0, 4.0),
            Span(3, 1, "regression.fit", "regression", 3.0, 6.0),
            Span(4, 2, "optim.lm", "optim", 2.0, 3.0),
        ]
        per_span = self_times(spans)
        self.assertEqual(per_span[1], (5.0, 1.0))  # 10 - |[1, 6]|; 6 - 5 overlap
        self.assertEqual(per_span[2], (2.0, 0.0))
        self.assertEqual(per_span[3], (3.0, 0.0))
        self.assertEqual(per_span[4], (1.0, 0.0))
        layers, overlap, unaccounted = layer_breakdown(spans, wall=11.0)
        self.assertEqual(layers, {"run": 5.0, "regression": 5.0, "optim": 1.0})
        self.assertEqual(overlap, 1.0)
        self.assertEqual(unaccounted, 1.0)  # the second outside the root span
        self.assertEqual(sum(layers.values()) - overlap + unaccounted, 11.0)

    def test_child_clipped_to_parent(self):
        spans = [Span(1, None, "a.x", "a", 0.0, 2.0), Span(2, 1, "b.y", "b", 1.0, 3.0)]
        self.assertEqual(self_times(spans)[1], (1.0, 0.0))

    def test_traced_threaded_call_adds_up(self):
        sim = alphareg.synthesize(20, 3, 1, alpha=0.5, noise_scale=0.05, seed=1)
        recorder = Recorder()
        original = selection.fit_alpha_regression
        with Tracer(recorder):
            self.assertIsNot(selection.fit_alpha_regression, original)
            t0 = time.perf_counter()
            selection.loocv_alpha(sim["Y"], sim["X"], threads=2)
            wall = time.perf_counter() - t0
        self.assertIs(selection.fit_alpha_regression, original)
        layers, overlap, unaccounted = layer_breakdown(recorder.spans, wall)
        self.assertAlmostEqual(sum(layers.values()) - overlap + unaccounted, wall,
                               places=9)
        self.assertGreaterEqual(unaccounted, 0.0)
        metrics = layer_metrics(recorder.spans, wall)
        self.assertEqual(metrics["selection.folds"], 5 * 20)
        self.assertEqual(metrics["selection.warm_fits"], 5)
        self.assertEqual(metrics["regression.fit.calls"], 5 * 20 + 5)
        by_id = {s.id: s for s in recorder.spans}
        items = [s for s in recorder.spans if s.name == "_parallel.item"]
        self.assertTrue(all(by_id[s.parent].name == "_parallel.parallel_map"
                            for s in items))
        self.assertTrue(all(s.layer == "selection" for s in items))


def _reference(name="alpha-cv"):
    return json.loads((REFERENCE_DIR / f"{name}-seed0.json").read_text())


UNIFORM = np.full((5, 4), 0.25)


class OutputCheckTest(unittest.TestCase):
    def test_reference_passes(self):
        ref = _reference()
        self.assertEqual(check_document(json.dumps(ref), UNIFORM, ref), [])

    def test_rejects_infinity(self):
        ref = _reference()
        doc = json.loads(json.dumps(ref))
        doc["selection"]["scores"][0] = math.inf
        problems = check_document(json.dumps(doc), UNIFORM)
        self.assertTrue(any("Infinity" in p for p in problems), problems)

    def test_rejects_perturbed_coefficient(self):
        ref = _reference()
        doc = json.loads(json.dumps(ref))
        doc["fit"]["coefficients"][1][0] *= 1.0 + 1e-4
        problems = check_document(json.dumps(doc), UNIFORM, ref)
        self.assertTrue(any("fit.coefficients" in p for p in problems), problems)

    def test_rejects_wrong_best(self):
        ref = _reference("slx-cv")
        doc = json.loads(json.dumps(ref))
        alphas, ks = doc["selection"]["alphas"], doc["selection"]["ks"]
        best = doc["selection"]["best"]
        doc["selection"]["best"] = [a for a in alphas if a != best[0]][:1] + [ks[0]]
        problems = check_document(json.dumps(doc), UNIFORM)
        self.assertTrue(any("argmin" in p for p in problems), problems)

    def test_rejects_unclosed_fitted_rows(self):
        ref = _reference()
        problems = check_document(json.dumps(ref), UNIFORM * 1.001)
        self.assertTrue(any("sum to 1" in p for p in problems), problems)


def _raising_call(inputs, threads):
    raise RuntimeError("injected failure")


def _ok_call(inputs, threads):
    return None


def _ok_outcome(inputs, raw):
    ref = _reference()
    return Outcome(json.dumps(ref), UNIFORM, 0)


class FailureCountingTest(unittest.TestCase):
    def test_raising_workload_counts_and_others_continue(self):
        broken = Workload("broken", lambda seed, wd: {}, _raising_call, _ok_outcome)
        fine = Workload("fine", lambda seed, wd: {}, _ok_call, _ok_outcome)
        workdir = bench.WORK_ROOT / f"selftest-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                sessions = [Session(w, 0, workdir) for w in (broken, fine, broken)]
                for session in sessions:
                    session.call()
                    session.call()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        self.assertEqual([(s.attempted, s.failed) for s in sessions],
                         [(2, 2), (2, 0), (2, 2)])

    def test_crashing_child_process_is_reported(self):
        result, error = bench._child("no-such-workload", 0, 1, 0)
        self.assertIsNone(result)
        self.assertTrue(error)

    def test_tracer_restores_wrappers_after_a_raise(self):
        original = alphareg.run.run_fit
        with self.assertRaises(RuntimeError):
            with Tracer(Recorder()):
                raise RuntimeError("injected failure")
        self.assertIs(alphareg.run.run_fit, original)


class GuardTest(unittest.TestCase):
    def test_refuses_alphareg_threads(self):
        os.environ["ALPHAREG_THREADS"] = "1"
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = bench.main(["--workload", "gwar-cv", "--seconds", "1"])
        finally:
            del os.environ["ALPHAREG_THREADS"]
        self.assertEqual(code, 2)
        self.assertEqual(out.getvalue(), "")
        self.assertIn("ALPHAREG_THREADS", err.getvalue())


if __name__ == "__main__":
    unittest.main(verbosity=2)
