"""Self-tests of the benchmark harness (about half a minute).

    python3 bench/selftest.py

They show that the accuracy gate trips on a perturbed reference and the
command then exits non-zero, that self time is computed right on a
synthetic span tree, that the host-speed gauge corrects a window by the
ticks inside it and restores the signal it borrows, that the metric names a run emits are exactly those
BENCHMARK.json declares, and that no tracing wrapper survives into an
untraced run.
"""

import contextlib
import copy
import gzip
import io
import json
import math
import random
import signal
import tempfile
import time
import unittest
from pathlib import Path

import gauge
import run
import spans
import workloads

ROOT = run.repo_root()
run.use_checkout_source(ROOT)

import casphere  # noqa: E402  (imported from the checkout by the line above)


def _run_main(argv):
    """run.main in-process: (exit code, last stdout line as JSON)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def _references():
    return json.loads(run.REFERENCES.read_text())["items"]


def _estimate(ref, scale=1.0):
    return casphere.EnergyEstimate(
        value=ref["E"] * scale, l_max=ref["l_max_used"], history=[],
        delta_fit=math.nan, quad_error=ref["quad_error"],
        extrap_error=ref["extrap_error"])


class GateTest(unittest.TestCase):

    def setUp(self):
        self.refs = _references()
        self.items = {}
        scratch = run.scratch_dir(ROOT)
        for workload in workloads.WORKLOADS:
            for item in workloads.build(workload, random.Random(0), scratch):
                self.items[item.name] = item

    def test_energy_passes_at_reference_and_trips_when_perturbed(self):
        item = self.items["pec_d3_l8"]
        ref = self.refs["pec_d3_l8"]
        self.assertEqual(workloads.check(item, _estimate(ref), self.refs), [])
        perturbed = copy.deepcopy(self.refs)
        perturbed["pec_d3_l8"]["E"] *= 1.001
        self.assertEqual(
            len(workloads.check(item, _estimate(ref), perturbed)), 1)
        self.assertEqual(
            len(workloads.check(item, _estimate(ref, math.nan), self.refs)),
            1)

    def test_sweep_rows_checked_one_by_one(self):
        item = self.items["sweep"]
        rows = [{k: repr(v) for k, v in pin.items()}
                for pin in self.refs["sweep"]["rows"]]
        self.assertEqual(workloads.check(item, rows, self.refs), [])
        perturbed = copy.deepcopy(self.refs)
        perturbed["sweep"]["rows"][0]["E"] *= 1.001
        self.assertEqual(len(workloads.check(item, rows, perturbed)), 1)
        self.assertEqual(len(workloads.check(item, rows[:1], self.refs)),
                         item.solves)

    def test_probe_must_be_finite_and_negative(self):
        item = self.items["probe0"]
        self.assertEqual(workloads.check(item, -1e-3, self.refs), [])
        for bad in (0.0, 1e-3, math.nan, math.inf):
            self.assertEqual(len(workloads.check(item, bad, self.refs)), 1)

    def test_command_fails_on_perturbed_reference(self):
        perturbed = _references()
        for row in perturbed["sweep"]["rows"]:
            row["E"] *= 1.001
        saved = run.REFERENCES
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "references.json"
            path.write_text(json.dumps({"items": perturbed}))
            run.REFERENCES = path
            try:
                code, result = _run_main(
                    ["--workload", "scalar-sweep", "--seed", "0",
                     "--seconds", "0", "--trace", "0"])
            finally:
                run.REFERENCES = saved
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])


class GaugeTest(unittest.TestCase):

    def test_correction_is_net_time_times_mean_speed(self):
        ticking = gauge.Gauge()
        ref = gauge.REF_S
        # ticks at 2 and 4 lie in the window [1, 5], the others do not
        ticking.ticks = [(0.5, 9 * ref), (2.0, ref), (4.0, 4 * ref),
                         (6.0, 9 * ref)]
        net, corrected = ticking.correct(1.0, 5.0)
        self.assertAlmostEqual(net, 4.0 - 5 * ref, places=12)
        self.assertAlmostEqual(corrected, net * (1.0 + 0.25) / 2, places=12)
        net, corrected = ticking.correct(2.5, 3.6)
        self.assertAlmostEqual(corrected, net * 0.25, places=12)

    def test_ticks_while_entered_and_restores_the_signal(self):
        handler = signal.getsignal(signal.SIGALRM)
        with gauge.Gauge() as ticking:
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 5 * gauge.PERIOD_S:
                gauge.tick_work()
            t1 = time.perf_counter()
        self.assertGreaterEqual(len(ticking.ticks), 4)
        net, corrected = ticking.correct(t0, t1)
        self.assertLess(net, t1 - t0)
        self.assertGreater(corrected, 0.0)
        self.assertIs(signal.getsignal(signal.SIGALRM), handler)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))


class SelfTimeTest(unittest.TestCase):

    @staticmethod
    def _span(name, start, end, parent, request=0, key=None, extra=None):
        return [name, start, end, parent, request, key, extra]

    def test_self_time_subtracts_union_of_children(self):
        s = self._span
        tree = [
            s("root", 0.0, 10.0, -1),
            s("a", 1.0, 4.0, 0),
            s("a.child", 2.0, 3.0, 1),
            s("b", 5.0, 6.0, 0),
            # overlaps b and runs past the root: the root's children
            # cover [1, 4] and [5, 10]
            s("c", 5.5, 12.0, 0),
        ]
        got = spans.self_times(tree)
        want = [10.0 - (3.0 + 5.0), 2.0, 1.0, 1.0, 6.5]
        for g, w in zip(got, want):
            self.assertAlmostEqual(g, w, places=12)

    def test_layer_metrics_on_synthetic_pass(self):
        s = self._span
        tree = [
            s("bench.setup", 0.0, 1.0, -1),
            s("specfun.threej_family", 0.1, 0.3, 0),
            s("bench.pass", 2.0, 10.0, -1),
            s("energy.casimir_energy", 2.0, 9.0, 2, 1, None, [math.nan, 5]),
            s("tmatrix.t_scalar_log", 2.0, 2.5, 3, 1, None, 0.5),
            s("tmatrix.t_scalar_log", 3.0, 3.5, 3, 1, None, 0.5),
            s("translation.u_log_block", 4.0, 6.0, 3, 1, (4, 0, 1.5, "21")),
            s("translation.u_log_block", 4.5, 5.5, 6, 1, (4, 0, 1.5, "12")),
            s("translation.u_log_block", 7.0, 8.0, 3, 1, (4, 0, 1.5, "12")),
        ]
        got = spans.layer_metrics(tree)
        self.assertEqual(got["specfun.threej_family.calls"], 1)
        self.assertAlmostEqual(got["specfun.threej_family.self_s"], 0.2)
        self.assertEqual(got["translation.u_log_block.calls"], 3)
        self.assertAlmostEqual(got["translation.u_log_block.self_s"], 3.0)
        self.assertAlmostEqual(got["translation.u_log_block.repeat_frac"],
                               1.0 / 3.0)
        self.assertEqual(got["tmatrix.t_log.calls"], 2)
        self.assertEqual(got["energy.nodes"], 1)
        self.assertAlmostEqual(got["energy.per_node_ms"], 7000.0)
        self.assertAlmostEqual(got["energy.self_s"], 7.0 - 1.0 - 3.0)
        self.assertEqual(got["energy.fit_rejected_frac"], 1.0)


class NamesAndWrappersTest(unittest.TestCase):

    def test_traced_run_emits_declared_names_and_unwraps(self):
        _, declared = run.declared_metrics(ROOT)
        code, result = _run_main(["--workload", "scalar-sweep", "--seed", "0",
                                  "--seconds", "0", "--trace", "1"])
        self.assertEqual(code, 0)
        self.assertEqual(set(result["metrics"]), set(declared))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], declared[name])
        self.assertGreater(result["metrics"]["energy.nodes"]["value"], 0)
        self.assertEqual(spans.wrapped_attributes(), [])
        # a sweep point is one request: its energy call and the
        # suggest_l_max probe that sized it
        path = run.scratch_dir(ROOT) / "spans-scalar-sweep.jsonl.gz"
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            tree = [json.loads(line) for line in fh]
        roots = []
        for span in tree:
            roots.append(len(roots) if span[3] < 0 else roots[span[3]])
        requests = {span[4] for span, r in zip(tree, roots)
                    if tree[r][0] == "bench.pass"
                    and span[0].startswith("energy.")}
        self.assertEqual(len(requests), workloads.SWEEP_POINTS)

    def test_untraced_run_emits_declared_names(self):
        declared, _ = run.declared_metrics(ROOT)
        code, result = _run_main(["--workload", "nbody", "--seed", "0",
                                  "--seconds", "0", "--trace", "0"])
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]), set(declared))

    def test_metrics_doc_defines_every_declared_metric(self):
        ends, layers = run.declared_metrics(ROOT)
        doc = json.loads(Path(__file__).with_name("metrics.json").read_text())
        self.assertEqual(set(doc["per_layer"]), set(layers))
        self.assertLessEqual(set(ends), set(doc["end_to_end"]))

    def test_uninstall_restores_every_attribute(self):
        mods = spans.loaded_modules()
        before = {name: dict(vars(mod)) for name, mod in mods.items()}
        tracer = spans.Tracer()
        with self.assertRaises(ZeroDivisionError):
            with tracer:
                wrapped = spans.wrapped_attributes()
                self.assertIn(("casphere.energy", "u_log_block"), wrapped)
                self.assertIn(("casphere.translation", "u_log_block"), wrapped)
                self.assertIn(("casphere", "casimir_energy"), wrapped)
                self.assertIs(casphere.energy.u_log_block,
                              casphere.translation.u_log_block)
                raise ZeroDivisionError
        self.assertEqual(spans.wrapped_attributes(), [])
        for name, mod in mods.items():
            for attr, obj in before[name].items():
                self.assertIs(getattr(mod, attr), obj, (name, attr))


if __name__ == "__main__":
    unittest.main()
