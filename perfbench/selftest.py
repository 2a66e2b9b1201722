"""Tests of the benchmark itself, on tiny sizes of each workload.

    python3 perfbench/selftest.py

Checks that the deterministic counts repeat exactly across repeated runs
and between untraced and traced runs, that every run passes its output
checks, that every metric is emitted with its unit, that an untraced run
keeps only the wrappers its listeners need after the prefix, and that the
reference clock leaves its kernel out.
"""
from __future__ import annotations

import json
import math
import time
import unittest

import run

run._import_eventsnn()
import workloads  # noqa: E402 - imports eventsnn, which the line above locates
from probe import Probe  # noqa: E402
from refclock import INTERVAL, RefClock  # noqa: E402

TINY = {
    "train-eventprop": {
        "network.n_hidden": 20, "sim.m": 40, "dataset.n_train": 128, "dataset.n_test": 64,
    },
    "train-fud": {
        "network.n_hidden": 20, "sim.m": 40, "dataset.n_train": 128, "dataset.n_test": 64,
    },
    "eval-wide-mock": {
        "network.n_hidden": 40, "sim.m": 200, "dataset.n_train": 16, "dataset.n_test": 16,
    },
    "replay-cli": {
        "network.n_hidden": 20, "sim.m": 40, "dataset.n_train": 64, "dataset.n_test": 32,
        "bench.samples": 4,
    },
}
SECONDS = 0.2


class TestSpec(unittest.TestCase):
    def test_benchmark_json_matches_harness(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({w["name"]: w["why"] for w in spec["workloads"]}, workloads.WHY)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual(set(workloads.WORKLOADS), set(workloads.WHY))


class TestProbeAndClock(unittest.TestCase):
    def test_freeze_keeps_only_listened_wrappers(self):
        probe = Probe(time.perf_counter)
        probe.install()
        try:
            probe.listen("train.adam_step", lambda *a: None)
            probe.freeze()
            self.assertEqual({entry[0] for entry in probe._patched}, {"train.adam_step"})
            self.assertFalse(hasattr(workloads.sim.simulate_batch, "__wrapped__"))
            self.assertTrue(hasattr(workloads.train.adam_step, "__wrapped__"))
        finally:
            probe.uninstall()
        self.assertFalse(hasattr(workloads.train.adam_step, "__wrapped__"))

    def test_clock_leaves_kernel_out(self):
        clock = RefClock()
        clock.start()
        try:
            t0, w0 = clock.now(), time.perf_counter()
            while time.perf_counter() - w0 < 5 * INTERVAL:
                pass
            t1, w1 = clock.now(), time.perf_counter()
        finally:
            clock.stop()
        self.assertGreaterEqual(len(clock.samples), 4)
        # the clock stood still for every kernel run after the first reading
        self.assertAlmostEqual(
            (w1 - w0) - (t1 - t0), clock.kernel_total - clock.samples[0][1], delta=1e-3
        )
        self.assertGreater(clock.ref_seconds((t0, t1)), 0.0)


class TestWorkloads(unittest.TestCase):
    def check_workload(self, name):
        reports = [
            run.run(name, 3, SECONDS, trace, TINY[name]) for trace in (0, 0, 1)
        ]
        for report in reports:
            self.assertEqual(report["failed"], 0, report["errors"])
            self.assertTrue(all(report["checks"].values()), report["checks"])
            line = run.result_line(report)
            self.assertTrue(line["correct"])
            self.assertGreaterEqual(line["attempted"], 1)
            units = run.PER_LAYER if report["trace"] else run.END_TO_END
            self.assertEqual(list(line["metrics"]), list(units))
            for key, metric in line["metrics"].items():
                self.assertEqual(metric["unit"], units[key])
                self.assertTrue(math.isfinite(metric["value"]), key)
            names = [n for n, _, _ in run.named(report)]
            self.assertIn("setup_s", names)
            self.assertIn("error_rate", names)
        counts = [r["counts"] for r in reports]
        self.assertEqual(counts[0], counts[1], "counts differ between repeated runs")
        self.assertEqual(counts[0], counts[2], "counts differ traced vs untraced")
        self.assertEqual(
            {k: reports[2]["per_layer"][k] for k in counts[2]}, counts[2]
        )
        return reports

    def test_train_eventprop(self):
        counts = self.check_workload("train-eventprop")[0]["counts"]
        self.assertGreater(counts["sim.events_per_sample"], 0)
        self.assertGreater(counts["lif.lanes_per_event"], 0)

    def test_train_fud(self):
        self.check_workload("train-fud")

    def test_eval_wide_mock(self):
        counts = self.check_workload("eval-wide-mock")[0]["counts"]
        self.assertEqual(counts["sim.budget_hit_rate"], 0.0)

    def test_replay_cli(self):
        reports = self.check_workload("replay-cli")
        self.assertGreater(reports[2]["per_layer"]["backend.replay_parse_ms_per_sample"], 0)


if __name__ == "__main__":
    unittest.main()
