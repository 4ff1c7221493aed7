"""Tests of the benchmark's own arithmetic and metric naming.

    python3 -m pytest perfbench        (or: python3 -m unittest discover perfbench)
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import threading
import time
import unittest
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from summary import REF_NOMINAL_S, reference_seconds, self_times, tail, tail_rank  # noqa: E402
from worker import SpeedProbe, reference_loop  # noqa: E402

# The benchmark contract's rule for metric and workload names.
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def valid_metric_name(name: str) -> bool:
    return NAME.fullmatch(name) is not None


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 7]
        parent = [-1, 0, 1, 0]
        start = [0.0, 1.0, 2.0, 5.0]
        end = [10.0, 4.0, 3.0, 7.0]
        self.assertEqual(self_times(parent, start, end), [5.0, 2.0, 1.0, 2.0])

    def test_overlapping_children_count_once(self):
        # two children from different threads overlap on [3, 5]
        parent = [-1, 0, 0]
        start = [0.0, 1.0, 3.0]
        end = [10.0, 5.0, 6.0]
        self.assertEqual(self_times(parent, start, end)[0], 5.0)

    def test_child_clipped_to_parent(self):
        parent = [-1, 0]
        start = [0.0, 8.0]
        end = [10.0, 12.0]
        self.assertEqual(self_times(parent, start, end)[0], 8.0)

    def test_tracer_reduce(self):
        tracer = Tracer()

        def leaf():
            return sum(range(1000))

        inner = tracer.wrap("layer.inner", leaf)
        other = tracer.wrap("other.leaf", leaf)

        def body():
            inner()
            inner()
            other()

        tracer.wrap("layer.outer", body)()
        stats = tracer.reduce()
        self.assertEqual(stats["layer.inner"]["calls"], 2)
        self.assertEqual(stats["other.leaf"]["calls"], 1)
        outer = stats["layer.outer"]
        children = stats["layer.inner"]["total_s"] + stats["other.leaf"]["total_s"]
        self.assertAlmostEqual(outer["self_s"], outer["total_s"] - children, places=12)
        # inner runs inside its own layer, so only the outer span counts as layer time
        self.assertEqual(stats["layer.inner"]["outer_s"], 0.0)
        self.assertEqual(stats["other.leaf"]["outer_s"], stats["other.leaf"]["total_s"])


class TailTest(unittest.TestCase):
    def test_rank_leaves_ten_samples_beyond(self):
        self.assertEqual(tail_rank(1000), 990)
        self.assertEqual(tail_rank(2000), 1980)
        self.assertEqual(tail_rank(100), 90)
        self.assertEqual(tail_rank(11), 1)
        self.assertIsNone(tail_rank(10))

    def test_tail_value(self):
        self.assertEqual(tail([float(x) for x in range(1, 101)]), 90.0)
        self.assertEqual(tail([float(x) for x in range(2000, 0, -1)]), 1980.0)

    def test_too_few_samples_fall_back_to_median(self):
        self.assertEqual(tail([3.0, 1.0, 2.0]), 2.0)


class ReferenceSecondsTest(unittest.TestCase):
    def test_scales_by_mean_sample(self):
        nominal = REF_NOMINAL_S
        self.assertAlmostEqual(reference_seconds(9.0, [2 * nominal, 2 * nominal]), 4.5)
        self.assertAlmostEqual(reference_seconds(3.0, [nominal / 2, nominal * 1.5]), 3.0)


def loops(count: int) -> None:
    for _ in range(count):
        reference_loop()


def probed_throughput(threads: int) -> tuple[float, SpeedProbe]:
    """Reference loops per reference second of a fixed pure-Python workload,
    measured as run.end_to_end does: run in the main thread, or split over
    `threads` worker threads while the main thread waits for them."""
    count = 30
    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        if threads:
            pool = [threading.Thread(target=loops, args=(count // threads,))
                    for _ in range(threads)]
            for t in pool:
                t.start()
            for t in pool:
                t.join()
        else:
            loops(count)
        wall = time.perf_counter() - t0
    return count / reference_seconds(wall - probe.inside_s, probe.samples), probe


class SpeedProbeTest(unittest.TestCase):
    def test_alone_samples_every_tick(self):
        _, probe = probed_throughput(threads=0)
        self.assertEqual(probe.skipped, 0)
        self.assertGreater(len(probe.samples), 2)

    def test_worker_threads_skip_ticks(self):
        _, probe = probed_throughput(threads=2)
        self.assertGreater(probe.skipped, 0)
        self.assertEqual(len(probe.samples), 2)  # the brackets only
        self.assertEqual(probe.inside_s, 0.0)

    def test_child_process_skips_ticks(self):
        with SpeedProbe() as probe:
            child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(1)"])
            child.wait()
        self.assertGreater(probe.skipped, 0)
        self.assertEqual(len(probe.samples), 2)

    def test_threads_that_gain_no_wall_time_show_no_gain(self):
        # Under the interpreter lock two threads take as long as one.  A
        # probe that sampled beside them would share the lock three ways,
        # run about three times slower and report a gain of that size.  The
        # threaded figure rests on two bracketing samples, so on a noisy
        # host it reads 0.5-1.2 times the serial one.
        serial, _ = probed_throughput(threads=0)
        threaded, _ = probed_throughput(threads=2)
        self.assertLess(threaded, 2.0 * serial)


class RunArithmeticTest(unittest.TestCase):
    def test_rep_seeds_are_distinct_and_repeatable(self):
        seeds = [workloads.rep_seed(7, k) for k in range(5)]
        self.assertEqual(len(set(seeds)), 5)
        self.assertEqual(seeds, [workloads.rep_seed(7, k) for k in range(5)])
        self.assertNotIn(workloads.rep_seed(8, 0), seeds)
        config = workloads.build("embed-refute", 7, 2)
        self.assertEqual(config.master_seed, seeds[2])

    def test_combine_takes_counts_from_first_round(self):
        rounds = [{"a.calls": 3, "a.share": 0.1}, {"a.calls": 4, "a.share": 0.3},
                  {"a.calls": 5, "a.share": 0.2}]
        self.assertEqual(run.combine(rounds), {"a.calls": 3, "a.share": 0.2})

    def test_end_to_end_pools_throughput(self):
        nominal = [REF_NOMINAL_S]
        plain = [
            {"attempted": 10, "failed": 0, "wall_s": 2.0, "ref_inside_s": 0.0,
             "ref_s": nominal, "setup_s": 0.1, "rss_mb": 20.0},
            {"attempted": 10, "failed": 2, "wall_s": 3.0, "ref_inside_s": 1.0,
             "ref_s": [2 * REF_NOMINAL_S], "setup_s": 0.4, "rss_mb": 22.0},
        ]
        got = run.end_to_end(plain)
        self.assertAlmostEqual(got["decided_per_ref_s"], 18 / (2.0 + 1.0))
        self.assertAlmostEqual(got["setup_s"], (0.1 + 0.2) / 2)
        self.assertAlmostEqual(got["peak_rss_mb"], 21.0)

    def test_consistency_compares_same_inputs_only(self):
        reps = [{"mode": "plain", "rep": 0, "digest": [1]},
                {"mode": "traced", "rep": 0, "digest": [1]},
                {"mode": "plain", "rep": 1, "digest": [2]}]
        self.assertEqual(run.consistency("embed-refute", reps), [])
        self.assertEqual(len(run.consistency(workloads.CENSUS, reps)), 1)
        reps[1]["digest"] = [3]
        self.assertEqual(len(run.consistency("embed-refute", reps)), 1)


class MetricNameTest(unittest.TestCase):
    def test_pattern(self):
        for good in ("setup_s", "isosearch.embed_exists.ms_p99", "a-b.c_d", "9x"):
            self.assertTrue(valid_metric_name(good), good)
        for bad in ("", "_x", ".x", "a b", "a/b", "x" * 65, "pairs/s"):
            self.assertFalse(valid_metric_name(bad), bad)

    def test_every_metric_is_named_validly(self):
        for name in [*run.END_TO_END, *run.PER_LAYER, *workloads.NAMES]:
            self.assertTrue(valid_metric_name(name), name)

    def test_benchmark_json_lists_what_run_reports(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.NAMES))


class SweepCheckTest(unittest.TestCase):
    def sweep(self, p_hats, unknowns=0):
        config = workloads.build("common-window", 1)
        rows = [
            SimpleNamespace(n=14, m=m, p_hat=p, trials=config.trials,
                            successes=round(p * config.trials), unknowns=unknowns)
            for m, p in zip(config.m_values, p_hats)
        ]
        result = SimpleNamespace(rows=rows, empirical_thresholds={14: None})
        for a, b in zip(rows, rows[1:]):
            if a.p_hat >= 0.5 > b.p_hat:
                result.empirical_thresholds[14] = a.m + (a.p_hat - 0.5) / (a.p_hat - b.p_hat)
                break
        return workloads.check("common-window", config, result), workloads.attempted(
            "common-window", config)

    def test_good_curve_passes(self):
        (failed, problems), _ = self.sweep([1.0, 1.0, 0.1, 0.0])
        self.assertEqual((failed, problems), (0, []))

    def test_curve_gate_fails_every_trial(self):
        (failed, problems), total = self.sweep([0.8, 0.6, 0.1, 0.0])
        self.assertEqual(failed, total)
        self.assertEqual(len(problems), 1)

    def test_unknowns_count_as_not_decided(self):
        (failed, problems), _ = self.sweep([1.0, 1.0, 0.1, 0.0], unknowns=1)
        self.assertEqual(failed, 4)
        self.assertIn("4 budget-exceeded trials", problems)


class CensusCheckTest(unittest.TestCase):
    def test_recorded_values_pass_and_perturbed_fail(self):
        with open(workloads.EXPECTED_MOMENTS, encoding="utf-8") as fh:
            values = json.load(fh)["values"]
        self.assertEqual(workloads.check(workloads.CENSUS, None, values), (0, []))
        values["embedding"]["s_total"] *= 1 + 1e-8
        failed, problems = workloads.check(workloads.CENSUS, None, values)
        self.assertEqual(failed, workloads.census_pairs()["embedding"])
        self.assertEqual(len(problems), 1)


if __name__ == "__main__":
    unittest.main()
