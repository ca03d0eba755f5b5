"""Tests of the benchmark's metric math.

    python3 -m unittest discover -s e2ebench -p 'test_*.py'
"""

import json
import os
import unittest

import metrics
import run

# Simulated exec ticks of fig14's Base-CSSD / SkyByte-Full / DRAM-Only
# points at 150k instr/thread, seed 42: the run behind the repository's
# "SkyByte-Full 3.94x, DRAM-Only 109.5x over Base-CSSD" figures.
FIG14_SEED42 = {
    "bc": (760054274, 144926951, 5008463),
    "bfs-dense": (2105802436, 163658568, 6136426),
    "dlrm": (64634485, 30203082, 1862590),
    "radix": (154752477, 38745744, 3073336),
    "srad": (775547023, 117780681, 1469847),
    "tpcc": (42092262, 22784728, 654397),
    "ycsb": (168402221, 80271852, 2750454),
}
VARIANTS = ("Base-CSSD", "SkyByte-Full", "DRAM-Only")


def fig14_ticks():
    return {(app, v): t for app, ticks in FIG14_SEED42.items()
            for v, t in zip(VARIANTS, ticks)}


def record(app, variant, status="ok", wall=1.0, instr=1000, expected=1000,
           ticks=100, setup=0.1):
    rec = {"kind": "point", "id": f"{app}/{variant}", "app": app,
           "variant": variant, "status": status, "wall_s": wall,
           "limit_s": 30, "maxrss_kb": 2048, "expected_instr": expected}
    if status == "ok":
        rec["setup_s"] = setup
        result = {"variant": variant, "workload": app, "timed_out": False,
                  "exec_time_ticks": ticks, "committed_instructions": instr}
        for key in metrics.SSD_TRAFFIC:
            result[key] = 0 if variant == "DRAM-Only" else 1
        rec["result"] = json.dumps(result)
    return rec


class PaperAggregates(unittest.TestCase):
    def test_fig14_speedups(self):
        ticks = fig14_ticks()
        self.assertAlmostEqual(
            metrics.pair_geomean(ticks, "Base-CSSD", "SkyByte-Full"),
            3.94, places=2)
        self.assertAlmostEqual(
            metrics.pair_geomean(ticks, "Base-CSSD", "DRAM-Only"),
            109.5, delta=0.05)

    def test_fig14_errors(self):
        speedup_err, gap_err = metrics.paper_errors(fig14_ticks())
        # |3.94 - 6.11| / 6.11 and |3.94 / 109.5 - 0.75| / 0.75
        self.assertAlmostEqual(speedup_err, 35.5, delta=0.1)
        self.assertAlmostEqual(gap_err, 95.2, delta=0.1)

    def test_failed_side_is_a_full_miss(self):
        ticks = fig14_ticks()
        ticks[("radix", "Base-CSSD")] = None
        speedup_err, _ = metrics.paper_errors(ticks)
        self.assertEqual(speedup_err, 100.0)

    def test_geomean(self):
        self.assertAlmostEqual(metrics.geomean([2.0, 8.0]), 4.0)
        self.assertEqual(metrics.geomean([3.0, 0.0]), 0.0)
        with self.assertRaises(ValueError):
            metrics.geomean([])


class InjectedFailure(unittest.TestCase):
    def setUp(self):
        self.recs = [
            record("radix", "Base-CSSD", status="signal:11", wall=2.0),
            record("radix", "SkyByte-Full", wall=3.0, instr=3_000_000,
                   expected=3_000_000, ticks=50),
            record("radix", "DRAM-Only", wall=1.0, instr=1_000_000,
                   expected=1_000_000, ticks=10),
        ]
        self.ids = [r["id"] for r in self.recs]

    def test_fail_ratio_and_throughput(self):
        values, attempted, failed = metrics.end_to_end(
            self.ids, self.recs, {"radix/SkyByte-Full": [0.2]})
        self.assertEqual((attempted, failed), (3, 1))
        self.assertAlmostEqual(values["point_ok_ratio"][0], 2 / 3)
        # 4M instructions from completed points / 6 s of all points.
        self.assertAlmostEqual(values["sim_minstr_per_s"][0], 4.0 / 6.0)
        # The failed point is charged its 30 s limit, not its 2 s.
        self.assertAlmostEqual(values["sweep_s"][0], 30.0 + 3.0 + 1.0)
        self.assertAlmostEqual(values["setup_s"][0], 0.2)
        self.assertEqual(values["speedup_err_pct"][0], 100.0)
        self.assertAlmostEqual(values["dram_gap_err_pct"][0],
                               100 * abs(10 / 50 - 0.75) / 0.75)

    def test_short_commit_and_sim_timeout_fail(self):
        short = record("bc", "SkyByte-W", instr=999, expected=1000)
        self.assertEqual(metrics.failure(short), "short_commit")
        stuck = record("bc", "SkyByte-P")
        stuck["result"] = stuck["result"].replace(
            '"timed_out": false', '"timed_out": true')
        self.assertEqual(metrics.failure(stuck), "sim_timed_out")

    def test_consistency(self):
        again = record("radix", "SkyByte-Full", ticks=51)
        self.assertEqual(metrics.consistency_errors(self.recs), [])
        self.assertEqual(len(metrics.consistency_errors(
            self.recs + [again])), 1)

    def test_ssd_traffic_must_match_variant(self):
        leaky = record("bc", "DRAM-Only")
        leaky["result"] = leaky["result"].replace(
            '"cxl_bytes": 0', '"cxl_bytes": 64')
        idle = record("bc", "SkyByte-W")
        for key in metrics.SSD_TRAFFIC:
            idle["result"] = idle["result"].replace(f'"{key}": 1',
                                                    f'"{key}": 0')
        self.assertEqual(len(metrics.consistency_errors([leaky, idle])), 2)

    def test_digest_tracks_results_and_failures(self):
        base = metrics.digest(self.ids, self.recs)
        fixed = [record("radix", "Base-CSSD")] + self.recs[1:]
        self.assertNotEqual(base, metrics.digest(self.ids, fixed))
        self.assertEqual(base, metrics.digest(self.ids, list(self.recs)))


class BenchmarkJson(unittest.TestCase):
    def test_metric_lists_match(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        with open(path) as f:
            bench = json.load(f)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
            [(n, u, b) for n, u, b, _ in run.LAYER_METRICS])
        values, _, _ = metrics.end_to_end(
            ["a/SkyByte-Full", "a/Base-CSSD", "a/DRAM-Only"],
            [record("a", "SkyByte-Full"), record("a", "Base-CSSD"),
             record("a", "DRAM-Only")], {})
        self.assertEqual(
            [(m["name"], m["unit"]) for m in bench["end_to_end"]],
            [(n, u) for n, (_, u) in values.items()])
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
