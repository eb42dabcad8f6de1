"""Tests for the benchmark's own arithmetic (metrics.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import unittest

import metrics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def raw_record(**over):
    """A small synthetic e2e_bench record: two trials, every field set."""
    counters = {
        "sessions": 10.0, "data_sent": 1000.0, "parity_sent": 50.0,
        "polls_sent": 120.0, "naks_received": 40.0, "acks_received": 400.0,
        "poll_retries": 20.0, "tgs_completed": 100.0, "drain_ends": 1.0,
        "frames_skipped": 0.0,
    }
    trial = {"setup_s": 0.5, "wall_s": 2.0, "cpu_s": 1.0, "bytes": 4e6,
             "busy_cpu_s": 1.5, "cpu_sys_s": 0.5, "counters": counters,
             "active_series": [4.0] * 20}
    raw = {
        "workload": "bulk", "seed": 1.0, "trace": 1.0,
        "params": {"open_loop": False, "receivers": 4.0, "k": 10.0,
                   "guard": True, "journal": True},
        "attempted": 25.0, "failed": 0.0, "violations": [],
        "rss_peak_mb": 50.0,
        "trials": [dict(trial), dict(trial, setup_s=0.7, bytes=2e6)],
        "completion_ms": [float(i) for i in range(1, 1001)],
        "gen_late_us": [1.0, 2.0, 3.0],
        "admit_us": [10.0, 20.0, 30.0],
        "slip_us": [100.0, 200.0, 300.0],
        "snapshot_ms": [1.0, 2.0, 9.0],
        "probes": {
            "fec.encode_ns_per_parity": 1000.0, "fec.decode_ns_per_tg": 5000.0,
            "fec.seal_ns_per_frame": 100.0,
            "fec.parse_ns_per_frame": 50.0, "net.udp.send_ns_per_frame": 800.0,
            "net.udp.recv_ns_per_frame": 300.0,
            "net.frame_decode_ns_per_frame": 70.0,
            "net.guard_ns_per_check": 60.0,
            "core.journal_ns_per_append": 2000.0,
            "server.timer_ns_per_fire": 40.0,
        },
        "analysis": {"np_throughput_pps": 2000.0, "expected_tx_per_pkt": 1.05,
                     "np_sender_pps": 2000.0, "np_receiver_pps": 3000.0,
                     "costs_s": {"xp": 1e-6}},
    }
    raw.update(over)
    return raw


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        xs = [float(i) for i in range(1, 101)]
        self.assertEqual(metrics.percentile(xs, 0.5), 50.0)
        self.assertEqual(metrics.percentile(xs, 0.99), 99.0)
        self.assertEqual(metrics.percentile(xs, 1.0), 100.0)
        self.assertEqual(metrics.percentile([7.0], 0.99), 7.0)
        self.assertEqual(metrics.percentile([3.0, 1.0, 2.0], 0.5), 2.0)

    def test_rejects_empty_and_bad_q(self):
        with self.assertRaises(ValueError):
            metrics.percentile([], 0.5)
        with self.assertRaises(ValueError):
            metrics.percentile([1.0], 0.0)

    def test_ten_beyond_rule(self):
        # p99 needs 1000 samples before ten lie beyond it.
        self.assertEqual(metrics.samples_beyond(1000, 0.99), 10)
        self.assertTrue(metrics.percentile_supported(1000, 0.99))
        self.assertEqual(metrics.samples_beyond(999, 0.99), 9)
        self.assertFalse(metrics.percentile_supported(999, 0.99))
        self.assertTrue(metrics.percentile_supported(20, 0.5))
        self.assertEqual(metrics.highest_supported_percentile(1000), 0.99)
        self.assertEqual(metrics.highest_supported_percentile(200), 0.95)
        self.assertIsNone(metrics.highest_supported_percentile(19))

    def test_tail_quantile_falls_back_to_supported(self):
        self.assertEqual(metrics.tail_quantile(5000), 0.99)
        self.assertEqual(metrics.tail_quantile(1000), 0.99)
        self.assertEqual(metrics.tail_quantile(200), 0.95)
        self.assertEqual(metrics.tail_quantile(19), 0.5)


class FailedFractionTest(unittest.TestCase):
    def test_denominator_is_attempted(self):
        # Refused sessions never reach the server but were attempted.
        self.assertEqual(metrics.failed_fraction(attempted=40, failed=2), 0.05)
        self.assertEqual(metrics.failed_fraction(attempted=1, failed=0), 0.0)

    def test_rejects_impossible_counts(self):
        with self.assertRaises(ValueError):
            metrics.failed_fraction(attempted=0, failed=0)
        with self.assertRaises(ValueError):
            metrics.failed_fraction(attempted=3, failed=4)


class BacklogTest(unittest.TestCase):
    def test_growing_backlog(self):
        self.assertTrue(metrics.backlog_growing([float(i) for i in range(40)]))

    def test_steady_or_short_backlog(self):
        self.assertFalse(metrics.backlog_growing([5.0, 9.0, 4.0, 8.0] * 10))
        self.assertFalse(metrics.backlog_growing([1.0, 2.0, 3.0]))
        # Rising but small: a near-empty queue wandering by one or two.
        self.assertFalse(metrics.backlog_growing([0.0] * 10 + [1.0] * 10 +
                                                 [2.0] * 10 + [3.0] * 10))


class MergeTest(unittest.TestCase):
    def test_trial_records_join(self):
        a = raw_record(attempted=10.0, failed=1.0, rss_peak_mb=40.0,
                       violations=["t0:1:failed"])
        b = raw_record(attempted=12.0, failed=0.0, rss_peak_mb=60.0)
        del a["probes"]  # only the last trial process runs the probes
        merged = metrics.merge([a, b])
        self.assertEqual(merged["attempted"], 22.0)
        self.assertEqual(merged["failed"], 1.0)
        self.assertEqual(merged["rss_peak_mb"], 60.0)
        self.assertEqual(merged["violations"], ["t0:1:failed"])
        self.assertEqual(len(merged["trials"]), 4)
        self.assertEqual(len(merged["completion_ms"]), 2000)
        self.assertEqual([len(t) for t in merged["completion_ms_by_trial"]], [1000, 1000])
        self.assertEqual(merged["probes"], b["probes"])


class EndToEndTest(unittest.TestCase):
    def test_values(self):
        e = metrics.end_to_end(raw_record())
        self.assertAlmostEqual(e["goodput_MBps"], 1.5)      # median of 2, 1
        self.assertAlmostEqual(e["cpu_s_per_GB"], 375.0)    # median of 250, 500
        self.assertAlmostEqual(e["tx_per_pkt"], 1.05)
        self.assertEqual(e["completion_p50_ms"], 500.0)
        self.assertEqual(e["completion_p99_ms"], 990.0)
        small = metrics.end_to_end(raw_record(completion_ms=[float(i) for i in range(1, 201)]))
        self.assertEqual(small["completion_p99_ms"], 190.0)  # p95: ten beyond
        self.assertAlmostEqual(e["setup_s"], 0.6)
        self.assertEqual(e["rss_peak_mb"], 50.0)


class TailLatencyTest(unittest.TestCase):
    @staticmethod
    def open_loop(by_trial):
        raw = raw_record(completion_ms=[x for t in by_trial for x in t],
                         completion_ms_by_trial=by_trial)
        raw["params"] = dict(raw["params"], open_loop=True)
        return raw

    def test_open_loop_takes_the_median_trial(self):
        steady = [float(i) for i in range(1, 401)]  # p99 of each: 396
        stalled = [x + 1000.0 for x in steady]
        raw = self.open_loop([steady, stalled, steady, steady, stalled])
        value, q, beyond, by_trial = metrics.tail_latency(raw)
        self.assertTrue(by_trial)
        self.assertEqual(q, 0.99)
        self.assertEqual(value, 396.0)
        # Pooled, the two stalled trials would own the whole tail.
        self.assertEqual(metrics.percentile(raw["completion_ms"], 0.99), 1390.0)
        self.assertEqual(beyond, 3 * 4 + 2 * 400)
        self.assertEqual(metrics.end_to_end(raw)["completion_p99_ms"], 396.0)

    def test_pooled_when_too_few_beyond_the_median(self):
        # 1002 samples, but the trials' median p99 (2.0) has six beyond it.
        tailed = [1.0] * 326 + [2.0] * 5 + [3.0] * 3
        trials = [tailed, tailed, [1.0] * 334]
        value, q, beyond, by_trial = metrics.tail_latency(self.open_loop(trials))
        self.assertEqual(q, 0.99)
        self.assertFalse(by_trial)
        self.assertEqual(value, metrics.percentile(tailed * 2 + trials[2], 0.99))

    def test_closed_loops_pool(self):
        value, _, beyond, by_trial = metrics.tail_latency(raw_record())
        self.assertFalse(by_trial)
        self.assertEqual((value, beyond), (990.0, 10))
        self.assertEqual(metrics.count_beyond([1.0, 2.0, 2.0, 3.0], 2.0), 1)


class LedgerTest(unittest.TestCase):
    def test_layers_sum_and_residue(self):
        raw = raw_record()
        led = metrics.ledger(raw)
        delivered = 2 * 1000.0 * 4
        feedback = 2 * 440.0
        sender = 2 * (1000.0 + 50 + 120 + 10)
        wire = sender * 4 + feedback
        expect = {
            "encode": 2 * 50 * 1000.0,
            "decode": 2 * 100 * 4 * 5000.0,
            "seal": (sender + feedback) * 100.0,
            "parse": wire * 50.0,
            "send": wire * 800.0,
            "recv": wire * (300.0 - 50.0),
            "frame_decode": 0.0,
            "guard": feedback * 60.0,
            "journal": 2 * (120 - 20) * 2000.0,
        }
        for layer, ns in expect.items():
            self.assertAlmostEqual(led[f"{layer}_ns_per_pkt"], ns / delivered)
        total = sum(expect.values()) / delivered
        self.assertAlmostEqual(led["sum_ns_per_pkt"], total)
        cpu = 1e9 * 2.0 / delivered
        self.assertAlmostEqual(led["cpu_ns_per_pkt"], cpu)
        self.assertAlmostEqual(led["unattributed_frac"], 1.0 - total / cpu)

    def test_switched_off_layers_cost_nothing(self):
        raw = raw_record()
        raw["params"] = dict(raw["params"], guard=False, journal=False)
        led = metrics.ledger(raw)
        self.assertEqual(led["guard_ns_per_pkt"], 0.0)
        self.assertEqual(led["journal_ns_per_pkt"], 0.0)


class ResultTest(unittest.TestCase):
    def test_names_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            bench = json.load(f)
        e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
        raw = raw_record()
        untraced, _ = metrics.result(raw, trace=False)
        traced, _ = metrics.result(raw, trace=True)
        self.assertEqual({k: v["unit"] for k, v in untraced["metrics"].items()}, e2e)
        self.assertEqual({k: v["unit"] for k, v in traced["metrics"].items()}, layer)
        self.assertEqual(sorted(untraced), ["attempted", "correct", "failed", "metrics"])

    def test_violations_and_backlog_make_the_run_incorrect(self):
        res, invalid = metrics.result(raw_record(violations=["t0:3:failed"]), False)
        self.assertFalse(res["correct"])
        self.assertEqual(invalid, ["integrity"])
        raw = raw_record()
        raw["params"] = dict(raw["params"], open_loop=True)
        raw["trials"][1] = dict(raw["trials"][1],
                                active_series=[float(i) for i in range(40)])
        res, invalid = metrics.result(raw, False)
        self.assertFalse(res["correct"])
        self.assertEqual(invalid, ["backlog_growing"])


if __name__ == "__main__":
    unittest.main()
