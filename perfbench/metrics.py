"""Arithmetic of the end-to-end benchmark.

e2e_bench (C++) measures and prints one raw record per run; this module
turns that record into the benchmark's metrics.  Everything here is pure
and covered by test_metrics.py.
"""

import math
import statistics

# Name -> unit.  BENCHMARK.json lists exactly these (test_metrics.py).
END_TO_END = {
    "goodput_MBps": "MB/s",
    "cpu_s_per_GB": "s/GB",
    "tx_per_pkt": "ratio",
    "completion_p50_ms": "ms",
    "completion_p99_ms": "ms",
    "rss_peak_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "fec.encode_ns_per_parity": "ns",
    "fec.decode_ns_per_tg": "ns",
    "fec.seal_ns_per_frame": "ns",
    "fec.parse_ns_per_frame": "ns",
    "net.udp.send_ns_per_frame": "ns",
    "net.udp.recv_ns_per_frame": "ns",
    "net.frame_decode_ns_per_frame": "ns",
    "net.guard_ns_per_check": "ns",
    "core.journal_ns_per_append": "ns",
    "server.admit_us_p50": "us",
    "server.admit_us_p99": "us",
    "server.busy_frac": "frac",
    "server.timer_slip_p50_us": "us",
    "server.timer_slip_p99_us": "us",
    "server.np.poll_retry_frac": "frac",
    "server.np.polls_per_tg": "count",
    "server.np.feedback_per_tg": "count",
    "server.np.drain_end_frac": "frac",
    "obs.snapshot_ms": "ms",
    "load.gen_late_p50_us": "us",
    "load.gen_late_p99_us": "us",
    "ledger.encode_ns_per_pkt": "ns",
    "ledger.decode_ns_per_pkt": "ns",
    "ledger.seal_ns_per_pkt": "ns",
    "ledger.parse_ns_per_pkt": "ns",
    "ledger.send_ns_per_pkt": "ns",
    "ledger.recv_ns_per_pkt": "ns",
    "ledger.cpu_ns_per_pkt": "ns",
    "ledger.unattributed_frac": "frac",
    "analysis.np_throughput_ratio": "ratio",
    "analysis.tx_per_pkt_ratio": "ratio",
}

# Ledger layers.  Those a workload may not call at all (the salvage-only
# frame decoder, the guard and journal when switched off) are printed in
# the report and counted in the sum, but are not per-layer metrics: their
# value would read exactly 0 on every run of such a workload.
LEDGER_LAYERS = ("encode", "decode", "seal", "parse", "send", "recv",
                 "frame_decode", "guard", "journal")
LEDGER_METRICS = ("encode", "decode", "seal", "parse", "send", "recv")

# A percentile is reported as supported when at least this many samples
# lie beyond it.
MIN_BEYOND = 10


def percentile(samples, q):
    """Nearest-rank q-quantile (0 < q <= 1) of a non-empty sample."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError("q must lie in (0, 1]")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


def samples_beyond(n, q):
    """How many of n samples lie strictly beyond the nearest-rank q-quantile."""
    if n == 0:
        return 0
    return n - max(1, math.ceil(q * n - 1e-9))


def percentile_supported(n, q):
    return samples_beyond(n, q) >= MIN_BEYOND


def highest_supported_percentile(n):
    """Largest q (in 1/1000 steps) with MIN_BEYOND samples beyond it, or None."""
    best = None
    for milli in range(500, 1000):
        q = milli / 1000.0
        if percentile_supported(n, q):
            best = q
    return best


def tail_quantile(n, q=0.99):
    """q, or the highest percentile with MIN_BEYOND samples beyond it when n
    is too small for q (the median when even that is unsupported)."""
    if percentile_supported(n, q):
        return q
    return highest_supported_percentile(n) or 0.5


def count_beyond(samples, value):
    """How many samples lie strictly beyond value."""
    return sum(1 for x in samples if x > value)


def tail_latency(raw):
    """completion_p99_ms as (value, q, samples beyond it, per-trial median?).

    Closed loops pool every trial's samples.  An open loop's trial
    processes are equal slices of one arrival process, so its tail is the
    median of the trials' own q-quantiles: a burst of host contention that
    inflates one or two trials' tails does not carry the run's figure,
    while a change that slows every trial moves it.  q is the pooled
    sample's tail quantile, and the pooled figure is used instead when
    fewer than MIN_BEYOND of the run's samples lie beyond the median.
    """
    lat = raw["completion_ms"]
    q = tail_quantile(len(lat))
    by_trial = [s for s in raw.get("completion_ms_by_trial", ()) if s]
    if raw["params"]["open_loop"] and by_trial:
        value = statistics.median(percentile(s, q) for s in by_trial)
        beyond = count_beyond(lat, value)
        if beyond >= MIN_BEYOND:
            return value, q, beyond, True
    value = percentile(lat, q)
    return value, q, count_beyond(lat, value), False


def failed_fraction(attempted, failed):
    """Failed, refused, mismatched or redelivered sessions over all attempted."""
    if attempted < 1:
        raise ValueError("no session was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted


def backlog_growing(series, min_samples=8):
    """True when an open loop's active-session count climbs to the end.

    The window's samples are cut into quarters; the backlog grows when the
    quarter means rise monotonically and the last is more than double the
    first (plus a small absolute margin for near-empty queues).
    """
    if len(series) < min_samples:
        return False
    n = len(series)
    quarters = [series[i * n // 4:(i + 1) * n // 4] for i in range(4)]
    means = [statistics.fmean(q) for q in quarters]
    rising = all(a < b for a, b in zip(means, means[1:]))
    return rising and means[3] > 2.0 * means[0] + 4.0


def merge(records):
    """Joins the raw records of one run's trial processes into one."""
    first = records[0]
    out = {key: first[key] for key in ("workload", "seed", "trace", "params")}
    out["attempted"] = sum(r["attempted"] for r in records)
    out["failed"] = sum(r["failed"] for r in records)
    out["rss_peak_mb"] = max(r["rss_peak_mb"] for r in records)
    for key in ("violations", "trials", "completion_ms", "gen_late_us",
                "admit_us", "slip_us", "snapshot_ms"):
        if key in first:
            out[key] = [x for r in records for x in r[key]]
    out["completion_ms_by_trial"] = [r["completion_ms"] for r in records]
    for key in ("probes", "analysis"):
        for r in records:
            if key in r:
                out[key] = r[key]
    return out


def _sum_counters(trials):
    total = {}
    for t in trials:
        for key, value in t["counters"].items():
            total[key] = total.get(key, 0.0) + value
    return total


def _ratio(num, den):
    return num / den if den else 0.0


def _tx_per_pkt(c):
    return (c["data_sent"] + c["parity_sent"]) / c["data_sent"]


def end_to_end(raw):
    trials = raw["trials"]
    counters = _sum_counters(trials)
    if counters["data_sent"] <= 0:
        raise ValueError("no session finished inside the measured window")
    goodput = [t["bytes"] / t["wall_s"] / 1e6 for t in trials]
    cpu = [t["cpu_s"] / (t["bytes"] / 1e9) for t in trials if t["bytes"] > 0]
    lat = raw["completion_ms"]
    return {
        "goodput_MBps": statistics.median(goodput),
        "cpu_s_per_GB": statistics.median(cpu),
        "tx_per_pkt": _tx_per_pkt(counters),
        "completion_p50_ms": percentile(lat, 0.50),
        "completion_p99_ms": tail_latency(raw)[0],
        "rss_peak_mb": raw["rss_peak_mb"],
        "setup_s": statistics.median(t["setup_s"] for t in trials),
    }


def ledger(raw):
    """ns per delivered packet for each layer: probe ns per call times the
    layer's calls per delivered packet, counted by the run itself.

    A delivered packet is one data packet reconstructed by one member.
    """
    p = raw["probes"]
    par = raw["params"]
    c = _sum_counters(raw["trials"])
    r = par["receivers"]
    delivered = c["data_sent"] * r
    if delivered <= 0:
        raise ValueError("ledger needs delivered packets")
    feedback = c["naks_received"] + c["acks_received"]
    # One end-of-session marker per session rides the POLL path.
    sender_frames = c["data_sent"] + c["parity_sent"] + c["polls_sent"] + c["sessions"]
    wire_frames = sender_frames * r + feedback
    # receive_batch parses each datagram itself: its self time is the
    # probe minus the parse probe, so parse is not counted twice.
    recv_self = max(0.0, p["net.udp.recv_ns_per_frame"] - p["fec.parse_ns_per_frame"])
    calls_ns = {
        "encode": c["parity_sent"] * p["fec.encode_ns_per_parity"],
        "decode": c["tgs_completed"] * r * p["fec.decode_ns_per_tg"],
        "seal": (sender_frames + feedback) * p["fec.seal_ns_per_frame"],
        "parse": wire_frames * p["fec.parse_ns_per_frame"],
        "send": wire_frames * p["net.udp.send_ns_per_frame"],
        "recv": wire_frames * recv_self,
        "frame_decode": c["frames_skipped"] * p["net.frame_decode_ns_per_frame"],
        "guard": feedback * p["net.guard_ns_per_check"] if par["guard"] else 0.0,
        # A parity round journals its high-water and a TG its completion:
        # every POLL that was not a retry ends in one of the two.
        "journal": (c["polls_sent"] - c["poll_retries"]) * p["core.journal_ns_per_append"]
        if par["journal"] else 0.0,
    }
    out = {f"{layer}_ns_per_pkt": calls_ns[layer] / delivered for layer in LEDGER_LAYERS}
    cpu_ns = 1e9 * sum(t["cpu_s"] for t in raw["trials"]) / delivered
    out["cpu_ns_per_pkt"] = cpu_ns
    out["sum_ns_per_pkt"] = sum(out[f"{layer}_ns_per_pkt"] for layer in LEDGER_LAYERS)
    out["unattributed_frac"] = 1.0 - out["sum_ns_per_pkt"] / cpu_ns
    return out


def per_layer(raw):
    p = raw["probes"]
    trials = raw["trials"]
    c = _sum_counters(trials)
    wall = sum(t["wall_s"] for t in trials)
    led = ledger(raw)
    late = raw["gen_late_us"]
    measured_pps = c["data_sent"] / wall
    out = {name: p[name] for name in PER_LAYER if name in p}
    out.update({
        "server.admit_us_p50": percentile(raw["admit_us"], 0.50),
        "server.admit_us_p99": percentile(raw["admit_us"], 0.99),
        "server.busy_frac": sum(t["busy_cpu_s"] for t in trials) / wall,
        "server.timer_slip_p50_us": percentile(raw["slip_us"], 0.50),
        "server.timer_slip_p99_us": percentile(raw["slip_us"], 0.99),
        "server.np.poll_retry_frac": _ratio(c["poll_retries"], c["polls_sent"]),
        "server.np.polls_per_tg": _ratio(c["polls_sent"], c["tgs_completed"]),
        "server.np.feedback_per_tg": _ratio(c["naks_received"] + c["acks_received"],
                                            c["tgs_completed"]),
        "server.np.drain_end_frac": _ratio(c["drain_ends"], c["sessions"]),
        "obs.snapshot_ms": statistics.median(raw["snapshot_ms"]),
        "load.gen_late_p50_us": percentile(late, 0.50),
        "load.gen_late_p99_us": percentile(late, 0.99),
        "ledger.cpu_ns_per_pkt": led["cpu_ns_per_pkt"],
        "ledger.unattributed_frac": led["unattributed_frac"],
        "analysis.np_throughput_ratio": raw["analysis"]["np_throughput_pps"] / measured_pps,
        "analysis.tx_per_pkt_ratio": _tx_per_pkt(c) / raw["analysis"]["expected_tx_per_pkt"],
    })
    for layer in LEDGER_METRICS:
        out[f"ledger.{layer}_ns_per_pkt"] = led[f"{layer}_ns_per_pkt"]
    return out


def result(raw, trace):
    """The benchmark's final record: correctness, counts and metrics."""
    names = PER_LAYER if trace else END_TO_END
    values = per_layer(raw) if trace else end_to_end(raw)
    invalid = []
    if raw["violations"]:
        invalid.append("integrity")
    if raw["params"]["open_loop"] and any(
            backlog_growing(t["active_series"]) for t in raw["trials"]):
        invalid.append("backlog_growing")
    return {
        "correct": not invalid,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in names.items()},
    }, invalid
