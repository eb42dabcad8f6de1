#!/usr/bin/env python3
"""End-to-end benchmark of the multicast server (see README.md).

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 20 --trace 0

Run from the repository root.  Builds the server libraries and the
measuring program (e2e_bench) into .bench_build/ on first use, runs one workload
(or every workload with --workload all), prints a report with every
metric and its unit, and as the last line of stdout one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Exits 1 when an
integrity check fails or the build or e2e_bench does.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("bulk", "repair", "arrivals")
BUILD_ROOT = ".bench_build"
# e2e_bench processes per run: set-up is timed once per process and
# reported as the median; goodput and CPU per GB are medians too.  The
# open loop runs more, shorter processes: a process holds every session
# it served (README.md, "Behaviour"), so its snapshot stalls grow with
# its length, and on a shared host long stalls get stretched by
# preemption and make the tail swing from run to run.
TRIALS = {"bulk": 5, "repair": 5, "arrivals": 10}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures and builds e2e_bench; returns its path or None."""
    build_dir = os.path.join(BUILD_ROOT, "perfbench")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(build_dir)  # configured for another checkout
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", "e2e_bench", "-j", jobs]]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, check=False)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log(f"run.py: build step failed: {' '.join(cmd)}")
            return None
    return os.path.join(build_dir, "e2e_bench")


def run_trial(binary, workload, seed, seconds, trace, trial, probes):
    workdir = os.path.join(BUILD_ROOT, "work", str(os.getpid()))
    cmd = [binary, f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}", f"--trial={trial}",
           f"--probes={int(probes)}", f"--workdir={workdir}"]
    try:
        # Set-up is timed from here: e2e_bench reads the same clock.
        cmd.append(f"--spawned-at={time.monotonic():.9f}")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=seconds + 45, check=False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log(f"run.py: e2e_bench exited with {proc.returncode}")
        return None
    return json.loads(lines[-1])


def run_trials(binary, workload, seed, seconds, trace):
    """Runs the workload's e2e_bench processes and merges their records."""
    records = []
    trials = TRIALS[workload]
    for trial in range(trials):
        rec = run_trial(binary, workload, seed, seconds / trials, trace, trial,
                        probes=trace and trial == trials - 1)
        if rec is None:
            return None
        records.append(rec)
    return metrics.merge(records)


def fmt(value):
    return f"{value:.6g}"


def report(raw, res, invalid, trace):
    name = raw["workload"]
    out = [f"== {name} (seed {int(raw['seed'])}, trace {trace}) =="]
    for metric, entry in res["metrics"].items():
        out.append(f"  {metric:34s} {fmt(entry['value']):>12s} {entry['unit']}")
    n = len(raw["completion_ms"])
    _, q, beyond, by_trial = metrics.tail_latency(raw)
    how = (f"median of {len(raw['completion_ms_by_trial'])} trial processes' p{100 * q:g}"
           if by_trial else f"p{100 * q:g}")
    out.append(f"  completion samples: {n}; completion_p99_ms is {how}, "
               f"{beyond} samples beyond it")
    cpu = sum(t["cpu_s"] for t in raw["trials"])
    sys_cpu = sum(t["cpu_sys_s"] for t in raw["trials"])
    out.append(f"  kernel share of CPU in the window: {fmt(sys_cpu / cpu)}")
    frac = metrics.failed_fraction(res["attempted"], res["failed"])
    out.append(f"  sessions_failed_frac {fmt(frac)} "
               f"({res['failed']} of {res['attempted']} attempted)")
    if trace:
        led = metrics.ledger(raw)
        out.append("  ledger (ns per delivered packet):")
        for layer in metrics.LEDGER_LAYERS:
            out.append(f"    {layer:14s} {fmt(led[layer + '_ns_per_pkt']):>12s}")
        out.append(f"    {'sum':14s} {fmt(led['sum_ns_per_pkt']):>12s}")
        out.append(f"    {'measured cpu':14s} {fmt(led['cpu_ns_per_pkt']):>12s}")
        a = raw["analysis"]
        costs = ", ".join(f"{k}={fmt(1e6 * v)}" for k, v in a["costs_s"].items())
        out.append(f"  fitted ProcessingCosts (us): {costs}")
        out.append(f"  paper model: NP sender {fmt(a['np_sender_pps'])} pps, "
                   f"receiver {fmt(a['np_receiver_pps'])} pps, "
                   f"E[M] {fmt(a['expected_tx_per_pkt'])}")
    for v in raw["violations"][:20]:
        out.append(f"  VIOLATION {v}")
    if len(raw["violations"]) > 20:
        out.append(f"  ... and {len(raw['violations']) - 20} more violations")
    for why in invalid:
        out.append(f"  INVALID: {why}")
    print("\n".join(out), flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 1
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        raw = run_trials(binary, name, args.seed, args.seconds, args.trace)
        if raw is None:
            return 1
        try:
            res, invalid = metrics.result(raw, args.trace == 1)
        except ValueError as e:  # e.g. every session failed: nothing to measure
            for v in raw["violations"][:20]:
                print(f"  VIOLATION {v}")
            log(f"run.py: {name}: no metrics: {e}")
            return 1
        report(raw, res, invalid, args.trace)
        results[name] = res
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
