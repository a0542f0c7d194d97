#!/usr/bin/env python3
"""Run one workload K times and print every metric's median and spread.

    python3 perfbench/repeat.py --workload paper_suite --runs 10 [--sets 2]
                                [--seconds 30] [--trace 0] [--seed 1]

Run from the repository root. Each run is a separate process through
perfbench/run.py with its own seed (consecutive seeds, so the lane that goes
first alternates from run to run). For each set of runs the table gives the
median, the first and third quartile (statistics.quantiles, n=4) and the
quartile spread as a share of the median. With --sets 2 or more, every later
set's median is compared with the first set's against the metric's bound in
BENCHMARK.json, and the share of failed operations must match exactly; the
exit code is 1 when a spread or a median is outside its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def cpu_ticks():
    """Host-wide (busy, steal) jiffies from /proc/stat; zeros where absent."""
    try:
        with open("/proc/stat") as f:
            v = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    steal = v[7] if len(v) > 7 else 0
    return sum(v) - v[3] - (v[4] if len(v) > 4 else 0), steal


def run_once(workload, seed, seconds, trace):
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=False)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        raise SystemExit(f"run failed: {workload} seed {seed} (exit {proc.returncode})")
    result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    return result, wall


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.runs < 2:
        raise SystemExit("--runs must be at least 2")

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    ok = True
    sets = []
    for s in range(args.sets):
        values, fail_share, walls = {}, set(), []
        for i in range(args.runs):
            seed = args.seed + s * args.runs + i
            busy0, steal0 = cpu_ticks()
            result, wall = run_once(args.workload, seed, seconds, args.trace)
            busy1, steal1 = cpu_ticks()
            walls.append(wall)
            steal = (steal1 - steal0) / max(1, busy1 - busy0)
            print(f"seed {seed}: {wall:.1f} s, host steal {steal:.1%} of busy time: " +
                  " ".join(f"{k}={m['value']:.4g}" for k, m in sorted(result["metrics"].items())),
                  flush=True)
            if not result["correct"]:
                print(f"seed {seed}: correct = false")
                ok = False
            fail_share.add(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"\n{args.workload} set {s + 1}: {args.runs} runs of {seconds} s, "
              f"wall per run {min(walls):.1f}-{max(walls):.1f} s, "
              f"failed share {sorted(fail_share)}")
        print(f"{'metric':40s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'iqr/med':>8s}")
        for name, vals in sorted(values.items()):
            med, q1, q3, rel = spread(vals)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and rel > bound:
                flag = "  SPREAD > bound"
                ok = False
            elif bound is not None and name != "setup_s" and rel > bound / 3:
                flag = "  spread > bound/3"
            print(f"{name:40s} {med:14.6g} {q1:14.6g} {q3:14.6g} {rel:8.4f}{flag}")
        sets.append((values, fail_share))

    base_values, base_fail = sets[0]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    for k, (values, fail_share) in enumerate(sets[1:], start=2):
        print(f"\nset {k} against set 1:")
        if fail_share != base_fail:
            print(f"  failed share differs: {sorted(fail_share)} vs {sorted(base_fail)}")
            ok = False
        for name, bound in bounds.items():
            if name not in values or name not in base_values:
                continue
            m1 = statistics.median(base_values[name])
            m2 = statistics.median(values[name])
            worse = (m2 - m1) / m1 if better[name] == "lower" else (m1 - m2) / m1
            verdict = "ok" if worse <= bound else "WORSE than bound"
            if worse > bound:
                ok = False
            print(f"  {name:38s} {m1:12.6g} -> {m2:12.6g}  worse by {worse:+.4f} "
                  f"(bound {bound})  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
