#!/usr/bin/env python3
"""Measure run-to-run spread of the benchmark's end-to-end metrics.

Runs one workload once per seed and prints, for every metric, the
median, the interquartile range as a share of the median (as
statistics.quantiles(values, n=4) gives the quartiles), and that share
over the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --workload serve_mixed --seeds 1-10

Run from the root of a checkout; --seconds defaults to BENCHMARK.json's
run_seconds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect output\n{proc.stdout}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
            file=sys.stderr)

    print(f"{'metric':36} {'median':>14} {'iqr/med':>9} {'/bound':>7}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4)
        share = (q[2] - q[0]) / med if med else 0.0
        bound = bounds.get(name)
        over = f"{share / bound:7.2f}" if bound else "      -"
        print(f"{name:36} {med:14.6g} {share:9.4f} {over}")


if __name__ == "__main__":
    main()
