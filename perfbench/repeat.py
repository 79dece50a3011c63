"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/repeat.py --workload lp_cone [--first-seed 0]

Runs perfbench/run.py untraced once per seed (first-seed, first-seed+1,
..., ten seeds), one run at a time, with the run length from BENCHMARK.json.  For each metric
it prints the median, the first and third quartiles (statistics.quantiles,
n=4) and their distance as a share of the median, and for the whole set
the share of failed jobs.  These are the figures the README records.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--first-seed", type=int, default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        seconds = json.load(handle)["run_seconds"]

    results = []
    for seed in range(args.first_seed, args.first_seed + RUNS):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr)

    print(f"{args.workload}: {len(results)} runs of {seconds} s, seeds "
          f"{args.first_seed}..{args.first_seed + RUNS - 1}")
    print(f"  all correct: {all(r['correct'] for r in results)}; failed share: "
          f"{sorted({r['failed'] / r['attempted'] for r in results})}")
    print(f"  {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        spread = (q3 - q1) / median if median else float("nan")
        print(f"  {name:34s} {median:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f}  {first['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
