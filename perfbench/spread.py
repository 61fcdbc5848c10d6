#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread.

Runs perfbench/run.py (untraced) once per seed on each workload and prints,
for every end-to-end metric, the median of the runs and the distance
between the first and third quartiles as a share of the median, next to
the metric's bound from BENCHMARK.json. A steady benchmark keeps every
spread (setup_s aside) under a third of its bound.

    python3 perfbench/spread.py --seeds 1-10 [--workload align_stream ...]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    steady = True
    for workload in workloads:
        values = {name: [] for name in bounds}
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True)
            result = json.loads(proc.stdout.strip().split("\n")[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: run failed", file=sys.stderr)
                sys.exit(1)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload} ({len(seeds)} seeds)")
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            ok = name == "setup_s" or spread < bounds[name] / 3
            steady = steady and ok
            print(f"  {name:14s} median {median:12.6g}  spread {spread:7.2%}"
                  f"  bound {bounds[name]:.0%}  {'ok' if ok else 'WIDE'}")
            print(f"  {'':14s} values " + " ".join(f"{v:.5g}" for v in vals))
        sys.stdout.flush()
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
