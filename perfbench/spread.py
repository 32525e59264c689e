#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics (the A/A noise check).

    python3 perfbench/spread.py --workload campaign-sfv --seeds 1-10 \
        [--seconds 40] [--trace 0]

Runs perfbench/run.py once per seed and prints, per metric, the median
and the interquartile range as a share of the median (quartiles as
statistics.quantiles(values, n=4) gives them), next to the metric's bound
in BENCHMARK.json. A spread at or above a third of its bound is flagged:
the benchmark is only steady enough when every spread but setup_s stays
below that.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values = {}
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: run failed (exit {proc.returncode})")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
            file=sys.stderr)

    steady = True
    print(f"{'metric':32} {'median':>14} {'iqr/median':>11} {'bound':>6}")
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread >= bound / 3:
            flag = "  <- above bound/3"
            steady = False
        bound_text = f"{bound:6.2f}" if bound is not None else "     -"
        print(f"{name:32} {median:14.6g} {spread:11.4f} {bound_text}{flag}")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
