#!/usr/bin/env python3
"""Measure the run-to-run spread of the benchmark's end-to-end metrics.

Runs perfbench/run.py once per seed and prints, for every end-to-end
metric, the median and the spread: the distance between the first and
third quartile (statistics.quantiles(values, n=4)) as a share of the
median, next to the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --workload edit_dense --seeds 1-10
    python3 perfbench/spread.py --workload edit_dense --seeds 1-10 \
        --save a.json
    python3 perfbench/spread.py --workload edit_dense --seeds 1009x5 \
        --against a.json

`--seeds` takes a list (1,2,3), a range (1-10) or a repeat (1009x5 =
five runs of seed 1009). `--against` checks that each median is not
worse than the saved one by more than its bound: run it with the
hold-out seed (HOLDOUT_SEED) against a set saved from the default seed
(DEFAULT_SEED) to check that bounds set on one seed hold on another.
Exits 1 when a spread exceeds its bound or a comparison fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1
HOLDOUT_SEED = 1009


def parse_seeds(text):
    if "x" in text:
        seed, count = text.split("x")
        return [int(seed)] * int(count)
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default=f"{DEFAULT_SEED}-{DEFAULT_SEED + 9}")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    values = {name: [] for name in metrics}
    for seed in parse_seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
        if out.returncode != 0:
            sys.stderr.write(out.stdout[-2000:] + out.stderr[-2000:])
            sys.exit(2)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}", flush=True)
        for name in metrics:
            values[name].append(result["metrics"][name]["value"])

    ok = True
    medians = {}
    print(f"{'metric':16s} {'median':>14s} {'spread':>7s} {'bound':>6s}")
    for name, m in metrics.items():
        med, sp = spread(values[name])
        medians[name] = med
        verdict = ""
        if name != "setup_s" and sp > m["bound"]:
            verdict, ok = "  SPREAD > BOUND", False
        print(f"{name:16s} {med:14.6g} {sp:7.3f} {m['bound']:6.2f}{verdict}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"workload": args.workload, "medians": medians,
                       "values": values}, f, indent=1)
    if args.against:
        with open(args.against) as f:
            base = json.load(f)["medians"]
        for name, m in metrics.items():
            worse = medians[name] / base[name] - 1
            if m["better"] == "higher":
                worse = base[name] / medians[name] - 1
            verdict = "ok" if worse <= m["bound"] else "WORSE THAN BOUND"
            ok = ok and worse <= m["bound"]
            print(f"{name:16s} vs saved: {worse:+.3f} (bound {m['bound']}) "
                  f"{verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
