#!/usr/bin/env python3
"""Steadiness check: runs workloads once per seed and reports the spread.

    python3 perfbench/steady.py [--workload NAME ...] [--seeds 1-10]

Run from the repository root. Every run measures BENCHMARK.json's
run_seconds. For every workload and end-to-end metric it prints the median,
the quartiles (statistics.quantiles(n=4)) and the spread (q3 - q1) / median
over the runs, next to the metric's bound from BENCHMARK.json. A spread
above a third of its bound is flagged, setup_s included.
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
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)
    seconds = bench["run_seconds"]

    for w in workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in seeds:
            res = run_once(w, seed, seconds)
            if not res["correct"]:
                raise SystemExit(f"{w} seed {seed}: incorrect result")
            for name in values:
                values[name].append(res["metrics"][name]["value"])
        print(f"== {w} (seeds {args.seeds}, {seconds} s)")
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread <= m["bound"] / 3 else "  <-- above bound/3"
            print(f"  {m['name']:18s} median {med:.6g} q1 {q1:.6g} "
                  f"q3 {q3:.6g} spread {spread:.4f} bound {m['bound']}"
                  f"{flag}")


if __name__ == "__main__":
    main()
