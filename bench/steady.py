"""Steadiness of the benchmark: spread of each end-to-end metric against its bound.

    python3 bench/steady.py [--runs 10] [--first-seed 1]

Runs ``bench/run.py`` untraced ``runs`` times per workload in each of two
sets, each run with its own seed, for the ``run_seconds`` in BENCHMARK.json.
For every end-to-end metric it prints the median and the spread (distance
between the first and third quartile, as a share of the median) of each set
next to the metric's bound, how far the second median moved from the first
in the metric's worse direction, and a suggested bound of three times the
widest spread seen. A spread over the bound, a median move over the bound,
or a failed share that differs between runs makes the exit code 1. Run it
from the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SETS = 2


def run_once(workload, seed, seconds):
    cmd = [
        sys.executable, os.path.join(BENCH_DIR, "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} reported incorrect output:\n{proc.stderr}")
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first, second, better):
    move = (second - first) / first
    return move if better == "lower" else -move


def main(argv=None):
    parser = argparse.ArgumentParser(description="spread of the end-to-end metrics against their bounds")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 4:
        parser.error("quartiles need at least 4 runs")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    results = {w: [[] for _ in range(SETS)] for w in names}
    for s in range(SETS):
        for w in names:
            for i in range(args.runs):
                seed = args.first_seed + s * args.runs + i
                res = run_once(w, seed, seconds)
                res["seed"] = seed
                results[w][s].append(res)
                print(f"set {s + 1} {w} seed {seed}: attempted={res['attempted']} failed={res['failed']}", flush=True)

    ok = True
    print()
    print(f"{'workload':14s} {'metric':12s} {'bound':>6s} {'median':>12s} {'spread':>8s} "
          f"{'spread2':>8s} {'moved':>8s} {'suggest':>8s}")
    for w in names:
        shares = {r["failed"] / r["attempted"] for runs in results[w] for r in runs}
        if len(shares) != 1:
            ok = False
            print(f"{w}: failed share differs between runs: {sorted(shares)}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = [[r["metrics"][name]["value"] for r in runs] for runs in results[w]]
            spreads = [spread(v) for v in sets]
            medians = [statistics.median(v) for v in sets]
            moved = worse_by(medians[0], medians[1], metric["better"])
            suggest = min(0.25, math.ceil(max(spreads) * 3 * 100) / 100)
            flag = ""
            if max(spreads) > bound:
                flag += " SPREAD>BOUND"
            if moved > bound:
                flag += " MOVED>BOUND"
            ok = ok and not flag
            print(f"{w:14s} {name:12s} {bound:6.2f} {medians[0]:12.6g} {spreads[0]:8.4f} "
                  f"{spreads[1]:8.4f} {moved:8.4f} {suggest:8.2f}{flag}")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
