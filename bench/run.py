"""Layered benchmark for otlab: one workload per run, checked output, one JSON line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the program is imported from
``src/``. With ``--trace 0`` the run measures whole rounds of the workload's
operations for about S seconds and prints the end-to-end metrics. With
``--trace 1`` it runs a fixed number of rounds twice, untraced and then
traced, and prints the per-layer metrics and the tracing overhead. Times
are scaled to a reference machine pace measured during the run (see
``REFERENCE_S``). The last line of standard output is always the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import shutil
import subprocess
import sys
import time
from fractions import Fraction

# numeric libraries stay single-threaded: set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("small-exact", "large-float", "dist-rational", "campaign-mix")
# set-up is timed in this process and in this many fresh ones; the median is reported
SETUP_CHILDREN = 2

# layers whose calls and self time are reported, by traced name
CALL_LAYERS = (
    "metric.powered_distance",
    "solver.Coupling",
    "solver.solve_wasserstein",
    "solver.kr_dual",
    "measure.DiscreteMeasure",
)
SELF_LAYERS = CALL_LAYERS + (
    "solver.check_cyclical_monotonicity",
    "measure.load_measure",
    "isometry.flip",
    "isometry.fiber_flip",
    "isometry.flip_coupling",
    "rigidity.ratio_set_scan",
    "rigidity.split_transport",
    "rigidity.geodesic_speed_check",
    "sampling.random_measure",
    "sampling.random_coupling",
    "campaign.run_suite",
    "cli.entry",
    "cli.cmd_dist",
)


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


# On a shared VM the speed of all interpreter work drifts together: by up to
# 1.64x over minutes on the 2-core VM where the benchmark was defined. A
# fixed piece of such work, timed between rounds, tracks the drift; every
# reported time is scaled to the pace at which that work takes REFERENCE_S
# (about its median on that VM).
REFERENCE_S = 0.0025
PACE_EVERY_S = 0.1


def reference_work():
    acc = Fraction(0)
    table = {}
    rows = []
    for i in range(2000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
        rows.append([key, i * 3 % 11])
        if i % 40 == 0:
            acc += Fraction(i % 7, 8)
    rows.sort()
    return acc, len(table)


def pace():
    """Seconds the reference work takes now, best of three."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        reference_work()
        best = min(best, time.perf_counter() - start)
    return best


def set_up(name, seed, workdir):
    """Import the program, build the workload, run one warm-up operation.

    Returns the workload and the set-up time scaled to the reference pace.
    """
    start = time.perf_counter()
    sys.path[:0] = [SRC, BENCH_DIR]
    import workloads

    workload = workloads.build(name, seed, workdir)
    workload.warm_up()
    took = time.perf_counter() - start
    return workload, took * REFERENCE_S / pace()


def setup_in_fresh_process(name, seed):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    if proc.returncode != 0:
        fail(f"set-up in a fresh process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


class Tally:
    """Operation outcomes and scaled latencies of one pass of rounds."""

    def __init__(self):
        self.latencies = []
        self.raw_s = 0.0
        self.rounds = 0
        self.by_kind = {}  # kind -> [ops, scaled seconds, failed]
        self.failed = 0
        self.problems = []
        self.failures = {}

    def add(self, op, raw, scaled, failure, problems):
        self.latencies.append(scaled)
        self.raw_s += raw
        entry = self.by_kind.setdefault(op.kind, [0, 0.0, 0])
        entry[0] += 1
        entry[1] += scaled
        if failure is not None:
            self.failed += 1
            entry[2] += 1
            self.failures.setdefault(op.kind, failure)
        self.problems.extend(f"{op.kind}: {p}" for p in problems)

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def busy_s(self):
        return sum(self.latencies)


def run_round(workload, r, tracer):
    """Run round r's operations, timing each alone, then judge them."""
    timed = []
    for op in workload.ops(r):
        if tracer is not None:
            tracer.on = True
        start = time.perf_counter()
        try:
            out, error = op.call(), None
        except Exception as exc:  # a program error fails this operation only
            out, error = None, f"{type(exc).__name__}: {exc}"
        took = time.perf_counter() - start
        if tracer is not None:
            tracer.on = False
        timed.append((op, out, error, took))
    return [
        (op, took) + ((error, []) if error is not None else op.judge(out))
        for op, out, error, took in timed
    ]


def run_rounds(workload, rounds=None, seconds=None, tracer=None):
    """Whole rounds: a fixed number, or until ``seconds`` of wall time passed.

    The reference pace is taken before the first round, after the last and
    about every PACE_EVERY_S between; each operation is scaled by the mean
    of the two paces around it.
    """
    tally = Tally()
    start = since = time.perf_counter()
    before = pace()
    pending = []
    while True:
        pending += run_round(workload, tally.rounds, tracer)
        tally.rounds += 1
        now = time.perf_counter()
        more = tally.rounds < rounds if rounds is not None else now - start < seconds
        if not more or now - since >= PACE_EVERY_S:
            after = pace()
            scale = 2 * REFERENCE_S / (before + after)
            for op, took, failure, problems in pending:
                tally.add(op, took, took * scale, failure, problems)
            pending = []
            before, since = after, time.perf_counter()
        if not more:
            return tally


def quantile(values, q):
    if q == 0.5:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def report(tallies, metrics):
    for tally in tallies:
        print(f"  {tally.rounds} rounds, {tally.attempted} operations, busy {tally.raw_s:.2f} s "
              f"raw, {tally.busy_s:.2f} s at the reference pace")
        for kind, (ops, busy, failed) in sorted(tally.by_kind.items()):
            print(f"  {kind:40s} ops={ops:7d} ops/s={ops / busy:10.2f} failed={failed}")
        for kind, why in sorted(tally.failures.items()):
            print(f"  failure [{kind}]: {why[:300]}")
    problems = [p for tally in tallies for p in tally.problems]
    for problem in problems[:20]:
        print(f"  INCORRECT {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": sum(t.attempted for t in tallies),
                "failed": sum(t.failed for t in tallies),
                "metrics": metrics,
            }
        )
    )


def end_to_end(workload, tally, setup_samples):
    lat = tally.latencies
    return {
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        "ops_per_s": {"value": tally.attempted / tally.busy_s, "unit": "1/s"},
        "op_s_p50": {"value": statistics.median(lat), "unit": "s"},
        "op_s_tail": {"value": quantile(lat, workload.tail_quantile), "unit": "s"},
    }


def traced(name, seed, workload, workdir):
    """Fixed rounds untraced, then the same rounds traced with a rebuilt workload."""
    from tracer import Tracer
    import workloads

    rounds = workload.trace_rounds
    plain = run_rounds(workload, rounds=rounds)
    tr = Tracer()
    found = set(tr.install())
    try:
        tr.on = True
        workload = workloads.build(name, seed, workdir)
        workload.warm_up()
        tr.on = False
        tally = run_rounds(workload, rounds=rounds, tracer=tr)
    finally:
        tr.uninstall()
    absent = [n for n in SELF_LAYERS if n not in found]
    if absent:
        print(f"absent layers (no such public name): {', '.join(absent)}")

    metrics = {}

    def put(key, value, unit):
        metrics[key] = {"value": value, "unit": unit}

    for n in SELF_LAYERS:
        if n in found:
            if n in CALL_LAYERS:
                put(f"{n}.calls", tr.calls.get(n, 0), "count")
            put(f"{n}.self_s", tr.self_s.get(n, 0.0), "s")
    if "solver.solve_wasserstein" in found:
        pivots = tr.counters["pivots"]
        put("solver.pivots", pivots, "count")
        per_pivot = tr.self_s.get("solver.solve_wasserstein", 0.0) / pivots if pivots else 0.0
        put("solver.self_s_per_pivot", per_pivot, "s")
        for key in ("solves.exact", "solves.float", "uncertified"):
            put(f"solver.{key}", tr.counters[key], "count")
    for suite, mode in campaign_suites():
        ops, busy, _ = plain.by_kind.get(f"{suite}.{mode}", (0, 0.0, 0))
        put(f"campaign.{suite}.{mode}.trials_per_s", ops / busy if busy else 0.0, "1/s")
    put("trace.overhead_pct", 100.0 * (tally.busy_s / plain.busy_s - 1.0), "%")
    return [plain, tally], metrics


def campaign_suites():
    import workloads

    return [(s, "float") for s, _ in workloads.FLOAT_MIX] + [(s, "rational") for s, _ in workloads.RATIONAL_MIX]


def main(argv=None):
    parser = argparse.ArgumentParser(description="otlab layered benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="time set-up alone and print it")
    args = parser.parse_args(argv)
    if args.seed < 0:
        fail("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(SRC, "otlab", "__init__.py")):
        fail(f"no otlab source under {SRC}; run from the root of a source checkout")

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    try:
        workload, setup_s = set_up(args.workload, args.seed, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            tallies, metrics = traced(args.workload, args.seed, workload, workdir)
        else:
            samples = [setup_s] + [setup_in_fresh_process(args.workload, args.seed) for _ in range(SETUP_CHILDREN)]
            tally = run_rounds(workload, seconds=args.seconds)
            tallies, metrics = [tally], end_to_end(workload, tally, samples)
            print(f"set-up samples at the reference pace (s): {', '.join(f'{s:.3f}' for s in samples)}")
        print(f"{args.workload} seed {args.seed}:")
        report(tallies, metrics)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        base = os.path.dirname(workdir)
        if os.path.isdir(base) and not os.listdir(base):
            os.rmdir(base)


if __name__ == "__main__":
    sys.exit(main())
