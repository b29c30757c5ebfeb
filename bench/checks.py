"""Checks of otlab's outputs, computed apart from the program.

Nothing here imports otlab. Every check reads plain numbers (masses, point
coordinates, plan entries, potentials) and recomputes costs from the
benchmark's own formulas, so a fault in the program's cost, kernel or
certificate cannot hide behind a shared code path.

Each check returns a :class:`Verdict`: ``optimal`` says whether the plan is
an optimal transport plan by the check's own reference, and ``problems``
lists every other inconsistency found (infeasible plan, reported cost that
differs from the plan's cost, potentials that do not certify the plan).
"""

from __future__ import annotations

import atexit
import json
import re
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

# edges of the fixed five-point tree metric (criterion 12 of the test suite)
TREE_EDGES = {(0, 1): 2, (1, 2): 1, (1, 3): 3, (3, 4): 2}

# relative tolerance of float checks, as a share of max|cost| (masses sum to 1)
FLOAT_RTOL = 1e-7
# marginal tolerance of float checks (masses are on the unit scale)
MASS_TOL = 1e-9


@dataclass
class Verdict:
    optimal: bool
    problems: list = field(default_factory=list)

    @property
    def ok(self):
        return self.optimal and not self.problems


def tree_distance_table(edges=TREE_EDGES, size=5):
    """All-pairs path lengths of a weighted tree, by walking from every node."""
    adj = {k: [] for k in range(size)}
    for (i, j), w in edges.items():
        adj[i].append((j, w))
        adj[j].append((i, w))
    table = []
    for src in range(size):
        dist = {src: 0}
        stack = [src]
        while stack:
            node = stack.pop()
            for nb, w in adj[node]:
                if nb not in dist:
                    dist[nb] = dist[node] + w
                    stack.append(nb)
        table.append([dist[k] for k in range(size)])
    return table


def min_cost_by_enumeration(supply, demand, cost):
    """Minimum cost over every integral plan with the given integer margins.

    Plans are enumerated row by row; a row's units are spread over the
    columns in every way the remaining column capacities allow. Rows that
    share the same remaining capacities are solved once. Integral margins
    give a transport polytope with integral vertices, so this is the LP
    optimum.
    """
    n = len(demand)
    memo = {}

    def spreads(units, caps, j):
        if j == n - 1:
            if units <= caps[j]:
                yield (units,)
            return
        for k in range(min(units, caps[j]) + 1):
            for rest in spreads(units - k, caps, j + 1):
                yield (k,) + rest

    def best(i, caps):
        if i == len(supply):
            return 0
        key = (i, caps)
        if key in memo:
            return memo[key]
        row = cost[i]
        out = None
        for alloc in spreads(supply[i], caps, 0):
            here = sum(k * c for k, c in zip(alloc, row))
            left = tuple(c - k for c, k in zip(caps, alloc))
            total = here + best(i + 1, left)
            if out is None or total < out:
                out = total
        memo[key] = out
        return out

    return best(0, tuple(demand))


def exact_certificate_problems(a, b, cost, plan, u, v, reported):
    """Exact LP duality certificate for a transport plan.

    Checks primal feasibility, u_i + v_j <= c_ij on every cell, and that the
    primal objective, the dual objective and the reported value are equal.
    """
    problems = plan_feasibility_problems(a, b, plan, tol=0)
    m, n = len(a), len(b)
    for i in range(m):
        for j in range(n):
            if u[i] + v[j] > cost[i][j]:
                problems.append(f"dual infeasible at ({i}, {j}): {u[i]} + {v[j]} > {cost[i][j]}")
    primal = sum(plan[i][j] * cost[i][j] for i in range(m) for j in range(n))
    dual = sum(ai * ui for ai, ui in zip(a, u)) + sum(bj * vj for bj, vj in zip(b, v))
    if primal != dual:
        problems.append(f"primal objective {primal} differs from dual objective {dual}")
    if reported != primal:
        problems.append(f"reported cost {reported} differs from the plan's cost {primal}")
    return problems


def plan_feasibility_problems(a, b, plan, tol):
    problems = []
    m, n = len(a), len(b)
    if len(plan) != m or any(len(row) != n for row in plan):
        return [f"plan is not {m} x {n}"]
    for i in range(m):
        for j in range(n):
            if plan[i][j] < -tol:
                problems.append(f"negative plan entry {plan[i][j]} at ({i}, {j})")
    for i in range(m):
        got = sum(plan[i])
        if abs(got - a[i]) > tol:
            problems.append(f"row {i} carries {got}, its mass is {a[i]}")
    for j in range(n):
        got = sum(plan[i][j] for i in range(m))
        if abs(got - b[j]) > tol:
            problems.append(f"column {j} receives {got}, its mass is {b[j]}")
    return problems


def check_exact_tree(units_a, units_b, table, plan, u, v, reported, certified, unit=8):
    """Small exact solve on the tree metric, masses in multiples of 1/unit.

    ``units_a[i]`` / ``units_b[j]`` are (tree node, units) pairs in the order
    of the plan's rows and columns.
    """
    cost = [[table[na][nb] for nb, _ in units_b] for na, _ in units_a]
    a = [Fraction(k, unit) for _, k in units_a]
    b = [Fraction(k, unit) for _, k in units_b]
    best = Fraction(min_cost_by_enumeration([k for _, k in units_a], [k for _, k in units_b], cost), unit)
    feasible = not plan_feasibility_problems(a, b, plan, tol=0)
    primal = sum(plan[i][j] * cost[i][j] for i in range(len(a)) for j in range(len(b)))
    verdict = Verdict(optimal=feasible and primal == best)
    if certified:
        verdict.problems = exact_certificate_problems(a, b, cost, plan, u, v, reported)
    else:
        verdict.problems = plan_feasibility_problems(a, b, plan, tol=0)
        if feasible and reported != primal:
            verdict.problems.append(f"reported cost {reported} differs from the plan's cost {primal}")
    return verdict


def highs_transport_optimum(a, b, cost):
    """Transport LP optimum by scipy's HiGHS, a different algorithm and code."""
    from scipy.optimize import linprog

    m, n = cost.shape
    a_eq = np.vstack([np.kron(np.eye(m), np.ones(n)), np.kron(np.ones(m), np.eye(n))])
    b_eq = np.concatenate([a, b])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(res.fun)


class HighsProcess:
    """``highs_transport_optimum`` in a child process, started on first use.

    scipy.optimize and HiGHS add tens of MB to a process. Kept in a child,
    they stay out of the peak RSS of the benchmark process, which measures
    the program. Numbers cross the pipe as JSON, which round-trips floats.
    """

    def __init__(self):
        self.proc = None

    def optimum(self, a, b, cost):
        if self.proc is None:
            self.proc = subprocess.Popen(
                [sys.executable, __file__, "--serve-highs"],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
            )
        request = {"a": np.asarray(a).tolist(), "b": np.asarray(b).tolist(), "cost": np.asarray(cost).tolist()}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference LP process ended with code {self.proc.wait()}")
        reply = json.loads(line)
        if "error" in reply:
            raise RuntimeError(reply["error"])
        return reply["optimum"]

    def close(self):
        """End the child and wait for it."""
        if self.proc is not None:
            self.proc.stdin.close()
            self.proc.wait(timeout=60)
            self.proc.stdout.close()
            self.proc = None


REFERENCE_LP = HighsProcess()
atexit.register(REFERENCE_LP.close)


def serve_highs():
    """Answer one JSON transport problem per input line until input ends."""
    for line in sys.stdin:
        req = json.loads(line)
        try:
            reply = {"optimum": highs_transport_optimum(np.array(req["a"]), np.array(req["b"]), np.array(req["cost"]))}
        except RuntimeError as exc:
            reply = {"error": str(exc)}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


def check_float(a, b, cost, plan, u, v, reported, certified):
    """Float solve against HiGHS on the cost matrix divided by max|cost|.

    Plan entries and marginals are on the unit mass scale; potentials and
    costs are compared after the same division, so the tolerances hold at
    any coordinate scale.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    cost = np.asarray(cost, dtype=float)
    plan = np.asarray(plan, dtype=float)
    scale = float(np.abs(cost).max()) or 1.0
    scaled = cost / scale
    problems = plan_feasibility_problems(a.tolist(), b.tolist(), plan.tolist(), tol=MASS_TOL)
    primal = float((plan * scaled).sum())
    optimum = REFERENCE_LP.optimum(a, b, scaled)
    verdict = Verdict(optimal=not problems and primal - optimum <= FLOAT_RTOL)
    if abs(float(reported) / scale - primal) > FLOAT_RTOL:
        problems.append(f"reported cost {reported!r} differs from the plan's cost {primal * scale!r}")
    if certified:
        u = np.asarray(u, dtype=float) / scale
        v = np.asarray(v, dtype=float) / scale
        worst = float((u[:, None] + v[None, :] - scaled).max())
        if worst > FLOAT_RTOL:
            problems.append(f"dual infeasible by {worst!r} of max|cost|")
        dual = float(a @ u + b @ v)
        if abs(dual - primal) > FLOAT_RTOL:
            problems.append(f"duality gap {primal - dual!r} of max|cost|")
    verdict.problems = problems
    return verdict


# ---------------------------------------------------------------------------
# `otlab dist` output

_FIELD = re.compile(r"^(\w+) = (.+)$")
_CELL = re.compile(r"^  (\S+) : (.+) -> (.+)$")
_POTENTIAL = re.compile(r"^  ([uv]) (.+) = (\S+)$")


def _label_point(label):
    label = label.strip()
    if label.startswith("(") and label.endswith(")"):
        return tuple(Fraction(tok) for tok in label[1:-1].split(","))
    return (Fraction(label),)


def parse_dist_output(text):
    """Fields, plan cells and potentials of ``otlab dist`` standard output."""
    fields = {}
    cells = []
    potentials = {"u": {}, "v": {}}
    section = None
    for line in text.splitlines():
        if line in ("coupling:", "potentials:"):
            section = line[:-1]
            continue
        if section == "coupling" and line.startswith("  "):
            m = _CELL.match(line)
            if m is None:
                raise ValueError(f"unreadable coupling line {line!r}")
            cells.append((_label_point(m.group(2)), _label_point(m.group(3)), Fraction(m.group(1))))
            continue
        if section == "potentials" and line.startswith("  "):
            m = _POTENTIAL.match(line)
            if m is None:
                raise ValueError(f"unreadable potential line {line!r}")
            potentials[m.group(1)][_label_point(m.group(2))] = Fraction(m.group(3))
            continue
        section = None
        m = _FIELD.match(line)
        if m is None:
            raise ValueError(f"unreadable line {line!r}")
        fields[m.group(1)] = m.group(2)
    return fields, cells, potentials


def city_block(p, q):
    """|dt| + |dx| on [0, 1] x [0, 1]: Product(1, 1, Interval(1)) at p = 1."""
    return abs(p[0] - q[0]) + abs(p[1] - q[1])


def check_dist_output(exit_code, stdout, mu_atoms, nu_atoms):
    """Exact certificate for ``otlab dist --mode rational --order 1`` output.

    ``mu_atoms`` and ``nu_atoms`` are the (t, x) -> mass maps written to the
    measure files. Optimality is proved by the exact duality certificate
    rebuilt from the printed plan and potentials with the benchmark's own
    costs; the printed distance, powered cost and KR dual value must all
    equal the plan's cost.
    """
    if exit_code != 0:
        return Verdict(optimal=False, problems=[f"exit code {exit_code}"])
    try:
        fields, cells, potentials = parse_dist_output(stdout)
    except ValueError as exc:
        return Verdict(optimal=False, problems=[str(exc)])
    rows = sorted(mu_atoms)
    cols = sorted(nu_atoms)
    problems = []
    for side, pts in (("u", rows), ("v", cols)):
        if sorted(potentials[side]) != pts:
            problems.append(f"potentials {side} do not cover the support exactly")
    missing = [f for f in ("distance", "powered_cost", "dual_value", "certified") if f not in fields]
    if problems or missing:
        return Verdict(optimal=False, problems=problems + [f"missing field {f}" for f in missing])
    row_at = {p: i for i, p in enumerate(rows)}
    col_at = {q: j for j, q in enumerate(cols)}
    plan = [[Fraction(0)] * len(cols) for _ in rows]
    for src, dst, w in cells:
        if src not in row_at or dst not in col_at:
            return Verdict(optimal=False, problems=[f"plan cell {src} -> {dst} is off the support"])
        plan[row_at[src]][col_at[dst]] += w
    cost = [[city_block(p, q) for q in cols] for p in rows]
    distance = Fraction(fields["distance"])
    problems = exact_certificate_problems(
        [mu_atoms[p] for p in rows],
        [nu_atoms[q] for q in cols],
        cost,
        plan,
        [potentials["u"][p] for p in rows],
        [potentials["v"][q] for q in cols],
        distance,
    )
    verdict = Verdict(optimal=not problems)
    if Fraction(fields["powered_cost"]) != distance:
        problems.append(f"powered_cost {fields['powered_cost']} differs from distance at order 1")
    if Fraction(fields["dual_value"]) != distance:
        problems.append(f"dual_value {fields['dual_value']} differs from distance {distance}")
    if fields["certified"] not in ("True", "False"):
        problems.append(f"certified reads {fields['certified']!r}")
    verdict.problems = problems
    return verdict


if __name__ == "__main__":
    if sys.argv[1:] != ["--serve-highs"]:
        sys.exit("usage: python3 bench/checks.py --serve-highs")
    serve_highs()
