"""Discrete optimal transport via the transportation simplex.

Costs are handled as powered distances d**p throughout; the 1/p root is
applied only when reporting ``cost``. The simplex keeps a spanning-tree
basis, starts from the northwest-corner plan, and pivots under Bland's
smallest-index rule with a hard pivot budget (never a silent approximation).
Exact inputs (int/Fraction masses and costs) are recognized automatically
and pivoted without rounding: the plan is carried in integer units on a
common mass denominator.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BudgetError,
    CouplingError,
    DomainError,
    SolverStallError,
    SpaceMismatchError,
)
from ._numbers import DEFAULT_TOL, all_exact, format_number, mass_denominator_lcm, root
from .measure import _point_tokens
from .metric import powered_distance

__all__ = [
    "Coupling",
    "TransportResult",
    "DualPotential",
    "MonotonicityReport",
    "coupling_cost",
    "validate_coupling",
    "solve_wasserstein",
    "kr_dual",
    "check_cyclical_monotonicity",
    "restrict_and_renormalize",
    "result_record",
    "result_to_json",
]

_ENTERING_EPS = 1e-12  # float-mode threshold for a genuinely negative reduced cost


@dataclass(frozen=True)
class Coupling:
    """A transport plan between two finitely supported measures.

    ``weights[j][k]`` is the mass moved from ``row_points[j]`` to
    ``col_points[k]``. Entries are nonnegative and total 1; marginal
    agreement with specific measures is checked by :func:`validate_coupling`.
    """

    space: object
    row_points: tuple
    col_points: tuple
    weights: tuple

    def __post_init__(self):
        object.__setattr__(self, "row_points", tuple(self.row_points))
        object.__setattr__(self, "col_points", tuple(self.col_points))
        object.__setattr__(self, "weights", tuple(tuple(row) for row in self.weights))
        m, n = len(self.row_points), len(self.col_points)
        if len(self.weights) != m or any(len(r) != n for r in self.weights):
            raise CouplingError(f"weight matrix is not {m} x {n}")
        total = 0
        for row in self.weights:
            for w in row:
                if w < 0:
                    raise CouplingError(f"negative coupling weight {w!r}")
                total = total + w
        if all_exact(w for row in self.weights for w in row):
            if total != 1:
                raise CouplingError(f"coupling mass {total} is not exactly 1")
        elif abs(total - 1.0) > DEFAULT_TOL:
            raise CouplingError(f"coupling mass {total!r} differs from 1 beyond {DEFAULT_TOL}")

    def row_sums(self):
        return tuple(sum(row[1:], row[0]) for row in self.weights)

    def col_sums(self):
        n = len(self.col_points)
        sums = [0] * n
        for row in self.weights:
            for k in range(n):
                sums[k] = sums[k] + row[k]
        return tuple(sums)

    def cells(self):
        """Positive cells as (j, k, weight) triplets."""
        out = []
        for j, row in enumerate(self.weights):
            for k, w in enumerate(row):
                if w != 0:
                    out.append((j, k, w))
        return out


def validate_coupling(pi, mu, nu, tol=DEFAULT_TOL):
    """Check that ``pi`` couples ``mu`` with ``nu`` (marginals within tol)."""
    if pi.space != mu.space or mu.space != nu.space:
        raise SpaceMismatchError("coupling and measures must share one space")
    if pi.row_points != mu.support or pi.col_points != nu.support:
        raise CouplingError("coupling supports do not match the measure supports")
    exact = all_exact(w for row in pi.weights for w in row) and all_exact(mu.masses + nu.masses)
    for got, want in zip(pi.row_sums(), mu.masses):
        if (got != want) if exact else (abs(got - want) > tol):
            raise CouplingError(f"row marginal {got!r} differs from measure mass {want!r}")
    for got, want in zip(pi.col_sums(), nu.masses):
        if (got != want) if exact else (abs(got - want) > tol):
            raise CouplingError(f"column marginal {got!r} differs from measure mass {want!r}")


def coupling_cost(pi, p=1):
    """Total powered cost sum of weight * d(row, col)**p over the plan."""
    if not p >= 1:
        raise DomainError(f"cost exponent p={p!r} must be >= 1")
    space = pi.space
    total = 0
    for j, row in enumerate(pi.weights):
        y = pi.row_points[j]
        for k, w in enumerate(row):
            if w != 0:
                total = total + w * powered_distance(space, y, pi.col_points[k], p)
    return total


# ---------------------------------------------------------------------------
# transportation simplex


def _northwest_corner(a, b, m, n):
    """Initial spanning-tree basis; returns (flows dict, basis cell list)."""
    rem_a = list(a)
    rem_b = list(b)
    flows = {}
    basis = []
    i = j = 0
    while True:
        take = rem_a[i] if rem_a[i] <= rem_b[j] else rem_b[j]
        flows[(i, j)] = take
        basis.append((i, j))
        rem_a[i] = rem_a[i] - take
        rem_b[j] = rem_b[j] - take
        if i == m - 1 and j == n - 1:
            break
        if rem_a[i] == 0 and i < m - 1:
            i += 1
        elif rem_b[j] == 0 and j < n - 1:
            j += 1
        elif i < m - 1:
            i += 1
        else:
            j += 1
    return flows, basis


def _tree_potentials(basis, cost, m, n):
    """Solve u_i + v_j = cost[i][j] on the basis tree, with u_0 = 0."""
    adj = [[] for _ in range(m + n)]
    for (i, j) in basis:
        adj[i].append((m + j, (i, j)))
        adj[m + j].append((i, (i, j)))
    u = [None] * m
    v = [None] * n
    u[0] = 0
    stack = [0]
    while stack:
        node = stack.pop()
        for nb, (ci, cj) in adj[node]:
            if nb < m:
                if u[nb] is None:
                    u[nb] = cost[ci][cj] - v[cj]
                    stack.append(nb)
            else:
                if v[nb - m] is None:
                    v[nb - m] = cost[ci][cj] - u[ci]
                    stack.append(nb)
    return u, v, adj


def _tree_path(adj, start, goal, node_count):
    parent = [None] * node_count
    parent[start] = start
    stack = [start]
    while stack:
        node = stack.pop()
        if node == goal:
            break
        for nb, _cell in adj[node]:
            if parent[nb] is None:
                parent[nb] = node
                stack.append(nb)
    path = [goal]
    while path[-1] != start:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def _transport_simplex(a, b, cost, m, n, exact, budget):
    """Core simplex. Returns (flows dict over basis, pivot count)."""
    flows, basis = _northwest_corner(a, b, m, n)
    basis_set = set(basis)
    threshold = 0 if exact else -_ENTERING_EPS
    pivots = 0
    while True:
        u, v, adj = _tree_potentials(basis, cost, m, n)
        entering = None
        for i in range(m):
            ui = u[i]
            row = cost[i]
            for j in range(n):
                if (i, j) in basis_set:
                    continue
                if row[j] - ui - v[j] < threshold:
                    entering = (i, j)
                    break
            if entering is not None:
                break
        if entering is None:
            return flows, basis, pivots, (u, v)
        if pivots >= budget:
            current = 0
            for (ci, cj), f in flows.items():
                current = current + f * cost[ci][cj]
            raise SolverStallError(
                f"pivot budget {budget} exhausted before optimality",
                pivots=pivots,
                current_cost=current,
            )
        ei, ej = entering
        path = _tree_path(adj, ei, m + ej, m + n)
        path_cells = []
        for na, nb in zip(path, path[1:]):
            if na < m:
                path_cells.append((na, nb - m))
            else:
                path_cells.append((nb, na - m))
        ordered = path_cells[::-1]  # walk the cycle from the entering cell's column side
        minus = ordered[0::2]
        plus = [entering] + ordered[1::2]
        theta = None
        leaving = None
        for cell in minus:
            f = flows[cell]
            if theta is None or f < theta or (f == theta and cell < leaving):
                theta = f
                leaving = cell
        flows[entering] = 0 * theta
        for cell in plus:
            flows[cell] = flows[cell] + theta
        for cell in minus:
            flows[cell] = flows[cell] - theta
        del flows[leaving]
        basis_set.remove(leaving)
        basis_set.add(entering)
        basis = [c for c in basis if c != leaving]
        basis.append(entering)
        pivots += 1


@dataclass(frozen=True)
class TransportResult:
    """Optimal transport solve output.

    ``powered_cost`` is the optimal value for the cost d**p; ``cost`` is its
    p-th root (the Wasserstein distance). ``dual_potentials`` holds the LP
    duals (u over the row support, v over the column support) anchored at
    u[0] = 0; ``certified`` records that dual feasibility, complementary
    slackness, and a zero duality gap were verified on the returned plan.
    """

    p: object
    powered_cost: object
    cost: object
    coupling: Coupling
    dual_potentials: tuple
    certified: bool
    pivots: int


def _certify(a, b, cost, flows, u, v, m, n, exact, tol):
    gap_total = 0
    for i in range(m):
        gap_total = gap_total + a[i] * u[i]
    for j in range(n):
        gap_total = gap_total + b[j] * v[j]
    primal = 0
    for (i, j), f in flows.items():
        primal = primal + f * cost[i][j]
        slack = cost[i][j] - u[i] - v[j]
        if (slack != 0 and f != 0) if exact else (f > tol and abs(slack) > tol):
            return False
    for i in range(m):
        ui = u[i]
        row = cost[i]
        for j in range(n):
            slack = row[j] - ui - v[j]
            if (slack < 0) if exact else (slack < -tol):
                return False
    diff = gap_total - primal
    return (diff == 0) if exact else (abs(diff) <= tol)


def solve_wasserstein(mu, nu, p=1, tol=DEFAULT_TOL, pivot_budget=None):
    """Optimal transport between two measures on one space, cost d**p.

    Runs the transportation simplex from the northwest-corner plan under
    Bland's rule. The pivot budget defaults to 10 * m * n; exhausting it
    raises :class:`SolverStallError` rather than returning an approximation.
    Exact mass/cost inputs produce exact Fractions and an exactly certified
    optimum.
    """
    if mu.space != nu.space:
        raise SpaceMismatchError("measures live on different spaces")
    if not p >= 1:
        raise DomainError(f"cost exponent p={p!r} must be >= 1")
    space = mu.space
    rows = mu.support
    cols = nu.support
    m, n = len(rows), len(cols)
    cost = [[powered_distance(space, y, z, p) for z in cols] for y in rows]
    a = list(mu.masses)
    b = list(nu.masses)
    exact = all_exact(a) and all_exact(b) and all_exact(c for r in cost for c in r)
    budget = 10 * m * n if pivot_budget is None else pivot_budget

    if exact:
        # pivot over integer units on a common denominator; exactness is free,
        # this only buys speed
        L = mass_denominator_lcm(a + b)
        a_units = [int(x * L) for x in a]
        b_units = [int(x * L) for x in b]
        flows_units, basis, pivots, (u, v) = _transport_simplex(
            a_units, b_units, cost, m, n, True, budget
        )
        flows = {
            cell: Fraction(f, L) if f % L else Fraction(f // L)
            for cell, f in flows_units.items()
        }
    else:
        flows, basis, pivots, (u, v) = _transport_simplex(a, b, cost, m, n, False, budget)

    weights = [[0] * n for _ in range(m)]
    for (i, j), f in flows.items():
        if f != 0:
            weights[i][j] = f
    powered = 0
    for (i, j), f in flows.items():
        powered = powered + f * cost[i][j]
    plan = Coupling(space, rows, cols, tuple(tuple(r) for r in weights))
    certified = _certify(a, b, cost, flows, u, v, m, n, exact, tol)
    return TransportResult(
        p=p,
        powered_cost=powered,
        cost=root(powered, p),
        coupling=plan,
        dual_potentials=(tuple(u), tuple(v)),
        certified=certified,
        pivots=pivots,
    )


# ---------------------------------------------------------------------------
# Kantorovich-Rubinstein dual (p = 1)


@dataclass(frozen=True)
class DualPotential:
    """A 1-Lipschitz potential f on supp(mu) | supp(nu) with its dual value.

    The dual value is integral of f d(nu) minus integral of f d(mu).
    """

    value: object
    assignments: tuple
    method: str

    def at(self, point):
        for q, val in self.assignments:
            if q == point:
                return val
        raise DomainError(f"point {point!r} not in the potential's domain")


def _union_support(mu, nu):
    points = list(mu.support)
    for q in nu.support:
        if q not in points:
            points.append(q)
    return points


def _kr_witness(mu, nu, result):
    """1-Lipschitz witness f(z) = min_j (d(z, y_j) - u_j) from a solved p = 1 ``result``."""
    space = mu.space
    u = result.dual_potentials[0]
    rows = mu.support
    points = _union_support(mu, nu)
    mu_masses = mu.as_dict()
    nu_masses = nu.as_dict()
    values = []
    for z in points:
        best = None
        for j, y in enumerate(rows):
            cand = space.distance(z, y) - u[j]
            if best is None or cand < best:
                best = cand
        values.append(best)
    value = 0
    for z, f in zip(points, values):
        value = value + f * (nu_masses.get(z, 0) - mu_masses.get(z, 0))
    return DualPotential(value, tuple(zip(points, values)), "simplex-potentials")


def kr_dual(mu, nu, independent=False, tol=DEFAULT_TOL):
    """Dual witness for the 1-Wasserstein distance.

    Default path: reuse the simplex potentials, turned into a single
    1-Lipschitz function via f(z) = min_j (d(z, y_j) - u_j). With
    ``independent=True`` the dual is instead solved from scratch as an
    explicit LP over the values f(z) with pairwise Lipschitz constraints
    (scipy linprog), sharing nothing with the simplex path.
    """
    if mu.space != nu.space:
        raise SpaceMismatchError("measures live on different spaces")
    if not independent:
        return _kr_witness(mu, nu, solve_wasserstein(mu, nu, p=1, tol=tol))
    space = mu.space
    points = _union_support(mu, nu)
    mu_masses = mu.as_dict()
    nu_masses = nu.as_dict()

    import numpy as np
    from scipy.optimize import linprog

    N = len(points)
    w = np.array(
        [float(nu_masses.get(z, 0)) - float(mu_masses.get(z, 0)) for z in points]
    )
    rows_A = []
    rhs = []
    for i in range(N):
        for j in range(N):
            if i == j:
                continue
            constraint = [0.0] * N
            constraint[i] = 1.0
            constraint[j] = -1.0
            rows_A.append(constraint)
            rhs.append(float(space.distance(points[i], points[j])))
    bounds = [(0.0, 0.0)] + [(None, None)] * (N - 1)
    if N == 1:
        return DualPotential(0.0, ((points[0], 0.0),), "independent-lp")
    res = linprog(-w, A_ub=rows_A, b_ub=rhs, bounds=bounds, method="highs")
    if not res.success:
        raise SolverStallError(f"independent dual LP failed: {res.message}")
    values = [float(x) for x in res.x]
    value = float(w @ res.x)
    return DualPotential(value, tuple(zip(points, values)), "independent-lp")


# ---------------------------------------------------------------------------
# cyclical monotonicity


@dataclass(frozen=True)
class MonotonicityReport:
    ok: bool
    witness: tuple
    cycles_checked: int


def check_cyclical_monotonicity(pi, p=1, max_cycle=3, tol=DEFAULT_TOL, budget=2_000_000):
    """Search support cycles whose cyclic reassignment strictly lowers cost.

    Examines every cycle of length 2..max_cycle over the plan's positive
    cells; a strict improvement beyond ``tol`` is returned as a witness
    (the offending cells in order). The combinatorial size is guarded:
    cells**max_cycle beyond ``budget`` raises instead of running forever.
    """
    if max_cycle < 2:
        raise DomainError("max_cycle must be at least 2")
    cells = pi.cells()
    if len(cells) ** max_cycle > budget:
        raise BudgetError(
            f"{len(cells)} support pairs ** {max_cycle} exceeds budget {budget}"
        )
    space = pi.space
    cost_cache = {}

    def c(j, k):
        key = (j, k)
        got = cost_cache.get(key)
        if got is None:
            got = powered_distance(space, pi.row_points[j], pi.col_points[k], p)
            cost_cache[key] = got
        return got

    checked = 0
    for L in range(2, max_cycle + 1):
        for subset in itertools.combinations(range(len(cells)), L):
            base = 0
            for idx in subset:
                j, k, _ = cells[idx]
                base = base + c(j, k)
            first = subset[0]
            for rest in itertools.permutations(subset[1:]):
                order = (first,) + rest
                checked += 1
                swapped = 0
                for pos, idx in enumerate(order):
                    j = cells[idx][0]
                    k_next = cells[order[(pos + 1) % L]][1]
                    swapped = swapped + c(j, k_next)
                if swapped < base - tol:
                    witness = tuple(
                        (pi.row_points[cells[idx][0]], pi.col_points[cells[idx][1]])
                        for idx in order
                    )
                    return MonotonicityReport(False, witness, checked)
    return MonotonicityReport(True, (), checked)


# ---------------------------------------------------------------------------
# plan restriction


def restrict_and_renormalize(pi, points, side="row"):
    """Restrict a plan to rows (or columns) with points in ``points``.

    Returns ``(lam, sub)`` where lam is the restricted mass and ``sub`` the
    renormalized sub-coupling. Zero restricted mass is a domain error.
    """
    if side not in ("row", "col"):
        raise DomainError(f"side must be 'row' or 'col', got {side!r}")
    points = list(points)
    if side == "row":
        keep = [j for j, y in enumerate(pi.row_points) if y in points]
        lam = 0
        for j in keep:
            for w in pi.weights[j]:
                lam = lam + w
    else:
        keep = [k for k, z in enumerate(pi.col_points) if z in points]
        lam = 0
        for row in pi.weights:
            for k in keep:
                lam = lam + row[k]
    if lam == 0:
        raise DomainError("restriction has zero mass")
    if side == "row":
        rows = [pi.row_points[j] for j in keep]
        scaled = [[w / lam for w in pi.weights[j]] for j in keep]
        col_keep = [
            k for k in range(len(pi.col_points)) if any(r[k] != 0 for r in scaled)
        ]
        cols = [pi.col_points[k] for k in col_keep]
        weights = [[r[k] for k in col_keep] for r in scaled]
    else:
        cols = [pi.col_points[k] for k in keep]
        scaled = [[row[k] / lam for k in keep] for row in pi.weights]
        row_keep = [j for j in range(len(pi.row_points)) if any(w != 0 for w in scaled[j])]
        rows = [pi.row_points[j] for j in row_keep]
        weights = [scaled[j] for j in row_keep]
    return lam, Coupling(pi.space, tuple(rows), tuple(cols), tuple(tuple(r) for r in weights))


# ---------------------------------------------------------------------------
# serialization


def _num_json(x):
    if isinstance(x, float):
        return x
    return format_number(x)


def result_record(result):
    """JSON-shaped dict for a transport result."""
    pi = result.coupling
    return {
        "p": _num_json(result.p),
        "cost": _num_json(result.cost),
        "powered_cost": _num_json(result.powered_cost),
        "row_support": [" ".join(_point_tokens(pt)) for pt in pi.row_points],
        "col_support": [" ".join(_point_tokens(pt)) for pt in pi.col_points],
        "coupling": [[j, k, _num_json(w)] for j, k, w in pi.cells()],
        "dual_u": [_num_json(x) for x in result.dual_potentials[0]],
        "dual_v": [_num_json(x) for x in result.dual_potentials[1]],
        "certified": result.certified,
        "pivots": result.pivots,
    }


def result_to_json(result, indent=2):
    return json.dumps(result_record(result), indent=indent)
