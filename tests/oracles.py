"""Independent reference implementations used to cross-check the library.

Each oracle recomputes a quantity the package also computes, by a
deliberately different route, so the tests compare two derivations that
share no code path. This module imports nothing from ``otlab``;
``tests/test_imports.py`` checks that at any depth.

Closed forms: the tree formula for W1 on a weighted tree (Evans & Matsen
2012) and the monotone (quantile) coupling on the line (Santambrogio 2015,
ch. 2). A triangle-inequality check by direct triple loop is the reference
for the validation of explicit finite metrics.
"""

import numpy as np
from scipy.optimize import linprog


def quantile_flip(atoms):
    """Image atoms of the CDF/quantile exchange, read off the quantile jumps.

    ``atoms`` is any iterable of (position, mass) pairs on [0, 1]. Duplicate
    positions are merged first. The quantile function of the input takes the
    constant value t_i on [c_{i-1}, c_i), so the image measure puts mass t_1
    at 0, mass t_{i+1} - t_i at each cumulative height c_i, and mass 1 - t_m
    at 1. Returns (position, mass) pairs sorted by position, zero masses
    dropped.
    """
    merged = []
    for t, m in sorted(atoms):
        if merged and merged[-1][0] == t:
            merged[-1][1] = merged[-1][1] + m
        else:
            merged.append([t, m])
    ts = [t for t, _ in merged]
    heights = []
    acc = 0
    for _, m in merged:
        acc = acc + m
        heights.append(acc)
    out = []
    if ts[0] != 0:
        out.append((0 * ts[0], ts[0]))
    for i in range(len(ts) - 1):
        out.append((heights[i], ts[i + 1] - ts[i]))
    if ts[-1] != 1:
        out.append((1, 1 - ts[-1]))
    return tuple((p, m) for p, m in out if m != 0)


# exhaustive_min_cost's memo, shared by every call: the minimum cost of
# shipping the remaining supplies, over their lane-cost rows, into the
# remaining demand depends on nothing else
_MIN_COST_MEMO = {}


def exhaustive_min_cost(supply_units, demand_units, unit_costs):
    """Minimum transport cost over all integral plans, by direct enumeration.

    ``supply_units`` and ``demand_units`` are tuples of nonnegative ints with
    equal totals; ``unit_costs[i][j]`` is the int cost of one unit on lane
    (i, j). The transport polytope with integral margins has integral
    vertices, so this minimum equals the LP optimum. Memoized across calls on
    (the remaining supplies, their lane-cost rows, the remaining demand).
    """
    n = len(demand_units)
    # tails[i]: the supplies from row i on, with their rows, as one hashable key part
    tails = [
        (tuple(supply_units[i:]), tuple(tuple(row) for row in unit_costs[i:]))
        for i in range(len(supply_units) + 1)
    ]

    def best(i, remaining):
        if i == len(supply_units):
            return 0
        key = (tails[i], remaining)
        hit = _MIN_COST_MEMO.get(key)
        if hit is not None:
            return hit
        row = unit_costs[i]
        supply = supply_units[i]
        out = [None]

        def spread(j, left, acc, rem):
            if j == n - 1:
                if left <= rem[-1]:
                    tail = best(i + 1, rem[:-1] + (rem[-1] - left,))
                    total = acc + left * row[-1] + tail
                    if out[0] is None or total < out[0]:
                        out[0] = total
                return
            top = min(left, rem[j])
            for units in range(top + 1):
                spread(
                    j + 1,
                    left - units,
                    acc + units * row[j],
                    rem[:j] + (rem[j] - units,) + rem[j + 1 :],
                )

        spread(0, supply, 0, remaining)
        _MIN_COST_MEMO[key] = out[0]
        return out[0]

    return best(0, tuple(demand_units))


def linprog_transport_cost(mu_masses, nu_masses, cost_matrix):
    """Transport LP optimum via scipy's HiGHS, flattened column-major free.

    Float-only spot check, entirely separate from the simplex in the
    package (different algorithm, different code).
    """
    m, n = len(mu_masses), len(nu_masses)
    c = np.asarray(cost_matrix, dtype=float).reshape(m * n)
    a_eq = []
    b_eq = []
    for i in range(m):
        row = np.zeros(m * n)
        row[i * n : (i + 1) * n] = 1.0
        a_eq.append(row)
        b_eq.append(float(mu_masses[i]))
    # drop one redundant column constraint to keep the system full-rank
    for j in range(n - 1):
        col = np.zeros(m * n)
        col[j::n] = 1.0
        a_eq.append(col)
        b_eq.append(float(nu_masses[j]))
    res = linprog(c, A_eq=np.array(a_eq), b_eq=np.array(b_eq), bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(res.fun)


def tree_w1(parent, weight, mu, nu):
    """W1 between two measures on the vertices of a weighted tree.

    ``parent[v]`` is the parent of vertex v, or None at the root, and
    ``weight[v]`` the length of the edge from v to its parent. ``mu`` and
    ``nu`` map vertices to masses. Each edge e carries the mass imbalance of
    the subtree T_e below it, so W1 = sum_e w_e * |mu(T_e) - nu(T_e)|; exact
    inputs give an exact value.
    """
    children = {v: [] for v in range(len(parent))}
    for v, up in enumerate(parent):
        if up is not None:
            children[up].append(v)
    order = [v for v, up in enumerate(parent) if up is None]
    for v in order:  # grows while it is read: a breadth-first order
        order.extend(children[v])
    excess = [mu.get(v, 0) - nu.get(v, 0) for v in range(len(parent))]
    total = 0
    for v in reversed(order):
        if parent[v] is not None:
            total += weight[v] * abs(excess[v])
            excess[parent[v]] += excess[v]
    return total


def monotone_line_cost(xs, ys, exponent):
    """Cost of the monotone (quantile) coupling of two measures on the line.

    ``xs`` and ``ys`` are (position, mass) pairs with equal total mass. The
    coupling sends the k-th unit of mass in increasing order of position to
    the k-th, so it pairs the two quantile functions; for the cost
    |x - y| ** exponent with exponent >= 1 no coupling is cheaper.
    """
    xs = [list(a) for a in sorted(xs)]
    ys = [list(b) for b in sorted(ys)]
    total = 0
    i = j = 0
    while i < len(xs) and j < len(ys):
        moved = min(xs[i][1], ys[j][1])
        total += moved * abs(xs[i][0] - ys[j][0]) ** exponent
        xs[i][1] -= moved
        ys[j][1] -= moved
        if xs[i][1] == 0:
            i += 1
        if ys[j][1] == 0:
            j += 1
    return total


def first_triangle_violation(matrix, slack=0):
    """The first (i, j, k) with d(i, j) > d(i, k) + d(k, j) + slack, k outermost, or None."""
    n = len(matrix)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if matrix[i][j] > matrix[i][k] + matrix[k][j] + slack:
                    return i, j, k
    return None


def fraction_atoms(mu):
    """Measure atoms as plain ((coords...), mass) scalar tuples."""
    out = []
    for point, mass in mu.atoms:
        coords = _coords(point)
        out.append((coords, mass))
    return tuple(out)


def _coords(point):
    t = getattr(point, "t", None)
    x = getattr(point, "x", None)
    if x is not None:
        return (t,) + _coords(x)
    if t is not None:
        return (t,)
    coords = getattr(point, "coords", None)
    if coords is not None:
        return tuple(coords)
    return (point.index,)
