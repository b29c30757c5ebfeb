"""Discrete optimal transport via the transportation simplex.

Costs are handled as powered distances d**p throughout; the 1/p root is
applied only when reporting ``cost``. The simplex starts from the
northwest-corner plan, with a hard pivot budget (never a silent
approximation). The entering cell comes from block-search pricing (Bonneel,
van de Panne, Paris & Heidrich 2011): the scan resumes where the last one
stopped, wraps round the m*n cells, and takes the most negative reduced cost
in the first block of max(isqrt(m*n), 10) cells that has one. Cunningham's
(1976) leaving rule keeps the tree strongly feasible, which rules out
cycling on degenerate pivots. The spanning-tree basis is kept in arrays
indexed by node, rows 0..m-1 and columns m..m+n-1, rooted at row 0: each
node's parent, depth and neighbours, and the flow of the basic cell that
links it to its parent; pricing reads a cell's tree membership from these
links. The northwest staircase is a path from row 0, built in one pass. A
pivot walks up from both ends of the entering cell to the apex of its cycle,
reading the flows by node and picking the leaving cell on the way, turns
round the parent links from the entering cell's end up to the node the
leaving cell cuts off, each flow moving to its link's new child, and
recomputes depths and potentials only on the subtree it re-hangs. Exact
inputs (int/Fraction masses and costs) are recognized automatically: masses
are scaled by the lcm of their denominators, and the space builds the costs
in integer units straight from the coordinates, so the pivots and the
certificate run on Python ints and the results become Fractions once, at
the end; a potential is typed by a walk of the final tree unless every
exact cost is an int (a ``Finite`` space with no Fraction entry), when it
is the kernel's int. Scaling every cost by one positive integer scales
every reduced cost by it too, so no pivot depends on that integer.

The optimal cost is unique, so exact ``powered_cost``, ``cost`` and
``certified`` do not depend on the pivot rule. The pivot count does, and so
do the plan and the potentials when several are optimal, and float values
in their last digits.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BudgetError,
    CouplingError,
    DomainError,
    SolverStallError,
    SpaceMismatchError,
)
from ._numbers import DEFAULT_TOL, format_number, integer_units, root, tolerance
from .measure import _point_tokens

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
        if abs(total - 1) > tolerance(total):
            raise CouplingError(f"coupling mass {total} differs from 1 beyond {tolerance(total)}")

    @classmethod
    def _solved(cls, space, row_points, col_points, weights):
        """The plan of a simplex solve: its four fields set in one dict update, unchecked.

        The simplex keeps its flows nonnegative and on the measures' marginals,
        and hands over tuples, so the checks above would only re-sum the plan.
        """
        plan = object.__new__(cls)
        vars(plan).update(space=space, row_points=row_points, col_points=col_points, weights=weights)
        return plan

    def row_sums(self):
        # a plain running sum, as in col_sums: from Python 3.12 on the builtin
        # sum compensates float sums, and would sum the two marginals differently
        return tuple(functools.reduce(operator.add, row) for row in self.weights)

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
    """Check that ``pi`` couples ``mu`` with ``nu``: exact marginals exactly, others within tol."""
    if pi.space != mu.space or mu.space != nu.space:
        raise SpaceMismatchError("coupling and measures must share one space")
    if pi.row_points != mu.support or pi.col_points != nu.support:
        raise CouplingError("coupling supports do not match the measure supports")
    sides = (("row", pi.row_sums(), mu.masses), ("column", pi.col_sums(), nu.masses))
    for side, sums, masses in sides:
        for got, want in zip(sums, masses):
            allowed = tolerance(got - want, tol)
            if abs(got - want) > allowed:
                raise CouplingError(f"{side} marginal {got} differs from mass {want} beyond {allowed}")


def _check_plan_points(pi, p):
    """Check p and every row and column point of the plan, each point once."""
    if not p >= 1:
        raise DomainError(f"cost exponent p={p!r} must be >= 1")
    for point in pi.row_points + pi.col_points:
        pi.space.validate_point(point)


def coupling_cost(pi, p=1):
    """Total powered cost sum of weight * d(row, col)**p over the plan.

    Only the plan's nonzero cells are costed: a vertex plan has at most
    m + n - 1 of its m * n cells.
    """
    _check_plan_points(pi, p)
    space = pi.space
    total = 0
    for j, row in enumerate(pi.weights):
        y = pi.row_points[j]
        for k, w in enumerate(row):
            if w != 0:
                total = total + w * space.powered_distance(y, pi.col_points[k], p)
    return total


# ---------------------------------------------------------------------------
# transportation simplex


def _northwest_corner(a, b, m, n):
    """Northwest-corner plan: a flows dict over its m + n - 1 staircase cells, in order.

    When a row and a column run out together, the row advances first, so the
    zero-flow cell that follows joins a new row below the spent column. Rooted
    at row 0, every cell whose column end is the child then carries positive
    flow: the start is a strongly feasible tree.
    """
    rem_a = list(a)
    rem_b = list(b)
    flows = {}
    i = j = 0
    while True:
        take = rem_a[i] if rem_a[i] <= rem_b[j] else rem_b[j]
        flows[(i, j)] = take
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
    return flows


def _flow_cost(flows, cost):
    total = 0
    for (i, j), f in flows.items():
        total = total + f * cost[i][j]
    return total


def _fill_flows(flows, parent, flow, m):
    """Set each basic cell (i, j) of ``flows`` to its child node's flow; return ``flows``."""
    for cell in flows:
        i, j = cell
        flows[cell] = flow[i] if parent[i] == m + j else flow[m + j]
    return flows


def _transport_simplex(a, b, cost, m, n, scale, budget):
    """Core simplex. Returns (flows dict over the basis, pivot count, u, v, tree adjacency).

    ``scale`` is None for float inputs. For integer units it is the number of
    flow-times-cost units in one unit of real cost, used to report a stall.

    Tree nodes are rows 0..m-1 and columns m..m+n-1, rooted at row 0. Each
    node other than the root holds its parent, its depth and the flow of the
    basic cell that links it to its parent. A node's potential is the cost of
    that cell minus its parent's potential, the same operations along the
    same unique path from row 0 however the tree was reached, so float
    potentials are bit-identical to a full re-solve. The flows dict comes
    back in the order the cells joined the basis: the northwest cells, then
    the entering cells in pivot order, less those that left.
    """
    nodes = m + n
    parent = [-1] * nodes
    depth = [0] * nodes
    flow = [0] * nodes
    adj = [[] for _ in range(nodes)]
    u = [0] * m
    v = [0] * n
    # The basic cells in the returned dict's order; the flows themselves are
    # kept on the nodes and filled in when the dict is handed out.
    flows = _northwest_corner(a, b, m, n)
    # The northwest staircase is a path from row 0: each cell after the first
    # moves the row or the column by one, and that row or column is the new
    # node, one deeper than the last.
    last = 0
    for node_depth, ((i, j), f) in enumerate(flows.items(), 1):
        if i == last:
            node = m + j
            parent[node] = i
            v[j] = cost[i][j] - u[i]
        else:
            node = i
            parent[i] = m + j
            u[i] = cost[i][j] - v[j]
        depth[node] = node_depth
        flow[node] = f
        adj[i].append(m + j)
        adj[m + j].append(i)
        last = i

    threshold = -_ENTERING_EPS if scale is None else 0
    cells = m * n
    block = max(math.isqrt(cells), 10)
    i = j = 0  # where the next pricing scan starts, row-major over the cells
    pivots = 0
    while True:
        # Block search: scan from (i, j), wrapping round the cells, and take
        # the most negative reduced cost of the first block that has one (no
        # block runs past the cells left). A tree cell links a node to its parent.
        ei = -1
        best = threshold
        left = block
        scanned = 0
        while scanned < cells:
            stop = n if j + left > n else j + left
            ui = u[i]
            row = cost[i]
            for k in range(j, stop):
                d = row[k] - ui - v[k]
                if d < best and parent[i] != m + k and parent[m + k] != i:
                    best = d
                    ei, ej = i, k
            scanned += stop - j
            left -= stop - j
            j = stop
            if j == n:
                j = 0
                i = i + 1 if i < m - 1 else 0
            if left == 0:
                if ei >= 0:
                    break
                left = block if block < cells - scanned else cells - scanned
        if ei < 0:
            return _fill_flows(flows, parent, flow, m), pivots, u, v, adj
        if pivots >= budget:
            current = _flow_cost(_fill_flows(flows, parent, flow, m), cost)
            raise SolverStallError(
                f"pivot budget {budget} exhausted before optimality",
                pivots=pivots,
                current_cost=current if scale is None else Fraction(current, scale),
            )
        # Walk up from both ends of the entering cell to the apex where they
        # meet. Round the cycle, cells lose and gain theta in turn, and the
        # cell next to the entering one loses on either side, so the losing
        # links are a row's link to its parent on the row (x) side and a
        # column's on the column (y) side.
        #
        # Cunningham's leaving rule: walking the cycle from the apex in the
        # entering cell's direction (down the x side, across the entering
        # cell, up the y side), the last cell to reach zero leaves. Walking
        # up, that is the last minimum met on the y side, else the first on
        # the x side. It keeps the tree strongly feasible: every basic cell
        # whose column end is the child carries positive flow.
        path_x = []
        path_y = []
        theta_x = theta_y = math.inf
        x, y = ei, m + ej
        while x != y:
            if depth[x] >= depth[y]:
                path_x.append(x)
                if x < m and flow[x] < theta_x:
                    theta_x = flow[x]
                    cut_x = x
                x = parent[x]
            else:
                path_y.append(y)
                if y >= m and flow[y] <= theta_y:
                    theta_y = flow[y]
                    cut_y = y
                y = parent[y]
        if theta_y <= theta_x:
            theta, cut, top, hook, path = theta_y, cut_y, m + ej, ei, path_y
        else:
            theta, cut, top, hook, path = theta_x, cut_x, ei, m + ej, path_x
        for node in path_x:
            if node < m:
                flow[node] = flow[node] - theta
            else:
                flow[node] = flow[node] + theta
        for node in path_y:
            if node < m:
                flow[node] = flow[node] + theta
            else:
                flow[node] = flow[node] - theta
        # The leaving cell links ``cut`` to its parent. The entering cell's
        # end ``top`` lost its way to row 0 with it and hangs below ``hook``
        # instead: the links from top up to cut turn round, each flow moving
        # to the link's new child, and the entering flow theta goes to top.
        up = parent[cut]
        below, carried = hook, theta
        for node in path:
            parent[node], below = below, node
            flow[node], carried = carried, flow[node]
            if node == cut:
                break
        del flows[(cut, up - m) if cut < m else (up, cut - m)]
        flows[(ei, ej)] = None
        adj[cut].remove(up)
        adj[up].remove(cut)
        adj[ei].append(m + ej)
        adj[m + ej].append(ei)
        # Depths and potentials below top: a row's children take
        # row[c] - u, a column's children take cost[r][c] - v. A leaf, with
        # no neighbour but its parent, has nothing below it to visit.
        if top < m:
            u[ei] = cost[ei][ej] - v[ej]
        else:
            v[ej] = cost[ei][ej] - u[ei]
        depth[top] = depth[hook] + 1
        stack = [top]
        while stack:
            node = stack.pop()
            up = parent[node]
            below = depth[node] + 1
            if node < m:
                row = cost[node]
                ui = u[node]
                for c in adj[node]:
                    if c != up:
                        depth[c] = below
                        v[c - m] = row[c - m] - ui
                        if len(adj[c]) > 1:
                            stack.append(c)
            else:
                k = node - m
                vk = v[k]
                for r in adj[node]:
                    if r != up:
                        depth[r] = below
                        u[r] = cost[r][k] - vk
                        if len(adj[r]) > 1:
                            stack.append(r)
        pivots += 1


@dataclass(frozen=True)
class TransportResult:
    """Optimal transport solve output.

    ``powered_cost`` is the optimal value for the cost d**p; ``cost`` is its
    p-th root (the Wasserstein distance). ``dual_potentials`` holds the LP
    duals (u over the row support, v over the column support) anchored at
    u[0] = 0; ``certified`` records that dual feasibility, complementary
    slackness, and a zero duality gap were verified on the returned plan:
    exactly on an exact solve, within the solve's ``tol`` on a float one.
    ``arithmetic`` is ``"exact"`` when the masses and every cost d**p were
    int/Fraction and the solve ran in exact arithmetic, else ``"float"``:
    exact inputs whose powered distances are not exact come back float.
    """

    p: object
    powered_cost: object
    cost: object
    coupling: Coupling
    dual_potentials: tuple
    certified: bool
    pivots: int
    arithmetic: str


def _certify(a, b, cost, flows, u, v, m, n, primal, tol):
    """Whether u, v prove the flows of cost ``primal`` optimal, each check within ``tol``."""
    gap_total = 0
    for i in range(m):
        gap_total = gap_total + a[i] * u[i]
    for j in range(n):
        gap_total = gap_total + b[j] * v[j]
    for (i, j), f in flows.items():
        if f > tol and abs(cost[i][j] - u[i] - v[j]) > tol:
            return False
    for i in range(m):
        ui = u[i]
        row = cost[i]
        for j in range(n):
            if row[j] - ui - v[j] < -tol:
                return False
    return abs(gap_total - primal) <= tol


def _joint_units(mass_a, mass_b):
    """Two measures' cached ``(units, L)`` brought to one unit: ``(a_units, b_units, L)``.

    L is the lcm of the two, so these are the ints ``integer_units(a + b)``
    gives over both measures' masses.
    """
    (a_units, La), (b_units, Lb) = mass_a, mass_b
    L = math.lcm(La, Lb)
    if L != La:
        a_units = [x * (L // La) for x in a_units]
    if L != Lb:
        b_units = [x * (L // Lb) for x in b_units]
    return a_units, b_units, L


def _int_nodes(space, rows, cols, adj, m):
    """Whether each tree node's potential is an int, walking the tree from row 0.

    The potential of row 0 is the int 0, and each node below gets the cost of
    the cell to its parent minus its parent's potential. That difference is an
    int exactly when both are, so a node's potential is an int exactly when
    every cost on its path from row 0 is (``space._int_cost``).
    """
    ints = [None] * len(adj)
    ints[0] = True
    stack = [0]
    while stack:
        node = stack.pop()
        for nb in adj[node]:
            if ints[nb] is None:
                i, j = (nb, node - m) if nb < m else (node, nb - m)
                ints[nb] = ints[node] and space._int_cost(rows[i], cols[j])
                stack.append(nb)
    return ints


def solve_wasserstein(mu, nu, p=1, tol=DEFAULT_TOL, pivot_budget=None):
    """Optimal transport between two measures on one space, cost d**p.

    Both arithmetics take one path: build the problem, run the
    transportation simplex (northwest-corner start, block-search pricing on
    strongly feasible trees), cost the flows, certify, and write the plan.
    With int/Fraction masses and every cost d**p exact, the problem is in
    integer units: the masses' units cached on each measure and the space's
    ``_unit_costs``. The certificate then allows ``tolerance(powered, tol)``,
    which is 0, so ``certified`` is exact; the plan and cost become Fractions
    once, and each potential is the int or the Fraction that Fraction
    arithmetic along its tree path would give it (``_int_nodes``, a walk
    that a space whose exact costs are all ints skips). Any other
    input takes the space's ``cost_matrix`` and is certified within ``tol``.
    The pivot budget defaults to 10 * m * n; exhausting it raises
    :class:`SolverStallError` rather than returning an approximation. The
    result's ``arithmetic`` says which arithmetic the solve ran in. Where
    several plans are optimal, which one comes back (and its potentials) is
    up to the pivot rule; the cost is not.
    """
    if mu.space != nu.space:
        raise SpaceMismatchError("measures live on different spaces")
    if not p >= 1:
        raise DomainError(f"cost exponent p={p!r} must be >= 1")
    space = mu.space
    rows = mu.support
    cols = nu.support
    m, n = len(rows), len(cols)
    mass_a = mu._mass_units
    mass_b = nu._mass_units
    # the measures validated their points and p is checked above
    units = None if mass_a is None or mass_b is None else space._unit_costs(rows, cols, p)
    if units is None:
        a, b, cost, L, scale = mu.masses, nu.masses, space.cost_matrix(rows, cols, p), None, None
    else:
        # pivot and certify on integers: masses times L and costs times Lc,
        # so flow-times-cost sums are in units of 1 / (L * Lc)
        cost, Lc = units
        a, b, L = _joint_units(mass_a, mass_b)
        scale = L * Lc
    budget = 10 * m * n if pivot_budget is None else pivot_budget
    flows, pivots, u, v, adj = _transport_simplex(a, b, cost, m, n, scale, budget)
    powered = _flow_cost(flows, cost)
    certified = _certify(a, b, cost, flows, u, v, m, n, powered, tolerance(powered, tol))
    # the nonzero cells: integer flows become Fractions, float ones stay as they are
    weights = [[0] * n for _ in range(m)]
    for (i, j), f in flows.items():
        if f:
            weights[i][j] = f if L is None else (Fraction(f, L) if f % L else Fraction(f // L))
    if scale is not None:
        powered = Fraction(powered, scale)
        # the kernel's potentials are in cost units; each is reported as the int
        # or the Fraction that Fraction arithmetic along its tree path from row 0
        # would make, which is the kernel's int when every exact cost is an int
        if not space._int_costs:
            ints = _int_nodes(space, rows, cols, adj, m)
            u = [x // Lc if whole else Fraction(x, Lc) for x, whole in zip(u, ints)]
            v = [x // Lc if whole else Fraction(x, Lc) for x, whole in zip(v, ints[m:])]

    plan = Coupling._solved(space, rows, cols, tuple(map(tuple, weights)))
    return TransportResult(
        p=p,
        powered_cost=powered,
        cost=root(powered, p),
        coupling=plan,
        dual_potentials=(tuple(u), tuple(v)),
        certified=certified,
        pivots=pivots,
        arithmetic="float" if scale is None else "exact",
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


def _union(mu, nu):
    """The points of supp(mu) | supp(nu), and the index there of each point of supp(nu).

    One point -> index map builds both. The points of mu come first, at their
    own indices. Points are frozen dataclasses and equal numbers hash equal, so
    a point of nu equal to one of mu (Fraction(1, 2) and 0.5 alike) keeps mu's
    form and index.
    """
    index = {z: k for k, z in enumerate(mu.support)}
    nu_at = [index.setdefault(z, len(index)) for z in nu.support]
    return list(index), nu_at


def _union_support(mu, nu):
    return _union(mu, nu)[0]


def _net_mass(a, b, nu_at, size):
    """nu's mass minus mu's at each union point, from the mass lists ``a`` of mu and ``b`` of nu."""
    net = [-x for x in a] + [0] * (size - len(a))
    for k, x in zip(nu_at, b):
        net[k] = net[k] + x
    return net


def _kr_witness(mu, nu, result):
    """1-Lipschitz witness f(z) = min_j (d(z, y_j) - u_j) from a solved p = 1 ``result``.

    The dual value is the sum of f(z) times nu's mass minus mu's at z, over
    the union of the supports.

    On an exact result the c-transform runs in integers: the distances come
    from the space's integer units at p = 1, and the potentials are scaled to
    their common unit L with them. On a certified one, f at a point of
    supp(nu) outside supp(mu) is that column's potential v_k: dual
    feasibility gives d(y_j, z_k) - u_j >= v_k for every j, and the column's
    tree cell gives equality. So the distances are built over supp(mu) x
    supp(mu) only; an uncertified result builds them over the whole union.
    The net masses are taken in the measures' joint mass units (scale Lm), so
    the dual value is one ``Fraction(sum, L * Lm)`` of an integer sum; each
    f(z) is a Fraction. A float result, or a space whose units are not exact
    there, takes ``space.distance`` cell by cell and sums f(z) times the net
    mass in the masses' own arithmetic: a float ``Euclidean`` distance at dim
    >= 2 is ``math.sqrt``, which can differ from the p = 1 cost in the last
    digit.
    """
    space = mu.space
    u, v = result.dual_potentials
    rows = mu.support
    points, nu_at = _union(mu, nu)
    units = None
    if result.arithmetic == "exact":
        units = space._unit_costs(rows if result.certified else points, rows, 1)
    if units is None:
        values = []
        for z in points:
            best = None
            for j, y in enumerate(rows):
                cand = space.distance(z, y) - u[j]
                if best is None or cand < best:
                    best = cand
            values.append(best)
        value = 0
        for f, net in zip(values, _net_mass(mu.masses, nu.masses, nu_at, len(points))):
            value = value + f * net
    else:
        costs, scale = units
        # the union points past the costed rows take their v_k, in union order
        known = [v[k] for k, at in enumerate(nu_at) if at >= len(costs)]
        u_units, Lu = integer_units(u)
        v_units, Lv = integer_units(known)
        L = math.lcm(scale, Lu, Lv)
        k = L // scale
        u_units = [x * (L // Lu) for x in u_units]
        f_units = [min(c * k - uj for c, uj in zip(row, u_units)) for row in costs]
        f_units += [x * (L // Lv) for x in v_units]
        values = [Fraction(x, L) for x in f_units]
        a_units, b_units, Lm = _joint_units(mu._mass_units, nu._mass_units)
        net = _net_mass(a_units, b_units, nu_at, len(points))
        value = Fraction(sum(f * x for f, x in zip(f_units, net)), L * Lm)
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
    cells; a strict improvement beyond ``tol``, or any strict improvement
    when the cycle's cost is exact, is returned as a witness (the offending
    cells in order). The combinatorial size is guarded:
    cells**max_cycle beyond ``budget`` raises instead of running forever.
    """
    if max_cycle < 2:
        raise DomainError("max_cycle must be at least 2")
    cells = pi.cells()
    if len(cells) ** max_cycle > budget:
        raise BudgetError(
            f"{len(cells)} support pairs ** {max_cycle} exceeds budget {budget}"
        )
    _check_plan_points(pi, p)
    cost = pi.space.cost_matrix(pi.row_points, pi.col_points, p)

    checked = 0
    for L in range(2, max_cycle + 1):
        for subset in itertools.combinations(range(len(cells)), L):
            base = 0
            for idx in subset:
                j, k, _ = cells[idx]
                base = base + cost[j][k]
            bound = base - tolerance(base, tol)
            first = subset[0]
            for rest in itertools.permutations(subset[1:]):
                order = (first,) + rest
                checked += 1
                swapped = 0
                for pos, idx in enumerate(order):
                    j = cells[idx][0]
                    k_next = cells[order[(pos + 1) % L]][1]
                    swapped = swapped + cost[j][k_next]
                if swapped < bound:
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
