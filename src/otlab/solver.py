"""Discrete optimal transport via the transportation simplex.

Costs are handled as powered distances d**p throughout; the 1/p root is
applied only when reporting ``cost``. The kernel is one pivot loop
(``_simplex_from``) run from a start, a flows dict over a spanning tree that
``_hang`` hangs from row 0, with a hard pivot budget (never a silent
approximation). One tree walk, ``_hang_below``, hangs everything below a
node; every pivot runs it from the node it re-hangs, and the set-up from row
0 unless the start's cells attach one by one in their order, as a northwest
staircase's do. An exact solve starts from the northwest corner
(``_transport_simplex``); it keeps that start, so its pivots, plan and
potentials do not move. A float solve starts from a least-cost spanning tree
(``_least_cost_tree``); on the paper's product at m = n = 40 that halves the
pivots. A float solve whose costs are all Python floats and whose matrix
has more than ``_PER_CELL_MAX`` (25) cells keeps one float64 array of them
beside the lists: the one ``cost_matrix`` broadcast, else ``np.array`` of the
list. The start orders its cells with a stable argsort of it and the
certificate scans dual feasibility on it; both make the loops' comparisons
on the same bits, so the results do not move. So a float solve's path
follows its costs and its size, not how its coordinates were spelled: any
exact cost or at most 25 cells, loops and block search; 26 to 575 cells,
the array's start and certificate and block search; 576
(``_CANDIDATE_MIN_CELLS``) or more, the array throughout. The entering cell
comes from block-search pricing (Bonneel, van de Panne, Paris & Heidrich
2011): the scan resumes where the last one stopped, wraps round the m*n
cells, and takes the most negative reduced cost in the first block of
max(isqrt(m*n), 10) cells that has one. Given the array and at least
``_CANDIDATE_MIN_CELLS`` cells, the kernel prices from a candidate list
instead (Grigoriadis 1986): the listed cells are re-priced in Python on
each pivot, and one numpy pass over a band of rows refills the list when
none of them is negative any more. On the paper's product at m = n = 40
that takes about a third fewer pivots. Cunningham's (1976)
leaving rule keeps a strongly feasible tree strongly feasible, which rules
out cycling on degenerate pivots. Both starts are strongly feasible: the
northwest staircase on exact masses, the least-cost tree on any masses,
float dust included. Only ``_northwest_corner`` on float masses whose totals
differ by dust may not be (its docstring); no solve starts from that, and
``sampling.random_coupling`` takes it as a plan only. The spanning-tree
basis is kept in arrays indexed by node, rows 0..m-1 and columns m..m+n-1,
rooted at row 0: each node's parent, depth and neighbours, and the flow of
the basic cell that links it to its parent; pricing reads a cell's tree
membership from these links. A pivot walks up from both ends of the entering
cell to the apex of its cycle, reading the flows by node and picking the
leaving cell on the way, moves each flow on the path from the entering
cell's end up to the node the leaving cell cuts off to its link's new child,
and hangs that end below the entering cell's other end: ``_hang_below`` turns
the parent links on the path round and recomputes parents, depths and
potentials only on the subtree it re-hangs. A solve that makes no pivot
returns the start's dict as its set-up made it; after a pivot the flows are
read back from the nodes. Exact
inputs (int/Fraction masses and costs) are recognized automatically: masses
are scaled by the lcm of their denominators, and the space builds the costs
in integer units straight from the coordinates, so the pivots and the
certificate run on Python ints and the results become Fractions once, at
the end; a potential is typed by a walk of the final tree unless every
exact cost is an int (a ``Finite`` space with no Fraction entry), when it
is the kernel's int. Scaling every cost by one positive integer scales
every reduced cost by it too, so no pivot depends on that integer. The plan
and the result are built by ``_frozen`` in one update of each new
instance's dict, as ``__init__`` would leave it.

The optimal cost is unique, so exact ``powered_cost``, ``cost`` and
``certified`` do not depend on the start or the pivot rule. The pivot count
does, and so do the plan and the potentials when several are optimal, and
float values in their last digits.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetError,
    CouplingError,
    DomainError,
    SolverStallError,
    SpaceMismatchError,
)
from ._numbers import DEFAULT_TOL, format_number, integer_units, plain_sum, ratio, root, tolerance
from .measure import _point_tokens, _require_same_space
from .metric import _MAX_FLOAT, _PER_CELL_MAX, _check_cost_exponent, _cost_beyond_range, _distance_beyond_range

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
# candidate-list pricing: the list's length, the cells a numpy band prices,
# and the fewest cells of a float solve that prices so (set by measurement)
_CANDIDATES = 40
_BAND_CELLS = 1600
_CANDIDATE_MIN_CELLS = 576


def _frozen(cls, **fields):
    """An instance of the frozen dataclass ``cls``, its fields set in one dict update, unchecked.

    ``__init__`` sets them one ``object.__setattr__`` at a time. The fields
    come in their declared order, so the instance dict, and with it ``repr``,
    ``==``, ``hash`` and the pickle bytes, is the one ``__init__`` leaves.
    """
    obj = object.__new__(cls)
    vars(obj).update(fields)
    return obj


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
        for row in self.weights:
            for w in row:
                if w < 0:
                    raise CouplingError(f"negative coupling weight {w!r}")
        total = plain_sum(w for row in self.weights for w in row)
        if abs(total - 1) > tolerance(total):
            raise CouplingError(f"coupling mass {total} differs from 1 beyond {tolerance(total)}")

    @classmethod
    def _solved(cls, space, row_points, col_points, weights):
        """The plan of a simplex solve, built by ``_frozen`` without the checks above.

        The simplex keeps its flows nonnegative and on the measures' marginals,
        and hands over tuples, so the checks would only re-sum the plan.
        """
        return _frozen(cls, space=space, row_points=row_points, col_points=col_points, weights=weights)

    def row_sums(self):
        return tuple(map(plain_sum, self.weights))

    def col_sums(self):
        return tuple(map(plain_sum, zip(*self.weights)))

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
    _check_cost_exponent(p)
    for point in pi.row_points + pi.col_points:
        pi.space.validate_point(point)


def coupling_cost(pi, p=1):
    """Total powered cost sum of weight * d(row, col)**p over the plan.

    Only the plan's nonzero cells are costed: a vertex plan has at most
    m + n - 1 of its m * n cells. As in ``cost_matrix``, a cost beyond the
    float range (inf) is a DomainError, and so is a total that adds an exact
    cost too large for a float to a float one.
    """
    _check_plan_points(pi, p)
    cost = pi.space.powered_distance
    rows, cols = pi.row_points, pi.col_points
    try:
        total = plain_sum(w * cost(rows[j], cols[k], p) for j, k, w in pi.cells())
    except OverflowError:  # an exact cost beyond the float range met a float one
        total = math.inf
    if total == math.inf:
        raise _cost_beyond_range(p)
    return total


# ---------------------------------------------------------------------------
# transportation simplex


def _northwest_corner(a, b, m, n):
    """Northwest-corner plan: a flows dict over its m + n - 1 staircase cells, in order.

    When a row and a column run out together, the row advances first, so the
    zero-flow cell that follows joins a new row below the spent column. With
    exact masses, rooted at row 0, every cell whose column end is the child
    then carries positive flow: the start is a strongly feasible tree.

    Float masses can leave dust: the last row runs out while its column keeps
    a sliver, or the last column while its row does. The walk then steps on
    with nothing left to ship, and the cell it joins carries zero flow. With
    a = [1/2, 1/2 - 2e-12] and b = [1/2, 1/2 - 1e-12, 1e-12] that cell is
    (1, 2), whose column end is the child, so that start is not strongly
    feasible.
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


# _flow_cost and _certify's gap fold like plain_sum, left to right from 0, but
# stay loops: they run once per solve on a few cells, where feeding plain_sum a
# generator costs about twice the loop and slows the small exact solves
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


def _least_cost_tree(a, b, cost, m, n, array=None):
    """Least-cost (matrix-minimum) start: a flows dict over a spanning tree, strongly feasible.

    The cells are taken in ascending cost, ties in row-major order, and each
    cell whose row and column both have mass left ships the smaller of the
    two, which spends its row or its column (both on a tie). Every such cell
    carries positive flow and the cells form a forest. A line that no cell
    reached (float dust only: the other side ran out first) ships what it has
    over its cheapest cell to the lines that were. Each tree not holding row
    0 then hangs from row 0's tree by one zero-flow cell, from its first row
    to that row's cheapest column in row 0's tree. Rooted at row 0, that row
    is the cell's child, so every basic cell whose column end is the child
    carries positive flow: the start is strongly feasible, dust or not.

    The dict holds the forest in the order its cells were taken, then the
    dust cells, then the joining cells.

    ``array`` is the float solve's float64 array of its costs (all Python
    floats, more than ``_PER_CELL_MAX`` cells), or None: the loop path, which
    small matrices and solves with an exact cost take. With it the order
    comes from a stable ``np.argsort``, which keeps ties in row-major order as
    ``sorted`` does (-0.0 ties with 0.0 in both), and the cells' rows and
    columns from one vectorised ``divmod``.
    """
    if array is None:
        flat = [c for row in cost for c in row]
        cells = map(divmod, sorted(range(m * n), key=flat.__getitem__), itertools.repeat(n))
    else:
        rows, cols = np.divmod(np.argsort(array, axis=None, kind="stable"), n)
        cells = zip(rows.tolist(), cols.tolist())
    rem_a = list(a)
    rem_b = list(b)
    rows_left, cols_left = m, n
    flows = {}
    for i, j in cells:
        x = rem_a[i]
        y = rem_b[j]
        if x and y:
            take = x if x <= y else y
            flows[(i, j)] = take
            rem_a[i] = x = x - take
            rem_b[j] = y = y - take
            if not x:
                rows_left -= 1
            if not y:
                cols_left -= 1
            if not (rows_left and cols_left):
                break
    if len(flows) == m + n - 1:  # a forest of m + n - 1 cells on m + n nodes is one tree
        return flows
    adj = [[] for _ in range(m + n)]
    for i, j in flows:
        adj[i].append(m + j)
        adj[m + j].append(i)
    # once every row (or column) is spent, a line of the other side that no
    # cell reached holds only dust; rows and columns cannot both be left out
    for i in range(m):
        if not adj[i]:
            j = min((j for j in range(n) if adj[m + j]), key=cost[i].__getitem__)
            flows[(i, j)] = rem_a[i]
            adj[i].append(m + j)
            adj[m + j].append(i)
    for j in range(n):
        if not adj[m + j]:
            i = min((i for i in range(m) if adj[i]), key=lambda i: cost[i][j])
            flows[(i, j)] = rem_b[j]
            adj[i].append(m + j)
            adj[m + j].append(i)
    seen = [False] * (m + n)
    tree_cols = []
    for top in range(m):
        if seen[top]:
            continue
        if top:
            j = min(tree_cols, key=cost[top].__getitem__)
            flows[(top, j)] = 0 * a[top]
        seen[top] = True
        stack = [top]
        while stack:
            for nb in adj[stack.pop()]:
                if not seen[nb]:
                    seen[nb] = True
                    stack.append(nb)
                    if nb >= m:
                        tree_cols.append(nb - m)
    return flows


def _hang_below(top, parent, depth, adj, u, v, cost, m):
    """Hang every node below ``top`` from top's own parent, depth and potential.

    Each node takes its parent, its depth and its potential: the cost of the
    cell to its parent minus the parent's potential. A leaf, with no
    neighbour but its parent, has nothing below it to visit.
    """
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
                    parent[c] = node
                    depth[c] = below
                    v[c - m] = row[c - m] - ui
                    if len(adj[c]) > 1:
                        stack.append(c)
        else:
            k = node - m
            vk = v[k]
            for r in adj[node]:
                if r != up:
                    parent[r] = node
                    depth[r] = below
                    u[r] = cost[r][k] - vk
                    if len(adj[r]) > 1:
                        stack.append(r)


def _hang(flows, cost, m, n):
    """The tree of any spanning-tree flows dict: (parent, depth, flow, adj, u, v), hung from row 0.

    The cells attach in the dict's order while each has exactly one end hung
    already: the other end takes its parent, depth and potential, and the
    cell's flow. A northwest staircase attaches every cell so, with no walk.
    At the first cell that does not attach (a least-cost tree meets one
    within a few cells), the rest of the cells go into the adjacency,
    ``_hang_below`` hangs the tree from row 0 and each cell's flow goes to
    its child node, the inverse of ``_fill_flows``. A node's parent, depth
    and potential depend only on the tree, so either way gives the same.
    """
    nodes = m + n
    parent = [None] * nodes  # None until the node is hung
    parent[0] = -1
    depth = [0] * nodes
    flow = [0] * nodes
    adj = [[] for _ in range(nodes)]
    u = [0] * m
    v = [0] * n
    cells = iter(flows.items())
    for (i, j), f in cells:
        c = m + j
        adj[i].append(c)
        adj[c].append(i)
        if parent[c] is None:
            if parent[i] is None:
                break
            parent[c] = i
            depth[c] = depth[i] + 1
            v[j] = cost[i][j] - u[i]
            flow[c] = f
        elif parent[i] is None:
            parent[i] = c
            depth[i] = depth[c] + 1
            u[i] = cost[i][j] - v[j]
            flow[i] = f
    else:
        return parent, depth, flow, adj, u, v
    for (i, j), _ in cells:
        adj[i].append(m + j)
        adj[m + j].append(i)
    _hang_below(0, parent, depth, adj, u, v, cost, m)
    for (i, j), f in flows.items():
        if parent[i] == m + j:
            flow[i] = f
        else:
            flow[m + j] = f
    return parent, depth, flow, adj, u, v


def _candidate_search(array, cost, u, v, parent, m, n):
    """Candidate-list pricing (Grigoriadis 1986) on float costs: yields entering cells, ends at optimality.

    Each pivot re-prices the listed cells with the current potentials and
    keeps those still below ``-_ENTERING_EPS`` and off the tree; the most
    negative enters, the first on a tie. When none is left, bands of
    max(1, ``_BAND_CELLS`` // n) rows, the first resuming where the last one
    stopped and wrapping round the rows, are priced in numpy as
    ``(array - u) - v``, the loop's operations on the same bits, until one
    has a cell below the threshold; its ``_CANDIDATES`` most negative cells
    off the tree, in a stable order, are the new list and the first of them
    enters. A full wrap of bands with no such cell means the tree is optimal.
    """
    threshold = -_ENTERING_EPS
    rows = max(1, _BAND_CELLS // n)
    # the tree has m + n - 1 cells, so a band's most negative cells off the
    # tree are among its first reach cells in stable order
    reach = _CANDIDATES + m + n - 1
    top = 0  # the first row of the next band
    listed = []
    while True:
        best = threshold
        kept = []
        for cell in listed:
            i, k = cell
            d = cost[i][k] - u[i] - v[k]
            if d < threshold and parent[i] != m + k and parent[m + k] != i:
                kept.append(cell)
                if d < best:
                    best = d
                    entering = cell
        listed = kept
        if not listed:
            vs = np.array(v)
            swept = 0
            while not listed and swept < m:
                stop = min(top + rows, m)
                # a difference beyond the float range is inf in the loop too
                with np.errstate(over="ignore", invalid="ignore"):
                    reduced = ((array[top:stop] - np.array(u[top:stop])[:, None]) - vs).ravel()
                below = np.flatnonzero(reduced < threshold)
                band_rows, band_cols = np.divmod(below[np.argsort(reduced[below], kind="stable")][:reach], n)
                for i, k in zip((band_rows + top).tolist(), band_cols.tolist()):
                    if parent[i] != m + k and parent[m + k] != i:
                        listed.append((i, k))
                        if len(listed) == _CANDIDATES:
                            break
                swept += stop - top
                top = stop if stop < m else 0
            if not listed:
                return
            entering = listed[0]
        yield entering


def _transport_simplex(a, b, cost, m, n, scale, budget):
    """Core simplex from the northwest corner: ``_simplex_from`` on ``_northwest_corner``."""
    return _simplex_from(_northwest_corner(a, b, m, n), cost, m, n, scale, budget)


def _simplex_from(flows, cost, m, n, scale, budget, array=None):
    """Core simplex from a start. Returns (flows dict over the basis, pivots, u, v, tree adjacency).

    ``flows`` is the start, a dict over the cells of a spanning tree, hung
    from row 0 by ``_hang``; one pivot loop then runs from it. A pivot moves
    the flows along the path it turns round, then re-hangs the entering
    cell's end with ``_hang_below``, the walk ``_hang`` set the tree up
    with. ``scale`` is None for float inputs. For integer units it is the
    number of flow-times-cost units in one unit of real cost, used to report
    a stall. The entering cell comes from block search in the loop, or,
    given ``array`` (the float solve's float64 array of its costs) and at
    least ``_CANDIDATE_MIN_CELLS`` cells, from the generator
    ``_candidate_search``.

    Tree nodes are rows 0..m-1 and columns m..m+n-1, rooted at row 0. Each
    node other than the root holds its parent, its depth and the flow of the
    basic cell that links it to its parent. A node's potential is the cost of
    that cell minus its parent's potential, the same operations along the
    same unique path from row 0 however the tree was reached, so float
    potentials are bit-identical to a full re-solve. The flows dict comes
    back in the order the cells joined the basis: the start's cells, then
    the entering cells in pivot order, less those that left. The flows live
    on the nodes; the dict keeps the start's until a pivot moves one, and is
    then filled in from the nodes at the end.
    """
    parent, depth, flow, adj, u, v = _hang(flows, cost, m, n)
    cells = m * n
    by_list = array is not None and cells >= _CANDIDATE_MIN_CELLS
    candidates = _candidate_search(array, cost, u, v, parent, m, n) if by_list else None
    threshold = -_ENTERING_EPS if scale is None else 0
    block = max(math.isqrt(cells), 10)
    i = j = 0  # where the next block search starts, row-major over the cells
    pivots = 0
    while True:
        if candidates is not None:
            ei, ej = next(candidates, (-1, -1))
        else:
            # Block search: scan from (i, j), wrapping round the cells, and take
            # the most negative reduced cost of the first block that has one (no
            # block runs past the cells left). A tree cell links a node to its parent.
            # It stays in the loop: run as a generator it slows the small
            # exact solves, which make few pivots, by about 2%.
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
            return (_fill_flows(flows, parent, flow, m) if pivots else flows), pivots, u, v, adj
        if pivots >= budget:
            current = _flow_cost(_fill_flows(flows, parent, flow, m), cost)
            raise SolverStallError(
                f"pivot budget {budget} exhausted before optimality",
                pivots=pivots,
                current_cost=current if scale is None else ratio(current, scale),
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
        # instead: along the path from top up to cut each flow moves to its
        # link's new child, and the entering flow theta goes to top.
        # ``_hang_below`` then turns the parent links round and sets the
        # depths and potentials below top.
        up = parent[cut]
        carried = theta
        for node in path:
            flow[node], carried = carried, flow[node]
            if node == cut:
                break
        del flows[(cut, up - m) if cut < m else (up, cut - m)]
        flows[(ei, ej)] = None
        adj[cut].remove(up)
        adj[up].remove(cut)
        adj[ei].append(m + ej)
        adj[m + ej].append(ei)
        parent[top] = hook
        depth[top] = depth[hook] + 1
        if top < m:
            u[ei] = cost[ei][ej] - v[ej]
        else:
            v[ej] = cost[ei][ej] - u[ei]
        _hang_below(top, parent, depth, adj, u, v, cost, m)
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


def _certify(a, b, cost, flows, u, v, m, n, primal, tol, array=None):
    """Whether u, v prove the flows of cost ``primal`` optimal, each check within ``tol``.

    Complementary slackness is checked on the basic cells and the duality
    gap is folded in a loop. Dual feasibility covers every cell: in a loop
    (``array`` None: exact solves, small matrices, solves with an exact
    cost), or, given the float solve's float64 ``array`` of its costs, in
    numpy as ``(array - u) - v``, the loop's operations in its order on the
    same bits.
    """
    gap_total = 0
    for i in range(m):
        gap_total = gap_total + a[i] * u[i]
    for j in range(n):
        gap_total = gap_total + b[j] * v[j]
    for (i, j), f in flows.items():
        if f > tol and abs(cost[i][j] - u[i] - v[j]) > tol:
            return False
    if array is None:
        for i in range(m):
            ui = u[i]
            row = cost[i]
            for j in range(n):
                if row[j] - ui - v[j] < -tol:
                    return False
    else:
        # the loop's (c - u) - v, cell for cell; a difference beyond the float
        # range is inf there too
        with np.errstate(over="ignore", invalid="ignore"):
            if ((array - np.array(u)[:, None]) - np.array(v) < -tol).any():
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
    transportation simplex (on strongly feasible trees), cost the flows,
    certify, and write the plan. Only the start and the pricing differ. An
    exact solve starts from the northwest corner, which keeps its pivots,
    plan and potentials as they were. A float solve starts from the
    least-cost tree (``_least_cost_tree``): cells in ascending cost, each
    spending its row or its column, then one zero-flow cell from a row of
    each other tree to row 0's tree, so that the row end is the child and the
    start is strongly feasible even where float dust leaves a line unspent.
    With int/Fraction masses and every cost d**p exact, the problem is in
    integer units: the masses' units cached on each measure and the space's
    ``_unit_costs``. The certificate then allows ``tolerance(powered, tol)``,
    which is 0, so ``certified`` is exact; the plan and cost become Fractions
    once, and each potential is the int or the Fraction that Fraction
    arithmetic along its tree path would give it (``_int_nodes``, a walk
    that a space whose exact costs are all ints skips). Any other
    input takes the space's ``cost_matrix`` and is certified within ``tol``.
    Where every cost is a Python float and the matrix has more than
    ``_PER_CELL_MAX`` (25) cells, the solve keeps one float64 array of the
    costs, the broadcast one, else ``np.array`` of the list, and hands that
    one array to the start, the kernel and the certificate; the kernel
    prices from a candidate list on it from ``_CANDIDATE_MIN_CELLS`` (576)
    cells on. Three paths follow: any exact cost or at most 25 cells, loops
    and block search; 26 to 575 cells, the array's start and certificate
    and block search; 576 or more, the array throughout. Exact solves take
    the loops and block search. ``tol`` must be a finite number >= 0 and
    ``pivot_budget`` None or an integer >= 0; anything else is a
    :class:`DomainError`.
    The pivot budget defaults to 10 * m * n; exhausting it raises
    :class:`SolverStallError` rather than returning an approximation. The
    result's ``arithmetic`` says which arithmetic the solve ran in. Where
    several plans are optimal, which one comes back (and its potentials) is
    up to the start and the pivot rule; the cost is not.
    """
    _require_same_space(mu, nu)
    _check_cost_exponent(p)
    # an infinite tol would certify every float plan, a negative or NaN one none
    real = type(tol) is float or isinstance(tol, numbers.Real) and not isinstance(tol, bool)
    if not (real and 0 <= tol < math.inf):
        raise DomainError(f"tol must be a finite number >= 0, got {tol!r}")
    if pivot_budget is not None and (
        isinstance(pivot_budget, bool) or not isinstance(pivot_budget, numbers.Integral) or pivot_budget < 0
    ):
        raise DomainError(f"pivot_budget must be None or an integer >= 0, got {pivot_budget!r}")
    space = mu.space
    rows = mu.support
    cols = nu.support
    m, n = len(rows), len(cols)
    mass_a = mu._mass_units
    mass_b = nu._mass_units
    # the measures validated their points and p is checked above
    units = None if mass_a is None or mass_b is None else space._unit_costs(rows, cols, p)
    array = None
    if units is None:
        a, b, L, scale = mu.masses, nu.masses, None, None
        cost, array = space._cost_matrix_and_array(rows, cols, p)
        if array is None and m * n > _PER_CELL_MAX and all(type(c) is float for row in cost for c in row):
            array = np.array(cost)
    else:
        # pivot and certify on integers: masses times L and costs times Lc,
        # so flow-times-cost sums are in units of 1 / (L * Lc)
        cost, Lc = units
        a, b, L = _joint_units(mass_a, mass_b)
        scale = L * Lc
    budget = 10 * m * n if pivot_budget is None else pivot_budget
    start = _northwest_corner(a, b, m, n) if scale is not None else _least_cost_tree(a, b, cost, m, n, array)
    flows, pivots, u, v, adj = _simplex_from(start, cost, m, n, scale, budget, array)
    powered = _flow_cost(flows, cost)
    certified = _certify(a, b, cost, flows, u, v, m, n, powered, tolerance(powered, tol), array)
    # the nonzero cells, row-major: integer flows become Fractions, float ones stay as they are
    weights = [0] * (m * n)
    for (i, j), f in flows.items():
        if f:
            weights[i * n + j] = f if L is None else ratio(f, L)
    if scale is not None:
        powered = ratio(powered, scale)
        # the kernel's potentials are in cost units; each is reported as the int
        # or the Fraction that Fraction arithmetic along its tree path from row 0
        # would make, which is the kernel's int when every exact cost is an int
        if not space._int_costs:
            ints = _int_nodes(space, rows, cols, adj, m)
            u = [x // Lc if whole else ratio(x, Lc) for x, whole in zip(u, ints)]
            v = [x // Lc if whole else ratio(x, Lc) for x, whole in zip(v, ints[m:])]

    cells = iter(weights)  # zipped n at a time, it yields the plan's rows as tuples
    plan = Coupling._solved(space, rows, cols, tuple(zip(*[cells] * n)))
    return _frozen(
        TransportResult,
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
    from the space's integer units at p = 1, and one ``integer_units`` call
    brings the potentials u_j and the v_k taken below to one unit, scaled
    with the distances to their lcm L. On a certified result, f at a point of
    supp(nu) outside supp(mu) is that column's potential v_k: dual
    feasibility gives d(y_j, z_k) - u_j >= v_k for every j, and the column's
    tree cell gives equality. So the distances are built over supp(mu) x
    supp(mu) only; an uncertified result builds them over the whole union.
    The net masses are taken in the measures' joint mass units (scale Lm), so
    the dual value is one ``ratio(sum, L * Lm)`` of an integer sum; each
    f(z) is a Fraction. A float result, or a space whose units are not exact
    there, takes ``space.distance`` cell by cell, one ``min`` per union point
    (the first of equal candidates), and sums f(z) times the net mass in the
    masses' own arithmetic: a float ``Euclidean`` distance at dim >= 2 is
    ``math.sqrt``, which can differ from the p = 1 cost in the last digit.
    """
    space = mu.space
    u, v = result.dual_potentials
    rows = mu.support
    points, nu_at = _union(mu, nu)
    units = None
    if result.arithmetic == "exact":
        units = space._unit_costs(rows if result.certified else points, rows, 1)
    if units is None:
        values = [min(space.distance(z, y) - uj for y, uj in zip(rows, u)) for z in points]
        net = _net_mass(mu.masses, nu.masses, nu_at, len(points))
        value = plain_sum(f * x for f, x in zip(values, net))
    else:
        costs, scale = units
        # the union points past the costed rows take their v_k, in union order
        known = [v[k] for k, at in enumerate(nu_at) if at >= len(costs)]
        pot_units, Lp = integer_units([*u, *known])
        L = math.lcm(scale, Lp)
        k = L // scale
        pot_units = [x * (L // Lp) for x in pot_units]
        u_units, known_units = pot_units[: len(u)], pot_units[len(u) :]
        f_units = [min(c * k - uj for c, uj in zip(row, u_units)) for row in costs] + known_units
        values = [ratio(x, L) for x in f_units]
        a_units, b_units, Lm = _joint_units(mu._mass_units, nu._mass_units)
        net = _net_mass(a_units, b_units, nu_at, len(points))
        value = ratio(plain_sum(f * x for f, x in zip(f_units, net)), L * Lm)
    return DualPotential(value, tuple(zip(points, values)), "simplex-potentials")


def kr_dual(mu, nu, independent=False):
    """Dual witness for the 1-Wasserstein distance.

    Default path: reuse the simplex potentials, turned into a single
    1-Lipschitz function via f(z) = min_j (d(z, y_j) - u_j). With
    ``independent=True`` the dual is instead solved from scratch as an
    explicit LP over the values f(z) with pairwise Lipschitz constraints
    (scipy linprog), sharing no code with the simplex solve; it takes the
    union of the supports and the net masses (in floats) from the helpers
    the witness uses. A distance beyond the float range is a
    :class:`DomainError` on either path.

    The LP is built from arrays: the distances of the N union points in one
    N x N float64 array, one ``space.distance`` call per unordered pair, and
    from the index arrays of the N(N - 1) ordered pairs, row-major, a dense
    float64 constraint matrix with +1 at f(i) and -1 at f(j) in each row,
    and its bounds d(i, j). A sparse matrix would hold 2N(N - 1) entries
    instead of N**2(N - 1), but makes HiGHS slower on a campaign's LPs of up
    to 16 points.

    HiGHS reads a bound of 1e20 or more as infinite and works to absolute
    tolerances, so the LP is solved on the distances divided by the power of
    two 2**e that puts the largest in [0.5, 1), and its values are multiplied
    back by 2**e. Both scalings are exact unless a scaled distance falls
    below the normal floats, so pairs that differ by a power-of-two scale
    otherwise get the same LP. Only the common scale is fixed: a wide spread
    of distances within one LP (1e300 and 1e-10, say) still meets HiGHS's
    absolute tolerances at its small end.
    """
    _require_same_space(mu, nu)
    if not independent:
        return _kr_witness(mu, nu, solve_wasserstein(mu, nu, p=1))
    space = mu.space
    points, nu_at = _union(mu, nu)
    N = len(points)
    if N == 1:
        return DualPotential(0.0, ((points[0], 0.0),), "independent-lp")

    from scipy.optimize import linprog

    # -a + b has the bits of b - a: w is nu's float mass minus mu's at each union point
    w = np.array(_net_mass([float(x) for x in mu.masses], [float(x) for x in nu.masses], nu_at, N))
    # d(y, z) and d(z, y) are bit-equal on every space kind, so each unordered
    # pair is costed once and bounds both f(y) - f(z) and f(z) - f(y)
    dist = np.zeros((N, N))
    for i in range(N):
        for j in range(i + 1, N):
            d = space.distance(points[i], points[j])
            if not d <= _MAX_FLOAT:  # inf, or an exact distance too large for a float
                raise _distance_beyond_range()
            dist[i, j] = dist[j, i] = float(d)
    # one row f(i) - f(j) <= d(i, j) per ordered pair, row-major
    i, j = np.nonzero(~np.eye(N, dtype=bool))
    A_ub = np.zeros((len(i), N))
    r = np.arange(len(i))
    A_ub[r, i] = 1.0
    A_ub[r, j] = -1.0
    e = math.frexp(dist.max())[1]
    bounds = [(0.0, 0.0)] + [(None, None)] * (N - 1)
    res = linprog(-w, A_ub=A_ub, b_ub=np.ldexp(dist[i, j], -e), bounds=bounds, method="highs")
    if not res.success:
        raise SolverStallError(f"independent dual LP failed: {res.message}")
    values = [math.ldexp(float(x), e) for x in res.x]
    value = math.ldexp(float(w @ res.x), e)
    return DualPotential(value, tuple(zip(points, values)), "independent-lp")


# ---------------------------------------------------------------------------
# cyclical monotonicity


@dataclass(frozen=True)
class MonotonicityReport:
    ok: bool
    witness: tuple
    cycles_checked: int


def check_cyclical_monotonicity(pi, p=1, max_cycle=3, budget=2_000_000):
    """Search support cycles whose cyclic reassignment strictly lowers cost.

    Examines every cycle of length 2..max_cycle over the plan's positive
    cells; a strict improvement beyond ``DEFAULT_TOL`` (1e-9), or any strict
    improvement when the cycle's cost is exact, is returned as a witness (the
    offending cells in order). The combinatorial size is guarded:
    cells**max_cycle beyond ``budget`` raises instead of running forever.
    ``max_cycle`` must be an integer (not a bool) of at least 2, else a
    :class:`DomainError`.
    """
    if isinstance(max_cycle, bool) or not isinstance(max_cycle, numbers.Integral):
        raise DomainError(f"max_cycle must be an integer, got {max_cycle!r}")
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
            # the cycle sums fold like plain_sum, but inline: a generator fed to
            # it for each subset and each order made the search 1.3-1.8x slower
            base = 0
            for idx in subset:
                j, k, _ = cells[idx]
                base = base + cost[j][k]
            bound = base - tolerance(base)
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
    # the column side runs the row code on the transposed plan
    col = side == "col"
    own, other = (pi.col_points, pi.row_points) if col else (pi.row_points, pi.col_points)
    lines = tuple(zip(*pi.weights)) if col else pi.weights
    keep = [j for j, y in enumerate(own) if y in points]
    # lam sums the kept cells row by row, as the plan holds them, on either
    # side: summed down the columns, a float lam could change in its last bits
    if col:
        cells = (row[k] for row in pi.weights for k in keep)
    else:
        cells = (w for j in keep for w in lines[j])
    lam = plain_sum(cells)
    if lam == 0:
        raise DomainError("restriction has zero mass")
    scaled = [[w / lam for w in lines[j]] for j in keep]
    other_keep = [k for k in range(len(other)) if any(r[k] != 0 for r in scaled)]
    rows, cols = [own[j] for j in keep], [other[k] for k in other_keep]
    weights = [[r[k] for k in other_keep] for r in scaled]
    if col:
        rows, cols, weights = cols, rows, zip(*weights)
    return lam, Coupling(pi.space, rows, cols, weights)


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


def result_to_json(result):
    return json.dumps(result_record(result), indent=2)
