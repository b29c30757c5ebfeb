"""The simplex kernel against the tuple-and-dict kernel it replaced, bit for bit.

``_reference_simplex`` is that kernel: flows in a dict keyed by (i, j) cells,
the cycle gathered as lists of cells, the leaving cell picked after the walk,
and every potential below the re-hung node reset from an adjacency walk. Its
pricing and leaving rules are the kernel's, so the two must pivot alike: the
same flows in the same dict order, the same pivot count, potentials of the
same types and bits, the same tree, and the same stall. Both start from the
northwest corner, or both from the least-cost tree that float solves start
from.

The certificate's refusals are checked here too, on a solved kernel problem
with one cost perturbed.
"""

import math
from fractions import Fraction

import pytest

from otlab import (
    DiscreteMeasure,
    Euclidean,
    FinitePoint,
    Interval,
    Product,
    SolverStallError,
    make_rng,
    random_finite_space,
    random_measure,
)
from otlab.campaign import five_point_tree_space
from otlab.solver import (
    _certify,
    _flow_cost,
    _joint_units,
    _least_cost_tree,
    _northwest_corner,
    _simplex_from,
    _transport_simplex,
)

from test_solver import tied_pair


def _reference_hang(top, adj, parent, depth, u, v, cost, m):
    stack = [top]
    while stack:
        node = stack.pop()
        up = parent[node]
        below = depth[node] + 1
        for nb in adj[node]:
            if nb == up:
                continue
            parent[nb] = node
            depth[nb] = below
            if nb < m:
                u[nb] = cost[nb][node - m] - v[node - m]
            else:
                v[nb - m] = cost[node][nb - m] - u[node]
            stack.append(nb)


def _reference_simplex(a, b, cost, m, n, scale, budget, start=None):
    flows = _northwest_corner(a, b, m, n) if start is None else start
    basic = [[False] * n for _ in range(m)]
    adj = [[] for _ in range(m + n)]
    for i, j in flows:
        basic[i][j] = True
        adj[i].append(m + j)
        adj[m + j].append(i)
    parent = [-1] * (m + n)
    depth = [0] * (m + n)
    u = [0] * m
    v = [0] * n
    _reference_hang(0, adj, parent, depth, u, v, cost, m)
    threshold = -1e-12 if scale is None else 0
    cells = m * n
    block = max(math.isqrt(cells), 10)
    i = j = 0
    pivots = 0
    while True:
        entering = None
        best = threshold
        left = block
        scanned = 0
        while scanned < cells:
            stop = min(n, j + left, j + cells - scanned)
            for k in range(j, stop):
                d = cost[i][k] - u[i] - v[k]
                if d < best and not basic[i][k]:
                    best = d
                    entering = (i, k)
            scanned += stop - j
            left -= stop - j
            j = stop
            if j == n:
                j = 0
                i = i + 1 if i < m - 1 else 0
            if left == 0:
                if entering is not None:
                    break
                left = block
        if entering is None:
            return flows, pivots, u, v, adj
        if pivots >= budget:
            current = 0
            for (r, c), f in flows.items():
                current = current + f * cost[r][c]
            raise SolverStallError(
                "stall",
                pivots=pivots,
                current_cost=current if scale is None else Fraction(current, scale),
            )
        ei, ej = entering
        minus_x = []
        minus_y = []
        plus = [entering]
        x, y = ei, m + ej
        while x != y:
            if depth[x] >= depth[y]:
                up = parent[x]
                if x < m:
                    minus_x.append(((x, up - m), x))
                else:
                    plus.append((up, x - m))
                x = up
            else:
                up = parent[y]
                if y < m:
                    plus.append((y, up - m))
                else:
                    minus_y.append(((up, y - m), y))
                y = up
        theta = None
        for cell, child in minus_y[::-1] + minus_x:
            f = flows[cell]
            if theta is None or f < theta:
                theta = f
                leaving = cell
                cut = child
        flows[entering] = 0 * theta
        for cell in plus:
            flows[cell] = flows[cell] + theta
        for cell, _child in minus_x + minus_y:
            flows[cell] = flows[cell] - theta
        del flows[leaving]
        basic[leaving[0]][leaving[1]] = False
        basic[ei][ej] = True
        up = parent[cut]
        adj[cut].remove(up)
        adj[up].remove(cut)
        adj[ei].append(m + ej)
        adj[m + ej].append(ei)
        if cut < m:
            top, hook = ei, m + ej
            u[ei] = cost[ei][ej] - v[ej]
        else:
            top, hook = m + ej, ei
            v[ej] = cost[ei][ej] - u[ei]
        parent[top] = hook
        depth[top] = depth[hook] + 1
        _reference_hang(top, adj, parent, depth, u, v, cost, m)
        pivots += 1


def _bits(x):
    return type(x).__name__, x.hex() if isinstance(x, float) else repr(x)


def _outcome(kernel, args):
    try:
        flows, pivots, u, v, adj = kernel(*args)
    except SolverStallError as stall:
        return "stall", stall.pivots, _bits(stall.current_cost)
    edges = sorted({(min(x, y), max(x, y)) for x, near in enumerate(adj) for y in near})
    assert len(edges) == len(flows) == len(u) + len(v) - 1
    return (
        [(cell, _bits(f)) for cell, f in flows.items()],
        pivots,
        [_bits(x) for x in u],
        [_bits(x) for x in v],
        edges,
    )


def _kernel_args(mu, nu, p, exact):
    """The kernel's arguments as ``solve_wasserstein`` makes them, in integer units or floats."""
    space, rows, cols = mu.space, mu.support, nu.support
    m, n = len(rows), len(cols)
    if exact:
        cost, Lc = space._unit_costs(rows, cols, p)
        a, b, L = _joint_units(mu._mass_units, nu._mass_units)
        return a, b, cost, m, n, L * Lc, 10 * m * n
    cost = [[float(c) for c in row] for row in space.cost_matrix(rows, cols, p)]
    a = [float(x) for x in mu.masses]
    b = [float(x) for x in nu.masses]
    return a, b, cost, m, n, None, 10 * m * n


def _reference_from_least_cost(a, b, cost, m, n, scale, budget):
    return _reference_simplex(a, b, cost, m, n, scale, budget, start=_least_cost_tree(a, b, cost, m, n))


def _kernel_from_least_cost(a, b, cost, m, n, scale, budget):
    return _simplex_from(_least_cost_tree(a, b, cost, m, n), cost, m, n, scale, budget)


def _assert_pivots_alike(args, least_cost=False):
    """Same outcome as the reference, also when stopped after 0, 1 and pivots - 1 pivots.

    Both start from the northwest corner, or with ``least_cost`` from the
    least-cost tree.
    """
    reference, kernel = (
        (_reference_from_least_cost, _kernel_from_least_cost)
        if least_cost
        else (_reference_simplex, _transport_simplex)
    )
    want = _outcome(reference, args)
    assert _outcome(kernel, args) == want
    pivots = want[1]
    for budget in sorted({0, 1, pivots - 1}):
        if 0 <= budget < pivots:
            cut_short = args[:-1] + (budget,)
            stall = _outcome(reference, cut_short)
            assert stall[:2] == ("stall", budget)
            assert _outcome(kernel, cut_short) == stall
    return pivots


_SHAPES = [(1, 1), (1, 7), (7, 1), (2, 9), (8, 3), (12, 12), (19, 13)]
_SEEDED = {
    # name: (space, p, exact)
    "plane-float": (Product(0.5, 2, Euclidean(2)), 2, False),
    "plane-exact": (Product(Fraction(1, 2), 2, Euclidean(2)), 2, True),
    "E2-float-p1": (Euclidean(2), 1, False),
    "city-block-exact": (Product(1, 1, Interval(1)), 1, True),
    "E3-float-p1.5": (Euclidean(3), 1.5, False),
    "finite-exact": (random_finite_space(make_rng(139), 40, exact=True), 1, True),
}


@pytest.mark.parametrize("name", sorted(_SEEDED))
def test_kernel_pivots_like_the_reference_on_seeded_pairs(name):
    space, p, exact = _SEEDED[name]
    rng = make_rng((131, sorted(_SEEDED).index(name)))
    total = 0
    for m, n in _SHAPES:
        for _ in range(3):
            mu = random_measure(rng, space, m, exact=exact)
            nu = random_measure(rng, space, n, exact=exact)
            total += _assert_pivots_alike(_kernel_args(mu, nu, p, exact))
    assert total > 0


@pytest.mark.parametrize("kind", ("all-ones", "interval-grid", "city-block-grid"))
@pytest.mark.parametrize("exact", (True, False))
def test_kernel_pivots_like_the_reference_through_ties(kind, exact):
    for k in (2, 5, 8, 13, 21):
        mu, nu = tied_pair(kind, k)
        _assert_pivots_alike(_kernel_args(mu, nu, 1, exact))


def _tree_profile(rng, space):
    """A criterion-12 mass profile: multiples of 1/8 on one to four of the five tree points."""
    size = int(rng.integers(1, 5))
    points = sorted(int(k) for k in rng.choice(5, size=size, replace=False))
    cuts = sorted(int(c) for c in rng.choice(range(1, 8), size=size - 1, replace=False))
    units = [hi - lo for lo, hi in zip([0] + cuts, cuts + [8])]
    return DiscreteMeasure(space, tuple((FinitePoint(k), Fraction(x, 8)) for k, x in zip(points, units)))


def test_kernel_pivots_like_the_reference_at_the_benchmark_sizes():
    # the shapes the benchmark times: 40 x 40 float pairs on the plane at
    # p = 2 and window 10, 25 x 25 exact pairs on the city-block square at
    # p = 1, criterion-12 profile pairs on the five-point tree, and the
    # 12-atom float pairs of the scale slice, where the float reduced cost
    # of a tree cell can fall below the entering threshold
    rng = make_rng(151)
    plane = Product(Fraction(1, 2), 2, Euclidean(2))
    city = Product(1, 1, Interval(1))
    pivots = []
    for _ in range(2):
        mu, nu = (random_measure(rng, plane, 40, window=10) for _ in range(2))
        pivots.append(_assert_pivots_alike(_kernel_args(mu, nu, 2, False)))
        mu, nu = (random_measure(rng, city, 25, exact=True) for _ in range(2))
        pivots.append(_assert_pivots_alike(_kernel_args(mu, nu, 1, True)))
    tree = five_point_tree_space()
    for _ in range(40):
        mu, nu = _tree_profile(rng, tree), _tree_profile(rng, tree)
        pivots.append(_assert_pivots_alike(_kernel_args(mu, nu, 1, True)))
    for space, window in ((Euclidean(2), 1e-7), (Product(0.5, 2, Euclidean(2)), 1e5)):
        for _ in range(3):
            mu, nu = (random_measure(rng, space, 12, window=window) for _ in range(2))
            pivots.append(_assert_pivots_alike(_kernel_args(mu, nu, 2, False)))
    assert min(pivots[:4]) > 40 and sum(pivots[4:44]) > 0


def test_kernel_pivots_like_the_reference_from_the_least_cost_tree():
    # the float solves' start: 40 x 40 plane pairs at window 10, as the
    # benchmark times them, and 12-atom pairs far from unit scale
    rng = make_rng(173)
    plane = Product(0.5, 2, Euclidean(2))
    pivots = []
    for _ in range(2):
        mu, nu = (random_measure(rng, plane, 40, window=10) for _ in range(2))
        pivots.append(_assert_pivots_alike(_kernel_args(mu, nu, 2, False), least_cost=True))
    for space, window in ((Euclidean(2), 1e-7), (plane, 1e5)):
        for _ in range(3):
            mu, nu = (random_measure(rng, space, 12, window=window) for _ in range(2))
            pivots.append(_assert_pivots_alike(_kernel_args(mu, nu, 2, False), least_cost=True))
    assert min(pivots[:2]) > 40


@pytest.mark.parametrize("name", [name for name in sorted(_SEEDED) if not _SEEDED[name][2]])
def test_kernel_pivots_like_the_reference_from_the_least_cost_tree_on_seeded_pairs(name):
    space, p, _ = _SEEDED[name]
    rng = make_rng((179, sorted(_SEEDED).index(name)))
    total = 0
    for m, n in _SHAPES:
        for _ in range(3):
            mu = random_measure(rng, space, m)
            nu = random_measure(rng, space, n)
            total += _assert_pivots_alike(_kernel_args(mu, nu, p, False), least_cost=True)
    assert total > 0


@pytest.mark.parametrize("kind", ("all-ones", "interval-grid", "city-block-grid"))
def test_kernel_pivots_like_the_reference_from_the_least_cost_tree_through_ties(kind):
    # equal float masses: placements spend a row and a column at once, so
    # the start joins its trees with zero-flow cells
    for k in (2, 5, 8, 13, 21):
        mu, nu = tied_pair(kind, k)
        _assert_pivots_alike(_kernel_args(mu, nu, 1, False), least_cost=True)


def test_kernel_pivots_like_the_reference_where_the_last_block_is_cut_short():
    # in these seeded pairs a block with no entering cell ends fewer than a
    # block's cells before the scan is done; the next block must stop where
    # the scan began, or every later scan starts from another cell
    for k in (1127, 2080, 2449, 2934):
        rng = make_rng((167, k))
        space, exact = (Product(1, 1, Interval(1)), True) if k % 2 else (Euclidean(2), False)
        m, n = (int(x) for x in rng.integers(2, 14, size=2))
        mu = random_measure(rng, space, m, exact=exact)
        nu = random_measure(rng, space, n, exact=exact)
        _assert_pivots_alike(_kernel_args(mu, nu, 1, exact))


def _solved_certificate(exact):
    """``_certify``'s arguments for a solved 3 x 3 interval problem, and the cost to perturb.

    The allowance is the solve's own: 0 in integer units, 1e-9 in floats.
    """
    rng = make_rng(61)
    space = Interval(1)
    mu = random_measure(rng, space, 3, exact=exact)
    nu = random_measure(rng, space, 3, exact=exact)
    args = _kernel_args(mu, nu, 1, exact)
    a, b, cost, m, n = args[:5]
    flows, _, u, v, _ = _transport_simplex(*args)
    cost = [list(row) for row in cost]
    tol = 0 if exact else 1e-9
    return (a, b, cost, flows, u, v, m, n, _flow_cost(flows, cost), tol), cost


@pytest.mark.parametrize("exact", (True, False), ids=("exact", "float"))
def test_certificate_refuses_a_tree_cell_off_its_potentials(exact):
    # raising one positive-flow tree cell's cost leaves the potentials
    # feasible and the gap closed, but breaks complementary slackness there
    args, cost = _solved_certificate(exact)
    assert _certify(*args)
    flows = args[3]
    i, j = next(cell for cell, f in flows.items() if f > 0)
    cost[i][j] = cost[i][j] + (1 if exact else 1e-6)
    assert not _certify(*args)


@pytest.mark.parametrize("exact", (True, False), ids=("exact", "float"))
def test_certificate_refuses_an_off_tree_cell_below_its_potentials(exact):
    # an off-tree cell carries no flow, so lowering its cost below u + v
    # breaks dual feasibility alone
    args, cost = _solved_certificate(exact)
    assert _certify(*args)
    flows, u, v, m, n = args[3:8]
    i, j = next((i, j) for i in range(m) for j in range(n) if (i, j) not in flows)
    cost[i][j] = u[i] + v[j] - (1 if exact else 1e-6)
    assert not _certify(*args)
