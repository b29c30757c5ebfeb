"""Candidate-list pricing against a plain-loop reference of its rule, bit for bit.

A float solve of at least ``_CANDIDATE_MIN_CELLS`` cells whose costs are all
floats hands ``_simplex_from`` the float64 array of its costs, and the kernel
then prices from a candidate list: each pivot re-prices the listed cells and
keeps those still below the entering threshold and off the tree; the most
negative enters, the first on a tie. An empty list is refilled from bands of
rows priced in numpy, resuming where the last band stopped and wrapping round
the rows; the first band with a cell below the threshold gives the list its
``_CANDIDATES`` most negative cells off the tree, in a stable order. A full
wrap with none means the tree is optimal.

``_reference_candidate_simplex`` is that rule in loops, with the pivots of
``test_simplex_kernel``'s reference: flows in a dict keyed by cells, the
cycle gathered as lists of cells, every potential below the re-hung node
reset from an adjacency walk. Kernel and reference must give the same flows
in the same dict order, pivots, potential bits and tree, and the same stall.
"""

from fractions import Fraction

import numpy as np
import pytest

from otlab import (
    DiscreteMeasure,
    DomainError,
    Euclidean,
    Interval,
    Product,
    SolverStallError,
    make_rng,
    random_finite_space,
    random_measure,
    solve_wasserstein,
)
from otlab.solver import (
    _BAND_CELLS,
    _CANDIDATES,
    _CANDIDATE_MIN_CELLS,
    _ENTERING_EPS,
    _candidate_search,
    _flow_cost,
    _least_cost_tree,
    _simplex_from,
)

from oracles import linprog_transport_cost
from test_simplex_kernel import (
    _bits,
    _kernel_args,
    _outcome,
    _reference_from_least_cost,
    _reference_hang,
    _reference_simplex,
)

PLANE = Product(0.5, 2, Euclidean(2))


def _reference_prices(cost, u, v, basic, m, n, state):
    """The entering cell of the candidate rule, in loops, or None when the tree is optimal.

    ``state`` holds the list and the first row of the next band between calls.
    """
    threshold = -_ENTERING_EPS
    entering = None
    best = threshold
    kept = []
    for i, k in state["listed"]:
        d = cost[i][k] - u[i] - v[k]
        if d < threshold and not basic[i][k]:
            kept.append((i, k))
            if d < best:
                best = d
                entering = (i, k)
    state["listed"] = kept
    if kept:
        return entering
    rows = max(1, _BAND_CELLS // n)
    swept = 0
    while swept < m:
        top = state["top"]
        stop = min(top + rows, m)
        band = []  # row-major from the band's first row, so the sort below is stable
        for i in range(top, stop):
            for k in range(n):
                d = cost[i][k] - u[i] - v[k]
                if d < threshold and not basic[i][k]:
                    band.append((d, (i, k)))
        band.sort(key=lambda item: item[0])
        state["listed"] = [cell for _, cell in band[:_CANDIDATES]]
        swept += stop - top
        state["top"] = stop if stop < m else 0
        if band:
            return state["listed"][0]
    return None


def _reference_candidate_simplex(a, b, cost, m, n, scale, budget, start):
    assert scale is None
    flows = start
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
    state = {"listed": [], "top": 0}
    pivots = 0
    while True:
        entering = _reference_prices(cost, u, v, basic, m, n, state)
        if entering is None:
            return flows, pivots, u, v, adj
        if pivots >= budget:
            current = 0
            for (r, c), f in flows.items():
                current = current + f * cost[r][c]
            raise SolverStallError("stall", pivots=pivots, current_cost=current)
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


def _reference_from_start(a, b, cost, m, n, scale, budget):
    return _reference_candidate_simplex(a, b, cost, m, n, scale, budget, _least_cost_tree(a, b, cost, m, n))


def _kernel_from_start(a, b, cost, m, n, scale, budget):
    return _simplex_from(_least_cost_tree(a, b, cost, m, n), cost, m, n, scale, budget, np.array(cost))


def _assert_prices_alike(args):
    """Same outcome as the reference, also when stopped after 0, 1 and pivots - 1 pivots."""
    want = _outcome(_reference_from_start, args)
    assert _outcome(_kernel_from_start, args) == want
    pivots = want[1]
    for budget in sorted({0, 1, pivots - 1}):
        if 0 <= budget < pivots:
            cut_short = args[:-1] + (budget,)
            stall = _outcome(_reference_from_start, cut_short)
            assert stall[:2] == ("stall", budget)
            assert _outcome(_kernel_from_start, cut_short) == stall
    return pivots


SPACES = {
    # name: (space, p, window)
    "plane": (PLANE, 2, 10),
    "E2": (Euclidean(2), 1, 1),
    "interval": (Interval(1), 2, 1),
    "finite": (random_finite_space(make_rng(283), 49), 1, 1),  # integer distances: many ties
}
# 576 to 6,400 cells; 80 x 80 pairs take several bands of rows, and the
# finite space has 49 points
SHAPES = ((24, 24), (30, 25), (40, 40), (17, 48), (80, 80))
CASES = [(name, m, n) for name in sorted(SPACES) for m, n in SHAPES if name != "finite" or max(m, n) <= 49]


@pytest.mark.parametrize("name, m, n", CASES)
def test_kernel_prices_like_the_reference_on_seeded_float_pairs(name, m, n):
    space, p, window = SPACES[name]
    rng = make_rng((281, m, n, sorted(SPACES).index(name)))
    mu, nu = random_measure(rng, space, m, window=window), random_measure(rng, space, n, window=window)
    assert _assert_prices_alike(_kernel_args(mu, nu, p, False)) > 0


def test_kernel_prices_like_the_reference_far_from_unit_scale():
    # far from unit scale the absolute entering threshold misjudges reduced
    # costs (see the README on float solves away from unit scale); kernel
    # and loops must still pivot alike
    rng = make_rng(293)
    for space, window in ((Euclidean(2), 1e-7), (PLANE, 1e5), (PLANE, 1e150)):
        mu, nu = (random_measure(rng, space, 30, window=window) for _ in range(2))
        _assert_prices_alike(_kernel_args(mu, nu, 2, False))


def test_the_list_skips_tree_cells_however_negative():
    # float noise can leave a tree cell's reduced cost below the threshold;
    # here the tree cells of row 0 are the most negative of the band, and
    # the list must still take the band's most negative cells off the tree.
    # Each cell that enters is then priced at 0, so the next one enters.
    m, n = 2, 60
    cost = [[-100.0] * n, [0.0] + [-float(k) for k in range(1, n)]]
    array = np.array(cost)
    u, v = [0.0, 0.0], [0.0] * n
    parent = [-1, m] + [0] * n  # row 1 hangs from column 0, every column from row 0
    basic = [[True] * n, [True] + [False] * (n - 1)]
    pricing = _candidate_search(array, cost, u, v, parent, m, n)
    state = {"listed": [], "top": 0}
    entered = []
    while True:
        want = _reference_prices(cost, u, v, basic, m, n, state)
        assert next(pricing, None) == want
        if want is None:
            break
        entered.append(want)
        cost[1][want[1]] = array[1, want[1]] = 0.0
    assert entered == [(1, k) for k in range(n - 1, 0, -1)]


def test_a_solve_prices_from_the_list_from_the_threshold_on():
    # solve_wasserstein pivots by the candidate rule from _CANDIDATE_MIN_CELLS
    # cells on, and by block search one row short of it; each pair tells the
    # two rules apart
    rng = make_rng(307)
    n = 24
    assert n * n == _CANDIDATE_MIN_CELLS
    for m, rule, other in (
        (n, _reference_from_start, _reference_from_least_cost),
        (n - 1, _reference_from_least_cost, _reference_from_start),
    ):
        mu, nu = random_measure(rng, PLANE, m), random_measure(rng, PLANE, n)
        args = _kernel_args(mu, nu, 2, False)
        want = _outcome(rule, args)
        assert want[1] != _outcome(other, args)[1]
        result = solve_wasserstein(mu, nu, p=2)
        assert result.pivots == want[1]
        assert [_bits(x) for x in result.dual_potentials[0]] == want[2]


def test_exact_solves_keep_block_search():
    rng = make_rng(311)
    space = Product(Fraction(1, 2), 2, Euclidean(2))
    mu, nu = random_measure(rng, space, 24, exact=True), random_measure(rng, space, 24, exact=True)
    want = _outcome(_reference_simplex, _kernel_args(mu, nu, 2, True))
    assert solve_wasserstein(mu, nu, p=2).pivots == want[1]


def test_float_masses_on_exact_costs_keep_block_search():
    # float masses on exact coordinates: the costs are Fractions, so the
    # solve has no float array to price and keeps block search
    rng = make_rng(313)
    space = Interval(1)
    mu, nu = random_measure(rng, space, 24, exact=True), random_measure(rng, space, 24, exact=True)
    mu, nu = (DiscreteMeasure(space, tuple((q, float(w)) for q, w in x.atoms)) for x in (mu, nu))
    cost = space.cost_matrix(mu.support, nu.support, 1)
    assert isinstance(cost[0][0], Fraction)
    a, b = list(mu.masses), list(nu.masses)
    args = (a, b, cost, 24, 24, None, 10 * 24 * 24)
    result = solve_wasserstein(mu, nu, p=1)
    assert result.pivots == _outcome(_reference_from_least_cost, args)[1]


def test_the_reference_reproduces_the_pinned_40_by_40_solve():
    # the figures test_broadcast_setup pins for this pair
    rng = make_rng(29)
    mu, nu = (random_measure(rng, PLANE, 40, window=10) for _ in range(2))
    args = _kernel_args(mu, nu, 2, False)
    flows, pivots, _, _, _ = _reference_from_start(*args)
    assert (pivots, _flow_cost(flows, args[2]).hex()) == (63, "0x1.18afb9f529b73p+3")


@pytest.mark.parametrize("n", (24, 40, 80))
def test_results_agree_with_highs(n):
    rng = make_rng((317, n))
    for space, p in ((PLANE, 2), (Euclidean(2), 1)):
        mu, nu = random_measure(rng, space, n), random_measure(rng, space, n)
        result = solve_wasserstein(mu, nu, p=p)
        want = linprog_transport_cost(mu.masses, nu.masses, space.cost_matrix(mu.support, nu.support, p))
        assert result.certified
        assert abs(result.powered_cost - want) <= 1e-9 * want


@pytest.mark.parametrize(
    "settings, message",
    [
        ({"tol": float("inf")}, "tol must be a finite number >= 0, got inf"),
        ({"tol": -1}, "tol must be a finite number >= 0, got -1"),
        ({"tol": float("nan")}, "tol must be a finite number >= 0, got nan"),
        ({"tol": "1e-9"}, "tol must be a finite number >= 0, got '1e-9'"),
        ({"tol": True}, "tol must be a finite number >= 0, got True"),
        ({"pivot_budget": -1}, "pivot_budget must be None or an integer >= 0, got -1"),
        ({"pivot_budget": 2.5}, "pivot_budget must be None or an integer >= 0, got 2.5"),
        ({"pivot_budget": True}, "pivot_budget must be None or an integer >= 0, got True"),
    ],
)
def test_solve_refuses_settings_that_mean_nothing(settings, message):
    rng = make_rng(331)
    mu, nu = random_measure(rng, PLANE, 3), random_measure(rng, PLANE, 3)
    with pytest.raises(DomainError) as info:
        solve_wasserstein(mu, nu, p=2, **settings)
    assert str(info.value) == message


def test_solve_takes_every_meaningful_setting():
    rng = make_rng(337)
    mu, nu = random_measure(rng, PLANE, 6), random_measure(rng, PLANE, 6)
    result = solve_wasserstein(mu, nu, p=2)
    for tol in (0, 0.0, 1e-9, Fraction(1, 10**9), np.float64(1e-9)):
        assert solve_wasserstein(mu, nu, p=2, tol=tol).powered_cost == result.powered_cost
    for budget in (None, result.pivots, np.int64(result.pivots), 10**9):
        assert solve_wasserstein(mu, nu, p=2, pivot_budget=budget).pivots == result.pivots
    if result.pivots:
        for budget in (0, np.int64(0)):
            with pytest.raises(SolverStallError):
                solve_wasserstein(mu, nu, p=2, pivot_budget=budget)
