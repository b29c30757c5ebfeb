"""The least-cost start of float solves is a strongly feasible spanning tree, and so is the final tree.

Rooted at row 0, every basic cell whose column end is the child must carry
positive flow (Cunningham 1976): then no sequence of degenerate pivots can
cycle. ``_least_cost_tree`` keeps that on seeded float pairs, on equal float
masses (where placements spend a row and a column at once and the start
joins its trees with zero-flow cells), and where float dust leaves a line
that no placement reached. The pivot loop keeps it to the final tree.
"""

import pytest

from otlab import (
    Euclidean,
    EuclideanPoint,
    Interval,
    Product,
    make_rng,
    random_finite_space,
    random_measure,
    solve_wasserstein,
)
from otlab.solver import _least_cost_tree, _simplex_from

from test_northwest_start import CASES, dust_pair
from test_solver import tied_pair


def assert_strongly_feasible(flows, adj, m, n):
    """``flows`` span the m + n nodes and, hung from row 0, every column child's cell has flow > 0."""
    assert len(flows) == m + n - 1 and all(f >= 0 for f in flows.values())
    seen = {0}
    stack = [0]
    while stack:
        node = stack.pop()
        for nb in adj[node]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
                if nb >= m:
                    assert flows[(node, nb - m)] > 0, (node, nb)
    assert len(seen) == m + n


def tree_of(flows, m, n):
    adj = [[] for _ in range(m + n)]
    for i, j in flows:
        adj[i].append(m + j)
        adj[m + j].append(i)
    return adj


def check(a, b, cost):
    """Check the start and the final tree of one problem; return the start's zero cells and the pivots."""
    m, n = len(a), len(b)
    start = _least_cost_tree(a, b, cost, m, n)
    assert_strongly_feasible(start, tree_of(start, m, n), m, n)
    zeros = sum(f == 0 for f in start.values())
    flows, pivots, _u, _v, adj = _simplex_from(dict(start), cost, m, n, None, 10 * m * n)
    assert_strongly_feasible(flows, adj, m, n)
    return zeros, pivots


def problem(mu, nu, p):
    cost = mu.space.cost_matrix(mu.support, nu.support, p)
    return [float(x) for x in mu.masses], [float(x) for x in nu.masses], cost


@pytest.mark.parametrize(
    "space, p",
    [
        (Product(0.5, 2, Euclidean(2)), 2),
        (Euclidean(2), 1),
        (Interval(1), 2),
        (random_finite_space(make_rng(191), 30), 1),
    ],
    ids=("plane", "E2", "interval", "finite"),
)
def test_seeded_float_pairs(space, p):
    rng = make_rng(193)
    pivots = 0
    for m, n in ((1, 1), (1, 6), (6, 1), (3, 8), (9, 4), (12, 12), (25, 20)):
        for _ in range(4):
            mu, nu = random_measure(rng, space, m), random_measure(rng, space, n)
            made = check(*problem(mu, nu, p))[1]
            # the solve takes this start: the same pivots, certified
            result = solve_wasserstein(mu, nu, p=p)
            assert (result.certified, result.pivots) == (True, made)
            pivots += made
    assert pivots > 0


@pytest.mark.parametrize("kind", ("all-ones", "interval-grid", "city-block-grid"))
def test_equal_float_masses_join_trees_with_zero_flow_cells(kind):
    zeros = 0
    for k in range(2, 25):
        mu, nu = tied_pair(kind, k)
        a, b, cost = problem(mu, nu, 1)
        zeros += check(a, b, cost)[0]
    assert zeros > 0


@pytest.mark.parametrize("x, d, rows, cols", CASES)
def test_dust_pairs_in_both_orientations(x, d, rows, cols):
    mu, nu = dust_pair(
        x, d, [EuclideanPoint((t,)) for t in rows], [EuclideanPoint((t,)) for t in cols]
    )
    for p in (1, 2):
        for source, target in ((mu, nu), (nu, mu)):
            check(*problem(source, target, p))


def test_a_column_no_placement_reached_ships_its_dust():
    # rows 0 and 1 are spent on columns 0 and 1 before the far column 2 comes
    # up; it hangs below its cheapest row with the 1e-12 it holds, and row 1's
    # tree hangs from column 0 by a zero-flow cell
    a, b = [0.5, 0.5 - 2e-12], [0.5, 0.5 - 1e-12, 1e-12]
    cost = [[0.0, 1.0, 100.0], [1.0, 0.0, 99.0]]
    start = _least_cost_tree(a, b, cost, 2, 3)
    assert start == {(0, 0): 0.5, (1, 1): 0.5 - 2e-12, (1, 2): 1e-12, (1, 0): 0.0}
    check(a, b, cost)


def test_row_zero_no_placement_reached_ships_its_dust():
    # every column is spent before row 0's far atom comes up: row 0 ships
    # its 1e-12 to its cheapest column, and row 2's tree hangs from it
    a, b = [1e-12, 0.5, 0.5], [0.5, 0.5]
    cost = [[100.0, 101.0], [0.0, 1.0], [1.0, 0.0]]
    start = _least_cost_tree(a, b, cost, 3, 2)
    assert start == {(1, 0): 0.5, (2, 1): 0.5, (0, 0): 1e-12, (2, 0): 0.0}
    check(a, b, cost)

