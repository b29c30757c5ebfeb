"""Exact solves against closed forms that share no code with the package.

* Random rational trees of 64 and 256 points: W1 is the tree formula
  sum_e w_e * |mu(T_e) - nu(T_e)|, for the simplex and for the KR witness.
* The line, as ``Interval(alpha)`` with alpha * p an integer and as
  ``Euclidean(1)``: the powered cost is that of the monotone coupling.
  Supports sorted along the line make the northwest start that coupling
  itself, so these solves take no pivot; the same line as a 256-point
  ``Finite`` space in shuffled index order makes the simplex pivot.
"""

import random
from fractions import Fraction

import pytest

from otlab import (
    DiscreteMeasure,
    Euclidean,
    EuclideanPoint,
    Finite,
    FinitePoint,
    Interval,
    IntervalPoint,
    kr_dual,
    solve_wasserstein,
)

from oracles import monotone_line_cost, tree_w1


def exact_masses(rng, k):
    """k positive Fractions summing to 1."""
    weights = [rng.randint(1, 50) for _ in range(k)]
    return [Fraction(w, sum(weights)) for w in weights]


def random_tree(n, seed):
    """(parent, weight, matrix): vertex v > 0 hangs below a random earlier vertex
    by an edge of length a/b with b <= 4, and matrix holds the path sums."""
    rng = random.Random(seed)
    parent = [None] + [rng.randrange(v) for v in range(1, n)]
    weight = [0] + [Fraction(rng.randint(1, 8), rng.randint(1, 4)) for _ in range(1, n)]
    d = [[0] * n for _ in range(n)]
    for v in range(1, n):
        # every earlier vertex lies outside the subtree of v
        for u in range(v):
            d[v][u] = d[u][v] = d[parent[v]][u] + weight[v]
    return parent, weight, tuple(tuple(row) for row in d)


@pytest.fixture(scope="module", params=[64, 256], ids=lambda n: f"n{n}")
def tree(request):
    parent, weight, matrix = random_tree(request.param, seed=request.param)
    return parent, weight, Finite(matrix)


@pytest.mark.parametrize("seed", range(3))
def test_tree_w1_matches_the_tree_formula(tree, seed):
    parent, weight, space = tree
    rng = random.Random(seed)
    sides = []
    for _ in range(2):
        support = rng.sample(range(space.size), rng.randint(20, min(120, space.size)))
        sides.append(dict(zip(support, exact_masses(rng, len(support)))))
    mu, nu = (
        DiscreteMeasure(space, tuple((FinitePoint(v), m) for v, m in side.items()))
        for side in sides
    )
    expected = tree_w1(parent, weight, *sides)
    result = solve_wasserstein(mu, nu, p=1)
    assert result.powered_cost == expected
    assert result.certified
    assert result.arithmetic == "exact"
    assert kr_dual(mu, nu).value == expected


def line_point(space, x):
    return IntervalPoint(x) if isinstance(space, Interval) else EuclideanPoint((x,))


LINES = [
    (Interval(Fraction(1, 2)), 2),
    (Interval(1), 1),
    (Interval(1), 3),
    (Euclidean(1), 1),
    (Euclidean(1), 2),
    (Euclidean(1), 3),
]


@pytest.mark.parametrize("space, p", LINES, ids=lambda v: str(v))
@pytest.mark.parametrize("size", [1, 9, 40, 150])
def test_line_cost_matches_the_monotone_coupling(space, p, size):
    rng = random.Random(size * 10 + p)
    if isinstance(space, Interval):
        # d**p = |t - t'| ** (alpha * p) on [0, 1]
        exponent, grid = space.alpha * p, [Fraction(k, 512) for k in range(513)]
    else:
        exponent, grid = p, [Fraction(k, 16) for k in range(-160, 161)]
    sides = [list(zip(rng.sample(grid, size), exact_masses(rng, size))) for _ in range(2)]
    mu, nu = (
        DiscreteMeasure(space, tuple((line_point(space, x), m) for x, m in side)) for side in sides
    )
    result = solve_wasserstein(mu, nu, p=p)
    assert result.arithmetic == "exact"
    assert result.certified
    assert result.powered_cost == monotone_line_cost(*sides, exponent)


@pytest.fixture(scope="module")
def shuffled_line():
    """256 integer positions on the line, and the exact ``Finite`` space of
    their distances, whose index order is a shuffle of the line order."""
    rng = random.Random(256)
    xs = sorted(rng.sample(range(-2000, 2000), 256))
    rng.shuffle(xs)
    return xs, Finite(tuple(tuple(abs(x - y) for y in xs) for x in xs))


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("size", [40, 120])
def test_shuffled_line_cost_matches_the_monotone_coupling_after_pivots(shuffled_line, p, size):
    xs, space = shuffled_line
    rng = random.Random(size * 10 + p)
    sides = [dict(zip(rng.sample(range(len(xs)), size), exact_masses(rng, size))) for _ in range(2)]
    mu, nu = (
        DiscreteMeasure(space, tuple((FinitePoint(i), m) for i, m in side.items()))
        for side in sides
    )
    result = solve_wasserstein(mu, nu, p=p)
    assert result.arithmetic == "exact"
    assert result.certified
    assert result.pivots > 0
    on_the_line = [[(xs[i], m) for i, m in side.items()] for side in sides]
    assert result.powered_cost == monotone_line_cost(*on_the_line, p)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_shuffled_line_cost_matches_the_monotone_coupling_on_all_256_points(shuffled_line, p):
    """Both measures charge every point of the line, so m = n = 256."""
    xs, space = shuffled_line
    rng = random.Random(2560 + p)
    sides = [dict(zip(range(len(xs)), exact_masses(rng, len(xs)))) for _ in range(2)]
    mu, nu = (
        DiscreteMeasure(space, tuple((FinitePoint(i), m) for i, m in side.items()))
        for side in sides
    )
    result = solve_wasserstein(mu, nu, p=p)
    assert len(mu.atoms) == len(nu.atoms) == 256
    assert result.arithmetic == "exact"
    assert result.certified
    assert result.pivots > 0
    on_the_line = [[(xs[i], m) for i, m in side.items()] for side in sides]
    assert result.powered_cost == monotone_line_cost(*on_the_line, p)
