"""Exact solves with mixed cost denominators against exhaustive enumeration,
and float solves at unit scale against HiGHS.

The solver builds its plans without the mass checks of ``Coupling``, so every
plan here is also checked against the measures' marginals.
"""

import math
from fractions import Fraction

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from otlab import (
    DiscreteMeasure,
    Euclidean,
    EuclideanPoint,
    Finite,
    FinitePoint,
    Interval,
    IntervalPoint,
    Product,
    ProductPoint,
    solve_wasserstein,
    validate_coupling,
)

from oracles import exhaustive_min_cost, linprog_transport_cost

EIGHTHS = 8
COORD = st.fractions(min_value=0, max_value=1, max_denominator=7)


@st.composite
def eighth_masses(draw):
    """1 to 4 positive masses on the 1/8 grid, summing to 1."""
    cuts = sorted(draw(st.sets(st.integers(1, EIGHTHS - 1), max_size=3)))
    bounds = [0] + cuts + [EIGHTHS]
    return [Fraction(hi - lo, EIGHTHS) for lo, hi in zip(bounds, bounds[1:])]


@st.composite
def measures(draw, space, point):
    masses = draw(eighth_masses())
    points = draw(st.lists(point, min_size=len(masses), max_size=len(masses), unique=True))
    return DiscreteMeasure(space, tuple(zip(points, masses)))


def assert_matches_enumeration(mu, nu, p):
    result = solve_wasserstein(mu, nu, p=p)
    costs = [[mu.space.powered_distance(y, z, p) for z in nu.support] for y in mu.support]
    supply = tuple(int(m * EIGHTHS) for m in mu.masses)
    demand = tuple(int(m * EIGHTHS) for m in nu.masses)
    assert result.powered_cost == Fraction(exhaustive_min_cost(supply, demand, costs), EIGHTHS)
    assert result.certified
    validate_coupling(result.coupling, mu, nu)


INTERVAL = Interval(1)
INTERVAL_POINT = st.builds(IntervalPoint, COORD)
CITY_BLOCK = Product(1, 1, Interval(1))
CITY_BLOCK_POINT = st.builds(ProductPoint, COORD, INTERVAL_POINT)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(measures(INTERVAL, INTERVAL_POINT), measures(INTERVAL, INTERVAL_POINT))
def test_interval_squared_cost_matches_enumeration(mu, nu):
    assert_matches_enumeration(mu, nu, 2)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(measures(CITY_BLOCK, CITY_BLOCK_POINT), measures(CITY_BLOCK, CITY_BLOCK_POINT))
def test_city_block_cost_matches_enumeration(mu, nu):
    assert_matches_enumeration(mu, nu, 1)


def assert_exact_matches_enumeration(mu, nu, p):
    """The solve ran on exact integer-unit costs, and matches the enumeration."""
    assert solve_wasserstein(mu, nu, p=p).arithmetic == "exact"
    assert_matches_enumeration(mu, nu, p)


PLANE = Euclidean(2)
PLANE_FRACTION_POINT = st.builds(EuclideanPoint, st.tuples(COORD, COORD))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(measures(PLANE, PLANE_FRACTION_POINT), measures(PLANE, PLANE_FRACTION_POINT))
def test_plane_squared_cost_matches_enumeration(mu, nu):
    assert_exact_matches_enumeration(mu, nu, 2)


# shortest paths on a weighted tree: 0 - 1 - 2 - 3 with leaves 4 on 1 and 5 on 2
_EDGES = {(0, 1): Fraction(1, 3), (1, 2): Fraction(3, 4), (2, 3): Fraction(2, 5),
          (1, 4): Fraction(5, 6), (2, 5): Fraction(1, 7)}
_PATHS = {0: (), 1: ((0, 1),), 2: ((0, 1), (1, 2)), 3: ((0, 1), (1, 2), (2, 3)),
          4: ((0, 1), (1, 4)), 5: ((0, 1), (1, 2), (2, 5))}
FRACTION_TREE = Finite(
    tuple(
        tuple(sum((_EDGES[e] for e in set(_PATHS[i]) ^ set(_PATHS[j])), Fraction(0)) for j in range(6))
        for i in range(6)
    )
)
TREE_POINT = st.builds(FinitePoint, st.integers(0, 5))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    measures(FRACTION_TREE, TREE_POINT),
    measures(FRACTION_TREE, TREE_POINT),
    st.sampled_from((1, 2)),
)
def test_fraction_tree_cost_matches_enumeration(mu, nu, p):
    assert_exact_matches_enumeration(mu, nu, p)


# p = 2 over q = 1: the square of an exact city-block distance
CITY_LINE = Product(1, 1, Euclidean(1))
CITY_LINE_POINT = st.builds(
    ProductPoint, COORD, st.builds(EuclideanPoint, st.tuples(COORD.map(lambda x: 2 * x - 1)))
)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(measures(CITY_LINE, CITY_LINE_POINT), measures(CITY_LINE, CITY_LINE_POINT))
def test_city_line_squared_cost_matches_enumeration(mu, nu):
    assert_exact_matches_enumeration(mu, nu, 2)


UNIT = st.floats(min_value=0.0, max_value=1.0, allow_subnormal=False)


@st.composite
def float_measures(draw, space, point):
    """1 to 6 distinct points with float masses normalized to sum to 1."""
    raw = draw(st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=1, max_size=6))
    total = sum(raw)
    points = draw(st.lists(point, min_size=len(raw), max_size=len(raw), unique=True))
    return DiscreteMeasure(space, tuple(zip(points, [w / total for w in raw])))


def assert_matches_highs(mu, nu, p, cost):
    """``cost(y, z)`` is the test's own d**p, written out from the metric's formula."""
    result = solve_wasserstein(mu, nu, p=p)
    costs = [[cost(y, z) for z in nu.support] for y in mu.support]
    reference = linprog_transport_cost(mu.masses, nu.masses, costs)
    assert result.arithmetic == "float"
    assert result.powered_cost == pytest.approx(reference, abs=1e-9)
    assert result.certified
    validate_coupling(result.coupling, mu, nu)


SNOWFLAKE_PLANE = Product(0.5, 2, Euclidean(2))
PLANE_POINT = st.builds(
    ProductPoint, UNIT, st.builds(EuclideanPoint, st.tuples(UNIT, UNIT))
)
SPACE_3D = Euclidean(3)
SPACE_3D_POINT = st.builds(EuclideanPoint, st.tuples(UNIT, UNIT, UNIT))


def snowflake_plane_squared(y, z):
    # (|t - t'|^(1/2 * 2) + |x - x'|^2) at p = q = 2
    return abs(y.t - z.t) + math.dist(y.x.coords, z.x.coords) ** 2


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    float_measures(SNOWFLAKE_PLANE, PLANE_POINT),
    float_measures(SNOWFLAKE_PLANE, PLANE_POINT),
)
def test_float_snowflake_plane_matches_highs(mu, nu):
    assert_matches_highs(mu, nu, 2, snowflake_plane_squared)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(float_measures(SPACE_3D, SPACE_3D_POINT), float_measures(SPACE_3D, SPACE_3D_POINT))
def test_float_euclidean_3d_matches_highs(mu, nu):
    assert_matches_highs(mu, nu, 1, lambda y, z: math.dist(y.coords, z.coords))
