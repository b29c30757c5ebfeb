"""Exact solves with mixed cost denominators against exhaustive enumeration.

The solver builds its plans without the mass checks of ``Coupling``, so every
plan here is also checked against the measures' marginals.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from otlab import (
    DiscreteMeasure,
    Interval,
    IntervalPoint,
    Product,
    ProductPoint,
    solve_wasserstein,
    validate_coupling,
)

from oracles import exhaustive_min_cost

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
