"""One rule at the edge of the float range.

A space method gives ``inf`` for a value beyond the float range and never
raises ``OverflowError``; the only error it raises there is the
``DomainError`` of a root of an exact value beyond the float range. Every
entry point refuses ``inf`` with one ``DomainError``: ``cost_matrix``,
``coupling_cost`` and ``metric.powered_distance`` the one for a cost, and
``triangle_defect``, ``metric_segment``, ``kr_dual(independent=True)`` and
the geodesic extension the one for a distance.
"""

import ast
import inspect
import itertools
import math
import re
import textwrap
from fractions import Fraction

import numpy as np
import pytest

import otlab.metric
from otlab import (
    DiscreteMeasure,
    DomainError,
    Euclidean,
    EuclideanPoint,
    Finite,
    FinitePoint,
    Interval,
    IntervalPoint,
    Product,
    ProductPoint,
    build_geodesic_extension,
    kr_dual,
)
from otlab.metric import distance, metric_segment, powered_distance, triangle_defect
from otlab.solver import Coupling, coupling_cost

COST_ERROR = r"a cost d\*\*p at p=.* is beyond the float range"
DISTANCE_ERROR = "a distance is beyond the float range"
ROOT_ERROR = "cannot take a root of order .*: the value is beyond the float range"

FLOATS = [1e100, 1e200, 1.7e308]
EXACTS = [10**200, 10**400]
PS = [1, 1.5, 2, 3, 4]


def _signed(values):
    return [s * v for v in values for s in (1, -1)]


def _line_points():
    values = [0.0, 0] + _signed(FLOATS) + _signed(EXACTS)
    return [EuclideanPoint((v,)) for v in values]


def _plane_points():
    # float, exact and mixed points: each magnitude on either axis, beside a
    # zero of its own kind or of the other kind
    points = [EuclideanPoint((0.0, 0.0)), EuclideanPoint((0, 0))]
    for v in _signed(FLOATS) + _signed(EXACTS):
        for zero in (0.0, 0):
            points += [EuclideanPoint((v, zero)), EuclideanPoint((zero, v))]
    return points


def _finite_cases():
    cases = []
    for v in FLOATS + EXACTS:
        space = Finite(((0, v, v), (v, 0, v), (v, v, 0)))
        label = f"finite-{type(v).__name__}-{len(str(int(v)))}"
        cases.append((label, space, [FinitePoint(i) for i in range(3)]))
    mixed = Finite(((0, 1e200, 10**200), (1e200, 0, 1.5e200), (10**200, 1.5e200, 0)))
    cases.append(("finite-mixed", mixed, [FinitePoint(i) for i in range(3)]))
    return cases


def _product_cases():
    line = _line_points()[::2] + _line_points()[1::4]
    plane = _plane_points()[::3]
    ts = itertools.cycle([0, Fraction(1, 4), 0.75, 1.0])
    cases = []
    for alpha, q in [(1, 1), (0.5, 2), (Fraction(1, 2), 2), (0.5, 3), (Fraction(1, 2), 1.5)]:
        for name, base, xs in [
            ("line", Euclidean(1), line),
            ("plane", Euclidean(2), plane),
            ("finite", Finite(((0, 10**400), (10**400, 0))), [FinitePoint(0), FinitePoint(1)]),
        ]:
            points = [ProductPoint(t, x) for t, x in zip(ts, xs)]
            cases.append((f"product-{alpha}-{q}-{name}", Product(alpha, q, base), points))
    return cases


CASES = (
    [("interval", Interval(0.5), [IntervalPoint(t) for t in (0, 1, 0.0, 1.0, Fraction(1, 3))])]
    + [("line", Euclidean(1), _line_points()), ("plane", Euclidean(2), _plane_points())]
    + _finite_cases()
    + _product_cases()
)


def _value_or_root_error(fn):
    """``fn()``, or None where it raises the exact-root DomainError; any other error fails."""
    try:
        value = fn()
    except DomainError as exc:
        assert re.fullmatch(ROOT_ERROR, str(exc)), exc
        return None
    assert value == value, "a NaN"
    return value


@pytest.mark.parametrize("name, space, points", CASES, ids=[c[0] for c in CASES])
def test_no_space_method_raises_overflow_and_every_entry_point_refuses_inf(name, space, points):
    for a, b in itertools.combinations(points, 2):
        _value_or_root_error(lambda: space.distance(a, b))
        for p in PS:
            cost = _value_or_root_error(lambda: space.powered_distance(a, b, p))
            plan = Coupling(space, (a,), (b,), ((1,),))
            if cost == math.inf:
                with pytest.raises(DomainError, match=COST_ERROR):
                    space.cost_matrix([a], [b], p)
                with pytest.raises(DomainError, match=COST_ERROR):
                    powered_distance(space, a, b, p)
                with pytest.raises(DomainError, match=COST_ERROR):
                    coupling_cost(plan, p)
            elif cost is not None:
                assert powered_distance(space, a, b, p) == cost
                assert space.cost_matrix([a], [b], p) == [[cost]]
                assert coupling_cost(plan, p) == cost


def test_a_float_square_beyond_the_float_range_is_refused_by_powered_distance():
    a, b = EuclideanPoint((1e200, 0.0)), EuclideanPoint((-1e200, 0.0))
    assert Euclidean(2).powered_distance(a, b, 2) == math.inf
    with pytest.raises(DomainError, match=COST_ERROR):
        powered_distance(Euclidean(2), a, b, 2)


def test_a_float_beside_an_exact_coordinate_beyond_the_float_range_is_inf():
    a, b = EuclideanPoint((0.0, 10**400)), EuclideanPoint((0.0, 0))
    assert distance(Euclidean(2), a, b) == math.inf
    assert distance(Euclidean(1), EuclideanPoint((1.0,)), EuclideanPoint((10**400,))) == math.inf
    # where only the square leaves the float range, the distance is kept as
    # from float or from exact coordinates alike
    near = EuclideanPoint((0.0, 10**200))
    assert distance(Euclidean(2), near, b) == 1e200
    assert distance(Euclidean(2), EuclideanPoint((0.0, 1e200)), EuclideanPoint((0.0, 0.0))) == 1e200
    assert distance(Euclidean(2), EuclideanPoint((0, 10**200)), EuclideanPoint((0, 0))) == 1e200


def test_product_sum_adding_a_float_to_an_exact_value_beyond_the_float_range_is_inf():
    space = Product(0.5, 2, Euclidean(1))
    a, b = ProductPoint(0.25, EuclideanPoint((0,))), ProductPoint(0.75, EuclideanPoint((10**400,)))
    assert space.powered_distance(a, b, 2) == math.inf
    assert space.distance(a, b) == math.inf


@pytest.mark.parametrize("p", [1, 1.5, 3])
def test_product_broadcast_over_a_base_power_beyond_the_float_range_is_one_array(p):
    space = Product(0.5, 3, Euclidean(1))
    rows = [ProductPoint(0.25, EuclideanPoint((1e200,))), ProductPoint(0.5, EuclideanPoint((0.0,)))]
    cols = [ProductPoint(0.75, EuclideanPoint((-1e200,))), ProductPoint(0.0, EuclideanPoint((1.0,)))]
    costs = space._float_costs(rows, cols, p)
    assert isinstance(costs, np.ndarray)
    cells = [[space.powered_distance(y, z, p).hex() for z in cols] for y in rows]
    assert [[c.hex() for c in row] for row in costs.tolist()] == cells
    if p == 3:  # the sum itself is the cost, and it is beyond the float range
        assert costs[0, 0] == math.inf
    else:
        assert costs[0, 0] == pytest.approx(2e200**p, rel=1e-12)


def _handlers(fn):
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    handlers = [h for h in ast.walk(tree) if isinstance(h, ast.ExceptHandler) and h.type]
    return [ast.unparse(h.type) for h in handlers]


@pytest.mark.parametrize(
    "fn",
    [
        Product._costs,
        Product.distance,
        otlab.metric._CostMatrix.cost_matrix,
        otlab.metric.powered_distance,
    ],
    ids=["Product._costs", "Product.distance", "cost_matrix", "metric.powered_distance"],
)
def test_callers_of_the_spaces_catch_no_overflow(fn):
    assert "OverflowError" not in _handlers(fn)


def test_coupling_cost_refuses_an_exact_cost_beyond_the_float_range_added_to_a_float_one():
    line = Euclidean(1)
    rows = (EuclideanPoint((0,)), EuclideanPoint((0.0,)))
    cols = (EuclideanPoint((10**400,)), EuclideanPoint((1.0,)))
    half = Fraction(1, 2)
    plan = Coupling(line, rows, cols, ((half, 0), (0, half)))
    # each cell the plan uses is finite: an exact 10**800 and a float 1.0
    assert line.powered_distance(rows[0], cols[0], 2) == 10**800
    assert line.powered_distance(rows[1], cols[1], 2) == 1.0
    with pytest.raises(DomainError, match=COST_ERROR):
        coupling_cost(plan, 2)


# ---------------------------------------------------------------------------
# distance-based entry points refuse an infinite distance

A = EuclideanPoint((1.7e308, 0.0))
B = EuclideanPoint((-1.7e308, 0.0))
C = EuclideanPoint((0.0, 0.0))
# the same refusals where a float coordinate meets an exact one beyond the float range
FAR = EuclideanPoint((0.0, 10**400))


@pytest.mark.parametrize("a, b", [(A, B), (C, FAR)], ids=["float", "mixed"])
def test_triangle_defect_refuses_an_infinite_distance(a, b):
    with pytest.raises(DomainError, match=DISTANCE_ERROR):
        triangle_defect(Euclidean(2), a, EuclideanPoint((1.0, 0.0)), b)


def test_triangle_defect_refuses_a_sum_of_distances_beyond_the_float_range():
    # d(a, c) + d(c, a) is 3.4e308 though each distance is a float
    with pytest.raises(DomainError, match=DISTANCE_ERROR):
        triangle_defect(Euclidean(2), A, C, A)


@pytest.mark.parametrize("a, b", [(A, B), (C, FAR)], ids=["float", "mixed"])
def test_metric_segment_refuses_an_infinite_distance(a, b):
    with pytest.raises(DomainError, match=DISTANCE_ERROR):
        metric_segment(Euclidean(2), a, b, [a, b, C])


def test_metric_segment_refuses_a_gap_mixing_an_exact_distance_beyond_the_float_range():
    line = Euclidean(1)
    a, b = EuclideanPoint((Fraction(1, 2),)), EuclideanPoint((10**400,))
    with pytest.raises(DomainError, match=DISTANCE_ERROR):
        metric_segment(line, a, b, [a, b, EuclideanPoint((1e300,))])
    # a candidate far off a finite segment is left out, not refused
    end = EuclideanPoint((1.0, 0.0))
    assert metric_segment(Euclidean(2), C, end, [C, A, end]) == [C, end]


@pytest.mark.parametrize("a, b", [(A, B), (C, FAR)], ids=["float", "mixed"])
def test_independent_kr_dual_refuses_an_infinite_distance(a, b):
    mu, nu = DiscreteMeasure(Euclidean(2), ((a, 1),)), DiscreteMeasure(Euclidean(2), ((b, 1),))
    with pytest.raises(DomainError, match=DISTANCE_ERROR):
        kr_dual(mu, nu, independent=True)
    with pytest.raises(DomainError, match=COST_ERROR):
        kr_dual(mu, nu)


def test_independent_kr_dual_refuses_an_exact_distance_too_large_for_a_float():
    line = Euclidean(1)
    mu = DiscreteMeasure(line, ((EuclideanPoint((0,)), 1),))
    nu = DiscreteMeasure(line, ((EuclideanPoint((10**400,)), 1),))
    with pytest.raises(DomainError, match=DISTANCE_ERROR):
        kr_dual(mu, nu, independent=True)


@pytest.mark.parametrize("a, b", [(A, B), (C, FAR)], ids=["float", "mixed"])
def test_geodesic_extension_refuses_an_infinite_speed(a, b):
    eta = DiscreteMeasure(Euclidean(2), ((EuclideanPoint((1.0, 1.0)), 1),))
    with pytest.raises(DomainError, match=DISTANCE_ERROR):
        build_geodesic_extension(Euclidean(2), eta, a, b, 0.5)


def test_geodesic_extension_refuses_an_infinite_radius():
    eta = DiscreteMeasure(Euclidean(2), ((B, 1),))
    with pytest.raises(DomainError, match=DISTANCE_ERROR):
        build_geodesic_extension(Euclidean(2), eta, A, C, 0.5)


def test_geodesic_extension_refuses_a_radius_adding_an_exact_distance_to_a_float_one():
    line = Euclidean(1)
    half = Fraction(1, 2)
    far, near = EuclideanPoint((10**400,)), EuclideanPoint((0.5,))
    eta = DiscreteMeasure(line, ((far, half), (near, half)))
    with pytest.raises(DomainError, match=DISTANCE_ERROR):
        build_geodesic_extension(line, eta, EuclideanPoint((0,)), EuclideanPoint((1,)), half)
