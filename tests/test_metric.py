"""Metric layer: axioms, exact typing, snowflake behavior, file loading."""

import math
from fractions import Fraction

import numpy as np
import pytest

from otlab import (
    DomainError,
    Euclidean,
    EuclideanPoint,
    Finite,
    FinitePoint,
    Interval,
    IntervalPoint,
    InvalidSpaceError,
    ParseError,
    SpaceMismatchError,
    Product,
    ProductPoint,
    distance,
    load_finite_space,
    metric_segment,
    powered_distance,
    segment_is_trivial,
    triangle_defect,
)
from otlab._numbers import powered_abs, root
from otlab.metric import _mul_exponents


def test_interval_distance_and_validation(unit_interval):
    a, b = IntervalPoint(Fraction(1, 4)), IntervalPoint(Fraction(3, 4))
    d = distance(unit_interval, a, b)
    assert d == Fraction(1, 2)
    assert isinstance(d, Fraction)
    with pytest.raises(SpaceMismatchError):
        unit_interval.validate_point(IntervalPoint(1.5))


def test_alpha_snowflakes_the_interval():
    half = Interval(Fraction(1, 2))
    d = distance(half, IntervalPoint(0.0), IntervalPoint(0.25))
    assert d == pytest.approx(0.5)


def test_invalid_alpha_rejected():
    with pytest.raises(InvalidSpaceError):
        Interval(0)
    with pytest.raises(InvalidSpaceError):
        Product(1.5, 2, Euclidean(1))


def test_euclidean_distance_plane():
    space = Euclidean(2)
    a = EuclideanPoint((0.0, 0.0))
    b = EuclideanPoint((3.0, 4.0))
    assert distance(space, a, b) == pytest.approx(5.0)
    with pytest.raises(SpaceMismatchError):
        space.validate_point(EuclideanPoint((1.0,)))


def test_product_powered_distance_stays_exact():
    # alpha*q = 1 keeps |dt| unpowered, so squared distances are rational
    space = Product(Fraction(1, 2), 2, Euclidean(2))
    a = ProductPoint(Fraction(1, 4), EuclideanPoint((Fraction(0), Fraction(0))))
    b = ProductPoint(Fraction(3, 4), EuclideanPoint((Fraction(1), Fraction(2))))
    sq = powered_distance(space, a, b, 2)
    assert sq == Fraction(1, 2) + 5
    assert isinstance(sq, Fraction)
    assert distance(space, a, b) == pytest.approx(math.sqrt(5.5))


def test_city_block_product_is_exact(city_block_square):
    a = ProductPoint(Fraction(1, 8), IntervalPoint(Fraction(1, 3)))
    b = ProductPoint(Fraction(5, 8), IntervalPoint(Fraction(2, 3)))
    d = distance(city_block_square, a, b)
    assert d == Fraction(1, 2) + Fraction(1, 3)
    assert isinstance(d, Fraction)


def test_snowflake_triangle_defect_hand_value(snowflake_plane):
    x = EuclideanPoint((0.0, 0.0))
    y = ProductPoint(0.0, x)
    mid = ProductPoint(0.5, x)
    z = ProductPoint(1.0, x)
    defect = triangle_defect(snowflake_plane, y, mid, z)
    assert defect == pytest.approx(math.sqrt(2) - 1)


def test_snowflake_defect_strict_on_random_triples(snowflake_plane):
    rng = np.random.default_rng(7)
    for _ in range(200):
        ts = rng.uniform(0, 1, 3)
        while np.min(np.diff(np.sort(ts))) < 0.05:
            ts = rng.uniform(0, 1, 3)
        pts = [
            ProductPoint(float(t), EuclideanPoint(tuple(map(float, rng.uniform(-5, 5, 2)))))
            for t in ts
        ]
        assert triangle_defect(snowflake_plane, *pts) > 1e-12


def test_separable_metric_saturates_at_q_one():
    # with q = 1 the metric splits into a sum, so collinear configurations
    # with monotone fiber coordinates meet the triangle bound exactly
    space = Product(Fraction(1, 2), 1, Euclidean(1))
    y = ProductPoint(Fraction(0), EuclideanPoint((Fraction(0),)))
    mid = ProductPoint(Fraction(1, 2), EuclideanPoint((Fraction(1),)))
    z = ProductPoint(Fraction(1, 2), EuclideanPoint((Fraction(2),)))
    assert triangle_defect(space, y, mid, z) == 0


def test_segment_certificate_scope(snowflake_plane, city_block_square):
    x = EuclideanPoint((1.0, 2.0))
    a, b = ProductPoint(0.1, x), ProductPoint(0.9, x)
    assert segment_is_trivial(snowflake_plane, a, b)
    same_t = ProductPoint(0.1, EuclideanPoint((3.0, 4.0)))
    assert not segment_is_trivial(snowflake_plane, a, same_t)
    ia, ib = ProductPoint(0.1, IntervalPoint(0.2)), ProductPoint(0.9, IntervalPoint(0.8))
    assert not segment_is_trivial(city_block_square, ia, ib)
    assert not segment_is_trivial(Interval(1), IntervalPoint(0), IntervalPoint(1))


def test_metric_segment_requires_endpoints(snowflake_plane):
    x = EuclideanPoint((0.0, 0.0))
    a, b = ProductPoint(0.0, x), ProductPoint(1.0, x)
    with pytest.raises(DomainError):
        metric_segment(snowflake_plane, a, b, [a])


def test_metric_segment_finds_interior_point_at_shared_t(snowflake_plane):
    t = 0.3
    a = ProductPoint(t, EuclideanPoint((0.0, 0.0)))
    b = ProductPoint(t, EuclideanPoint((2.0, 0.0)))
    inner = ProductPoint(t, EuclideanPoint((1.0, 0.0)))
    off = ProductPoint(t, EuclideanPoint((1.0, 1.0)))
    members = metric_segment(snowflake_plane, a, b, [a, b, inner, off])
    assert inner in members
    assert off not in members
    assert a in members and b in members


def test_triangle_inequality_across_space_kinds(small_tree):
    rng = np.random.default_rng(11)
    spaces = [
        Interval(1),
        Euclidean(3),
        small_tree,
        Product(0.7, 1.5, Euclidean(2)),
    ]
    for space in spaces:
        for _ in range(100):
            pts = []
            for _ in range(3):
                if isinstance(space, Interval):
                    pts.append(IntervalPoint(float(rng.uniform(0, 1))))
                elif isinstance(space, Euclidean):
                    pts.append(EuclideanPoint(tuple(map(float, rng.uniform(-3, 3, space.dim)))))
                elif isinstance(space, Finite):
                    pts.append(FinitePoint(int(rng.integers(0, space.size))))
                else:
                    pts.append(
                        ProductPoint(
                            float(rng.uniform(0, 1)),
                            EuclideanPoint(tuple(map(float, rng.uniform(-3, 3, 2)))),
                        )
                    )
            a, b, c = pts
            assert distance(space, a, c) <= distance(space, a, b) + distance(space, b, c) + 1e-12
            assert distance(space, a, b) == distance(space, b, a)


def test_finite_space_file_round_trip(tmp_path, small_tree):
    path = tmp_path / "tree.txt"
    rows = ["5"]
    for i in range(5):
        rows.append(" ".join(str(small_tree.matrix[i][j]) for j in range(5)))
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    loaded = load_finite_space(str(path), exact=True)
    assert loaded.matrix == small_tree.matrix


def test_finite_space_rejects_asymmetry(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2\n0 1\n2 0\n", encoding="utf-8")
    with pytest.raises((ParseError, InvalidSpaceError)):
        load_finite_space(str(path))


def test_finite_space_rejects_an_exact_entry_facing_a_float():
    # equal in value, but a solve would run exact one way and in float the other
    for matrix in (((0, 1), (1.0, 0)), ((0, 1.0), (1, 0)), ((0, Fraction(1, 2)), (0.5, 0))):
        with pytest.raises(InvalidSpaceError, match=r"asymmetric entries at \(0, 1\)"):
            Finite(matrix)
    # mixed matrices whose halves agree in type still construct
    assert Finite(((0, 1.0, 2), (1.0, 0, 1.0), (2, 1.0, 0))).size == 3


def test_finite_space_rejects_triangle_violation():
    with pytest.raises(InvalidSpaceError):
        Finite(((0, 1, 5), (1, 0, 1), (5, 1, 0)))


# ---------------------------------------------------------------------------
# the exponent rule: an exponent equal to an integer is that integer
# each group spells one integer as an int, as integral Fractions and as a float
INTEGRAL_EXPONENTS = (
    (1, Fraction(1), Fraction(3, 3), 1.0),
    (2, Fraction(2), Fraction(4, 2), 2.0),
    (3, Fraction(3), Fraction(6, 2), 3.0),
    (4, Fraction(4), Fraction(8, 2), 4.0),
)
TREE = (
    (0, 2, 3, Fraction(5, 2)),
    (2, 0, 1, Fraction(3, 2)),
    (3, 1, 0, 1),
    (Fraction(5, 2), Fraction(3, 2), 1, 0),
)
EXPONENT_SPACES = (
    Interval(1),
    Interval(Fraction(1, 2)),
    Interval(0.5),
    Euclidean(1),
    Euclidean(2),
    Euclidean(3),
    Finite(TREE),
    Finite(tuple(tuple(float(v) for v in row) for row in TREE)),
    Product(Fraction(1, 2), 2, Euclidean(2)),
    Product(0.5, 2, Euclidean(2)),
    Product(1, 1, Interval(1)),
    Product(Fraction(1, 2), 3, Finite(TREE)),
)


def typed(value):
    """A value's type and its exact value (its bits, for a float), nested through lists."""
    if isinstance(value, list):
        return [typed(v) for v in value]
    return (type(value), value.hex() if isinstance(value, float) else value)


def exponent_points(space, scalars):
    """Three points of ``space`` whose coordinates are drawn from ``scalars``, in [0, 1]."""
    points = []
    for i in range(3):
        if isinstance(space, Interval):
            points.append(IntervalPoint(scalars[i]))
        elif isinstance(space, Euclidean):
            points.append(EuclideanPoint(tuple(scalars[(i + k) % 3] for k in range(space.dim))))
        elif isinstance(space, Finite):
            points.append(FinitePoint(i))
        else:
            points.append(ProductPoint(scalars[2 - i], exponent_points(space.base, scalars)[i]))
    return points


@pytest.mark.parametrize("group", INTEGRAL_EXPONENTS, ids=lambda g: str(g[0]))
def test_integral_exponents_agree_in_type_and_value(group):
    for delta in (0, 3, Fraction(-2, 3), 0.0, -0.375, 1.3):
        assert len({repr(typed(powered_abs(delta, e))) for e in group}) == 1, delta
    for value in (0, 4, Fraction(9, 4), 2.0, 0.3):
        assert len({repr(typed(root(value, e))) for e in group}) == 1, value
    assert len({repr(typed(_mul_exponents(a, e))) for a in group for e in group}) == 1
    for space in EXPONENT_SPACES:
        for scalars in ((0, 1, 1), (Fraction(1, 4), Fraction(2, 3), 1), (0.25, 0.7, 1.0)):
            pts = exponent_points(space, scalars)
            cells = [[space.powered_distance(y, z, e) for y in pts for z in pts] for e in group]
            assert len({repr(typed(c)) for c in cells}) == 1, (space, scalars)
            matrices = {repr(typed(space.cost_matrix(pts, pts[::-1], e))) for e in group}
            assert len(matrices) == 1, (space, scalars)


def test_integral_exponents_keep_exact_values_exact():
    half = Fraction(1, 2)
    assert typed(powered_abs(-half, Fraction(4, 2))) == (Fraction, Fraction(1, 4))
    assert typed(powered_abs(-half, 2.0)) == (Fraction, Fraction(1, 4))
    assert typed(_mul_exponents(half, 2.0)) == (int, 1)
    assert typed(_mul_exponents(half, Fraction(6, 2))) == (Fraction, Fraction(3, 2))
    a = EuclideanPoint((half, 0))
    b = EuclideanPoint((0, 1))
    assert typed(Euclidean(2).powered_distance(a, b, 4.0)) == (Fraction, Fraction(25, 16))


def test_non_integral_exponents_take_the_float_path():
    quarter = Fraction(1, 4)
    for e in (Fraction(3, 2), 1.5):
        assert typed(powered_abs(quarter, e)) == (float, (0.125).hex())
        assert typed(root(Fraction(9, 4), e)) == (float, (2.25 ** (1 / 1.5)).hex())
        a = EuclideanPoint((Fraction(3, 5), Fraction(0)))
        b = EuclideanPoint((Fraction(0), Fraction(4, 5)))
        assert typed(Euclidean(2).powered_distance(a, b, e)) == (float, (1.0).hex())
        assert typed(Interval(1).cost_matrix([IntervalPoint(0)], [IntervalPoint(quarter)], e)) == [
            [(float, (0.125).hex())]
        ]
