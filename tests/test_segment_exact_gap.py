"""``metric_segment`` compares an exact gap exactly and a float gap within 1e-9.

A candidate w is on the segment [a, b] when d(a,w) + d(w,b) - d(a,b) is
zero within ``tolerance`` of that gap, the rule the package's other checks
follow. An exact candidate 1e-10 off the segment is not on it, though the
gap is far below the float allowance.
"""

from fractions import Fraction

from otlab import (
    Euclidean,
    EuclideanPoint,
    Finite,
    FinitePoint,
    Interval,
    IntervalPoint,
    Product,
    ProductPoint,
    metric_segment,
    triangle_defect,
)

EPS = Fraction(1, 10**10)


def test_an_exact_finite_point_a_tiny_gap_off_the_segment_is_not_on_it():
    space = Finite(((0, 1, 2 - EPS), (1, 0, 1), (2 - EPS, 1, 0)))
    a, w, b = FinitePoint(0), FinitePoint(1), FinitePoint(2)
    assert triangle_defect(space, a, w, b) == EPS
    assert metric_segment(space, a, b, [a, w, b]) == [a, b]


def test_an_exact_product_candidate_is_on_the_segment_only_at_gap_zero():
    space = Product(1, 1, Interval(1))

    def point(t, x):
        return ProductPoint(t, IntervalPoint(x))

    a, b = point(Fraction(0), Fraction(0)), point(Fraction(1, 2), Fraction(1, 2))
    on = point(Fraction(1, 4), Fraction(1, 2))
    off = point(Fraction(1, 4), Fraction(1, 2) + EPS)
    assert triangle_defect(space, a, off, b) == 2 * EPS
    assert metric_segment(space, a, b, [a, on, off, b]) == [a, on, b]


def test_a_float_candidate_keeps_the_float_allowance():
    space = Euclidean(1)
    a, b = EuclideanPoint((0.0,)), EuclideanPoint((0.3,))
    # gaps of about 2e-10 and 2e-8 past b
    near, far = EuclideanPoint((0.3 + 1e-10,)), EuclideanPoint((0.3 + 1e-8,))
    assert metric_segment(space, a, b, [a, near, far, b]) == [a, near, b]
