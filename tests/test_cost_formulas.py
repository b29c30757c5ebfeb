"""The cost formulas of each space kind, as the float and the integer-unit evaluators run them.

* A unit build that cannot be exact gives up before any coordinate is put
  in integer units: a non-integral exponent is refused up front.
* Euclidean cells whose sum of squares leaves the normal floats (zero,
  subnormal or inf) are redone by the scalar code, and match
  ``powered_distance`` bit for bit; a cost beyond the float range is the
  scalar code's ``DomainError``, text and all.
"""

import sys
from fractions import Fraction

import numpy as np
import pytest

from otlab import (
    DomainError,
    Euclidean,
    EuclideanPoint,
    Interval,
    IntervalPoint,
    Product,
    ProductPoint,
    powered_distance,
)
from otlab import metric

HALF = Fraction(1, 2)

# (space, p) pairs whose costs are not all exact: an odd or non-integral p
# over a squared norm, a root of order q > 1, a snowflake exponent of 1/2;
# at p == q either part of a product may be the one that refuses
REFUSED = [
    (Product(HALF, 2, Euclidean(2)), 1),
    (Product(HALF, 2, Euclidean(2)), Fraction(3, 2)),
    (Euclidean(2), 1),
    (Euclidean(2), 3),
    (Euclidean(3), 1),
    (Euclidean(3), 3),
    (Interval(HALF), 1),
    (Product(HALF, 1, Interval(1)), 1),
    (Product(1, 1, Euclidean(2)), 1),
]


def _exact_point(rng, space):
    def t():
        return Fraction(int(rng.integers(0, 13)), 12)

    if isinstance(space, Interval):
        return IntervalPoint(t())
    if isinstance(space, Euclidean):
        return EuclideanPoint(tuple(Fraction(int(rng.integers(-36, 37)), 12) for _ in range(space.dim)))
    return ProductPoint(t(), _exact_point(rng, space.base))


def _counting_units(monkeypatch):
    calls = []
    units = metric.integer_units

    def counted(values):
        calls.append(len(values))
        return units(values)

    monkeypatch.setattr(metric, "integer_units", counted)
    return calls


@pytest.mark.parametrize("space, p", REFUSED, ids=lambda v: v.describe() if hasattr(v, "describe") else str(v))
def test_unit_builds_give_up_before_any_cell(space, p, monkeypatch):
    rng = np.random.default_rng(7)
    rows = [_exact_point(rng, space) for _ in range(6)]
    cols = [_exact_point(rng, space) for _ in range(5)] + rows[:2]
    calls = _counting_units(monkeypatch)
    assert space._unit_costs(rows, cols, p) is None
    assert calls == []
    # the scalar code agrees that some cell is not exact
    assert any(isinstance(c, float) for row in space.cost_matrix(rows, cols, p) for c in row)


def test_counting_sees_an_exact_build(monkeypatch):
    # the same points at an even p are exact, and their units are built
    space = Euclidean(2)
    rng = np.random.default_rng(7)
    rows = [_exact_point(rng, space) for _ in range(3)]
    calls = _counting_units(monkeypatch)
    assert space._unit_costs(rows, rows, 2) is not None
    assert calls


@pytest.mark.parametrize("dim", (2, 3))
@pytest.mark.parametrize("p", (1, 3, 1.5))
@pytest.mark.parametrize("scale", (1e-160, 1e-163, 1e160))
def test_euclidean_rescued_cells_are_bit_identical(dim, p, scale):
    space = Euclidean(dim)
    rng = np.random.default_rng((dim, int(p * 2), int(np.log10(scale)) + 200))

    def point():
        return EuclideanPoint(tuple(float(scale * rng.uniform(-1.0, 1.0)) for _ in range(dim)))

    rows = [point() for _ in range(6)]
    cols = [point() for _ in range(5)] + rows[:2]
    # every distinct pair's sum of squares is zero or subnormal, or inf
    for y in rows:
        for z in cols:
            sq = sum((u - v) * (u - v) for u, v in zip(y.coords, z.coords))
            assert y == z or sq < sys.float_info.min or sq == float("inf")
    expected, beyond = [], None
    for y in rows:
        for z in cols:
            try:
                expected.append(powered_distance(space, y, z, p))
            except DomainError as exc:
                beyond = str(exc)
    if beyond is None:
        assert space._float_costs(rows, cols, p) is not None
        cells = space.cost_matrix(rows, cols, p)
        assert all(type(c) is float for row in cells for c in row)
        assert [c.hex() for row in cells for c in row] == [c.hex() for c in expected]
        # the rescue kept the distances, except where the cost itself underflows
        assert any(c > 0.0 for c in expected) or scale**p == 0.0
    else:
        with pytest.raises(DomainError) as info:
            space.cost_matrix(rows, cols, p)
        assert str(info.value) == beyond
