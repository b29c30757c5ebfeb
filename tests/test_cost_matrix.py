"""Bit identity of every space's ``cost_matrix`` with per-cell ``powered_distance``.

Float coordinates take the numpy broadcast; every cell must still carry the
scalar code's type and, for floats, its exact bits (``float.hex``). Exact and
mixed int/float coordinates take the scalar code cell by cell.
"""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from otlab import (
    Coupling,
    Euclidean,
    EuclideanPoint,
    Finite,
    FinitePoint,
    Interval,
    IntervalPoint,
    Product,
    ProductPoint,
    SpaceMismatchError,
    coupling_cost,
)

EXPONENTS = (1, 2, 3, 4, 1.5)
KINDS = ("float", "fraction", "mixed")


def _plane_metric(rng, size):
    """Float distances between ``size`` random points of the plane."""
    pts = rng.uniform(-5.0, 5.0, size=(size, 2)).tolist()
    return tuple(
        tuple(0.0 if i == j else math.hypot(a[0] - b[0], a[1] - b[1]) for j, b in enumerate(pts))
        for i, a in enumerate(pts)
    )


def _grid_metric(rng, size):
    """Integer city-block distances between ``size`` distinct grid points."""
    cells = rng.choice(100, size=size, replace=False).tolist()
    pts = [(c // 10, c % 10) for c in cells]
    return tuple(
        tuple(abs(x1 - x2) + abs(y1 - y2) for x2, y2 in pts) for x1, y1 in pts
    )


def _mixed_metric(rng, size):
    """City-block distances with every other entry pair stored as a float."""
    grid = _grid_metric(rng, size)
    return tuple(
        tuple(v if (i + j) % 2 else float(v) for j, v in enumerate(row))
        for i, row in enumerate(grid)
    )


RNG = np.random.default_rng(20261018)
FLOAT_FINITE = Finite(_plane_metric(RNG, 12))
EXACT_FINITE = Finite(_grid_metric(RNG, 12))
MIXED_FINITE = Finite(_mixed_metric(RNG, 12))
BIG_FINITE = Finite(_plane_metric(RNG, 256))

BASES = {
    "interval": Interval(Fraction(1, 2)),
    "E1": Euclidean(1),
    "E2": Euclidean(2),
    "finite": FLOAT_FINITE,
}

SPACES = {
    "interval-1": Interval(1),
    "interval-1/2": Interval(Fraction(1, 2)),
    "interval-0.3": Interval(0.3),
    "E1": Euclidean(1),
    "E2": Euclidean(2),
    "E3": Euclidean(3),
    "E5": Euclidean(5),
    "E9": Euclidean(9),
    "finite-float": FLOAT_FINITE,
    "finite-exact": EXACT_FINITE,
    "finite-mixed": MIXED_FINITE,
    "finite-256": BIG_FINITE,
}
for _q in (1, 2, 3):
    for _name, _base in BASES.items():
        SPACES[f"product-q{_q}-{_name}"] = Product(Fraction(1, 2), _q, _base)
SPACES["product-0.5-2-E2"] = Product(0.5, 2, Euclidean(2))
SPACES["product-q2-exact-finite"] = Product(1, 2, EXACT_FINITE)


def _scalar(rng, kind, lo, hi):
    if kind == "float":
        return float(rng.uniform(lo, hi))
    if kind == "fraction":
        return Fraction(int(rng.integers(lo * 32, hi * 32 + 1)), 32)
    # mixed: ints at the ends of the range, floats in between
    if rng.random() < 0.4:
        return int(rng.integers(lo, hi + 1))
    return float(rng.uniform(lo, hi))


def _point(rng, space, kind):
    if isinstance(space, Interval):
        return IntervalPoint(_scalar(rng, kind, 0, 1))
    if isinstance(space, Euclidean):
        return EuclideanPoint(tuple(_scalar(rng, kind, -10, 10) for _ in range(space.dim)))
    if isinstance(space, Finite):
        return FinitePoint(int(rng.integers(0, space.size)))
    return ProductPoint(_scalar(rng, kind, 0, 1), _point(rng, space.base, kind))


def _points(rng, space, kind, m, n):
    rows = [_point(rng, space, kind) for _ in range(m)]
    cols = [_point(rng, space, kind) for _ in range(n - 2)] + rows[:2]  # zero distances too
    return rows, cols


def _floats_only(space, kind):
    """Whether the inputs are all floats, so that the broadcast path must run."""
    if isinstance(space, Product):
        return kind == "float" and _floats_only(space.base, kind)
    if isinstance(space, Finite):
        return all(type(v) is float for row in space.matrix for v in row)
    return kind == "float"


def assert_bit_identical(space, rows, cols, p):
    got = space.cost_matrix(rows, cols, p)
    assert len(got) == len(rows)
    for y, row in zip(rows, got):
        assert len(row) == len(cols)
        for z, cell in zip(cols, row):
            want = space.powered_distance(y, z, p)
            assert type(cell) is type(want), (y, z, p)
            if isinstance(want, float):
                assert cell.hex() == want.hex(), (y, z, p, cell, want)
            else:
                assert cell == want, (y, z, p)


@pytest.mark.parametrize("name", sorted(SPACES))
def test_cost_matrix_matches_powered_distance_bit_for_bit(name):
    space = SPACES[name]
    rng = np.random.default_rng(sorted(SPACES).index(name))
    for kind in KINDS:
        if isinstance(space, Finite) and kind != "float":
            continue  # a finite space's kind is its matrix, not its points
        size = 30 if kind != "fraction" else 10
        for p in EXPONENTS:
            rows, cols = _points(rng, space, kind, size, size + 3)
            assert (space._float_costs(rows, cols, p) is not None) == _floats_only(space, kind)
            assert_bit_identical(space, rows, cols, p)


def test_all_256_points_of_a_finite_space():
    everything = [FinitePoint(k) for k in range(BIG_FINITE.size)]
    some = everything[::17]
    for p in EXPONENTS:
        assert_bit_identical(BIG_FINITE, everything, some, p)


def test_running_square_sum_keeps_its_order():
    # left to right, each 1 is lost against 1e16 (a tie, rounded to even);
    # numpy's sum over an axis of eight or more terms adds some of the ones
    # together first and gives 1e16 + 8
    space = Euclidean(9)
    y = EuclideanPoint((1e8,) + (1.0,) * 8)
    z = EuclideanPoint((0.0,) * 9)
    assert space.cost_matrix([y], [z], 2)[0][0] == space.powered_distance(y, z, 2) == 1e16


def test_coupling_cost_rejects_a_foreign_point():
    space = Interval(1)
    good = IntervalPoint(0.25)
    foreign = EuclideanPoint((0.5,))
    plan = Coupling(space, (good, foreign), (good,), ((0.5,), (0.5,)))
    for p in (1, 2):
        with pytest.raises(SpaceMismatchError):
            coupling_cost(plan, p)
    outside = Coupling(space, (good,), (IntervalPoint(1.5),), ((1.0,),))
    with pytest.raises(SpaceMismatchError):
        coupling_cost(outside, 1)


@pytest.mark.parametrize(
    "name", [n for n in sorted(SPACES) if n.startswith(("product-q2", "product-q3")) and "exact" not in n]
)
def test_product_cells_whose_sum_underflows_match_powered_distance(name):
    # float points shrunk towards one corner, so that the sums of q-th powers
    # of some distinct pairs fall below the normal floats; the broadcast must
    # still run and agree with the scalar code bit for bit
    space = SPACES[name]
    rng = np.random.default_rng(sorted(SPACES).index(name) + 1000)
    scale = 1e-310 if space.q == 2 else 1e-250

    def shrink(point):
        x = point.x
        if isinstance(x, IntervalPoint):
            x = IntervalPoint(x.t * scale)
        elif isinstance(x, EuclideanPoint):
            x = EuclideanPoint(tuple(c * 1e-200 for c in x.coords))
        return ProductPoint(point.t * scale, x)

    for p in EXPONENTS:
        rows, cols = _points(rng, space, "float", 12, 15)
        rows = [shrink(y) for y in rows[:6]] + rows[6:]
        cols = [shrink(z) for z in cols[:9]] + cols[9:]
        cols.append(ProductPoint(rows[0].t / 2, rows[0].x))  # a tiny fiber step
        tiny = [
            (y, z) for y in rows for z in cols
            if y != z and space.powered_distance(y, z, space.q) < sys.float_info.min
        ]
        assert tiny
        assert space._float_costs(rows, cols, p) is not None
        assert_bit_identical(space, rows, cols, p)
