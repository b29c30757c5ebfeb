"""Bit identity of every space's ``cost_matrix`` with per-cell ``powered_distance``.

Float coordinates of a matrix of more than ``_PER_CELL_MAX`` cells take the
numpy broadcast; every cell must still carry the scalar code's type and, for
floats, its exact bits (``float.hex``). Smaller matrices, and exact and mixed
int/float coordinates, take the scalar code cell by cell. So every check runs
on both sides of that size, and the broadcast, which the solver no longer
runs on a small matrix, is also checked there directly (``_float_costs``).
"""

import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest

from otlab import (
    Coupling,
    DomainError,
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
from otlab.metric import _PER_CELL_MAX

EXPONENTS = (1, 2, 3, 4, 1.5)
# float coordinates: "tiny" ones, each scaled by one of TINY, make sums of
# powers fall below the normal floats, where the scalar code rescales; "huge"
# ones (Euclidean coordinates up to 1e200) make costs beyond the float range
KINDS = ("float", "fraction", "mixed", "tiny", "huge")
TINY = (1e-160, 1e-250, 1e-310)
# (m, n): just within the per-cell code's size limit, just past it, and well past it
SHAPES = ((2, _PER_CELL_MAX // 2), (2, _PER_CELL_MAX // 2 + 1), (30, 33))


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


def _scaled(matrix, scale):
    return tuple(tuple(v * scale for v in row) for row in matrix)


RNG = np.random.default_rng(20261018)
FLOAT_FINITE = Finite(_plane_metric(RNG, 12))
EXACT_FINITE = Finite(_grid_metric(RNG, 12))
MIXED_FINITE = Finite(_mixed_metric(RNG, 12))
BIG_FINITE = Finite(_plane_metric(RNG, 256))
TINY_FINITE = Finite(_scaled(FLOAT_FINITE.matrix, 1e-300))
HUGE_FINITE = Finite(_scaled(FLOAT_FINITE.matrix, 1e200))

BASES = {
    "interval": Interval(Fraction(1, 2)),
    "E1": Euclidean(1),
    "E2": Euclidean(2),
    "finite": FLOAT_FINITE,
    "finite-tiny": TINY_FINITE,
    "finite-huge": HUGE_FINITE,
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
    "finite-tiny": TINY_FINITE,
    "finite-huge": HUGE_FINITE,
}
for _q in (1, 2, 3):
    for _name, _base in BASES.items():
        SPACES[f"product-q{_q}-{_name}"] = Product(Fraction(1, 2), _q, _base)
SPACES["product-0.5-2-E2"] = Product(0.5, 2, Euclidean(2))
SPACES["product-q2-exact-finite"] = Product(1, 2, EXACT_FINITE)


def _scalar(rng, kind, lo, hi):
    if kind in ("float", "huge"):
        return float(rng.uniform(lo, hi))
    if kind == "tiny":
        return float(rng.uniform(lo, hi)) * float(rng.choice(TINY))
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
        far = 1e199 if kind == "huge" else 1  # a product's t stays in [0, 1]
        return EuclideanPoint(tuple(_scalar(rng, kind, -10, 10) * far for _ in range(space.dim)))
    if isinstance(space, Finite):
        return FinitePoint(int(rng.integers(0, space.size)))
    return ProductPoint(_scalar(rng, kind, 0, 1), _point(rng, space.base, kind))


def _points(rng, space, kind, m, n):
    rows = [_point(rng, space, kind) for _ in range(m)]
    cols = [_point(rng, space, kind) for _ in range(n - 2)] + rows[:2]  # zero distances too
    return rows, cols


def _floats_only(space, points):
    """Whether every coordinate (matrix entry, for a ``Finite`` space) is a float.

    Exactly then can the broadcast build the matrix.
    """
    if isinstance(space, Product):
        fibers = all(type(y.t) is float for y in points)
        return fibers and _floats_only(space.base, [y.x for y in points])
    if isinstance(space, Finite):
        return all(type(v) is float for row in space.matrix for v in row)
    if isinstance(space, Interval):
        return all(type(y.t) is float for y in points)
    return all(type(c) is float for y in points for c in y.coords)


def _reaches_inf(space, kind):
    """Whether inputs of ``kind`` give costs beyond the float range in ``space``."""
    if isinstance(space, Product):
        return _reaches_inf(space.base, kind)
    if isinstance(space, Finite):
        return space is HUGE_FINITE
    return kind == "huge" and isinstance(space, Euclidean)


def _sum_of_powers(space, y, z):
    """The sum the scalar code takes a root of, or None for a kind that takes none."""
    if isinstance(space, Euclidean) and space.dim >= 2:
        return space._sq(y, z)
    if isinstance(space, Product) and space.q != 1:
        return space.powered_distance(y, z, space.q)
    return None


def _assert_same_cells(got, want, p):
    assert len(got) == len(want)
    for got_row, want_row in zip(got, want):
        assert len(got_row) == len(want_row)
        for cell, cost in zip(got_row, want_row):
            assert type(cell) is type(cost), (p, cell, cost)
            if isinstance(cost, float):
                assert cell.hex() == cost.hex(), (p, cell, cost)
            else:
                assert cell == cost, (p, cell, cost)


def assert_bit_identical(space, rows, cols, p):
    """``cost_matrix``, the broadcast where it can run, and the per-cell code agree bit for bit.

    A matrix with an inf cell is refused with the same DomainError at every
    size. Returns the per-cell matrix.
    """
    want = [[space.powered_distance(y, z, p) for z in cols] for y in rows]
    costs = space._float_costs(rows, cols, p)
    if costs is not None:
        _assert_same_cells(costs.tolist(), want, p)
    if any(math.inf in row for row in want):
        message = f"a cost d**p at p={p} is beyond the float range"
        with pytest.raises(DomainError, match=re.escape(message)):
            space.cost_matrix(rows, cols, p)
    else:
        _assert_same_cells(space.cost_matrix(rows, cols, p), want, p)
    return want


@pytest.mark.parametrize("name", sorted(SPACES))
def test_cost_matrix_matches_powered_distance_bit_for_bit(name):
    space = SPACES[name]
    rng = np.random.default_rng(sorted(SPACES).index(name))
    for kind in KINDS:
        if isinstance(space, Finite) and kind != "float":
            continue  # a finite space's kind is its matrix, not its points
        infs = rescaled = 0
        for m, n in SHAPES:
            if kind not in ("float", "mixed") and (m, n) == SHAPES[-1]:
                m, n = 10, 13  # exact cells, and rescued or inf ones, are slow
            for p in EXPONENTS:
                rows, cols = _points(rng, space, kind, m, n)
                broadcast = space._float_costs(rows, cols, p) is not None
                assert broadcast == _floats_only(space, rows + cols)
                want = assert_bit_identical(space, rows, cols, p)
                infs += sum(row.count(math.inf) for row in want)
                sums = (_sum_of_powers(space, y, z) for y in rows for z in cols if y != z)
                rescaled += sum(s is not None and s < sys.float_info.min for s in sums)
        assert (infs > 0) == _reaches_inf(space, kind)
        if kind == "tiny" and _sum_of_powers(space, rows[0], cols[0]) is not None:
            assert rescaled, "no sum fell below the normal floats"


def test_all_256_points_of_a_finite_space():
    everything = [FinitePoint(k) for k in range(BIG_FINITE.size)]
    some = everything[::17]
    for p in EXPONENTS:
        assert_bit_identical(BIG_FINITE, everything, some, p)


def test_running_square_sum_keeps_its_order():
    # left to right, each 1 is lost against 1e16 (a tie, rounded to even);
    # numpy's sum over an axis of eight or more terms adds some of the ones
    # together first and gives 1e16 + 8; the broadcast must not
    space = Euclidean(9)
    y = EuclideanPoint((1e8,) + (1.0,) * 8)
    z = EuclideanPoint((0.0,) * 9)
    assert space._float_costs([y], [z], 2).tolist() == [[1e16]]
    assert assert_bit_identical(space, [y], [z], 2) == [[1e16]]


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
