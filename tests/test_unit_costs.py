"""Exact cost matrices in integer units against the per-cell ``cost_matrix``.

``space._unit_costs(rows, cols, p)`` must be a matrix of ints C with a scale S
exactly when every cell of ``space.cost_matrix(rows, cols, p)`` is an int or a
Fraction, and then C[i][k] / S must equal that cell.
"""

from fractions import Fraction

import numpy as np
import pytest

from otlab import (
    Euclidean,
    EuclideanPoint,
    Finite,
    FinitePoint,
    Interval,
    IntervalPoint,
    Product,
    ProductPoint,
)

EXPONENTS = (1, 2, 3, 4, Fraction(3, 2), 2.0)
KINDS = ("int", "fraction", "float", "mixed")


def _line_metric(positions, as_float):
    """|x_i - x_j| between fixed positions, with entries kept exact or made floats."""
    return tuple(
        tuple((float(abs(a - b)) if as_float(i, j) else abs(a - b)) for j, b in enumerate(positions))
        for i, a in enumerate(positions)
    )


POSITIONS = (0, Fraction(1, 3), Fraction(3, 4), Fraction(5, 4), 2, Fraction(17, 6))
FINITES = {
    "int": Finite(_line_metric(range(6), lambda i, j: False)),
    "fraction": Finite(_line_metric(POSITIONS, lambda i, j: False)),
    "float": Finite(_line_metric(POSITIONS, lambda i, j: True)),
    # float where i + j is even, the diagonal included: every block between
    # even and odd indices is exact
    "mixed": Finite(_line_metric(POSITIONS, lambda i, j: (i + j) % 2 == 0)),
}

SPACES = {
    "interval-1": Interval(1),
    "interval-1/2": Interval(Fraction(1, 2)),
    "interval-0.5": Interval(0.5),
    "E1": Euclidean(1),
    "E2": Euclidean(2),
    "E3": Euclidean(3),
    **{f"finite-{kind}": space for kind, space in FINITES.items()},
}
for _q in (1, 2):
    for _name, _base in (
        ("interval", Interval(1)),
        ("E1", Euclidean(1)),
        ("E2", Euclidean(2)),
        ("finite", FINITES["fraction"]),
        ("finite-mixed", FINITES["mixed"]),
    ):
        SPACES[f"product-1/2-q{_q}-{_name}"] = Product(Fraction(1, 2), _q, _base)
        SPACES[f"product-1-q{_q}-{_name}"] = Product(1, _q, _base)
SPACES["product-0.5-q2-E1"] = Product(0.5, 2, Euclidean(1))

# spaces with no exact matrix at any of the exponents and points below: a
# float matrix; the float diagonal of the mixed one, which every draw meets;
# the plane at p = q = 1; and alpha * q = 1/2
NEVER_EXACT = {
    "finite-float",
    "finite-mixed",
    "product-1-q1-finite-mixed",
    "product-1-q2-finite-mixed",
    "product-1/2-q2-finite-mixed",
    "product-1-q1-E2",
} | {name for name in SPACES if name.startswith("product-1/2-q1-")}


def _scalar(rng, kind, lo, hi):
    if kind == "int":
        return int(rng.integers(lo, hi + 1))
    if kind == "fraction":
        return Fraction(int(rng.integers(lo * 12, hi * 12 + 1)), 12)
    if kind == "float":
        return float(rng.uniform(lo, hi))
    return _scalar(rng, ("int", "fraction", "float")[int(rng.integers(0, 3))], lo, hi)


def _point(rng, space, kind):
    if isinstance(space, Interval):
        return IntervalPoint(_scalar(rng, kind, 0, 1))
    if isinstance(space, Euclidean):
        return EuclideanPoint(tuple(_scalar(rng, kind, -3, 3) for _ in range(space.dim)))
    if isinstance(space, Finite):
        return FinitePoint(int(rng.integers(0, space.size)))
    return ProductPoint(_scalar(rng, kind, 0, 1), _point(rng, space.base, kind))


def assert_units_match(space, rows, cols, p):
    """Checks the contract on one matrix; returns whether the units were exact."""
    cells = space.cost_matrix(rows, cols, p)
    exact = all(isinstance(c, (int, Fraction)) for row in cells for c in row)
    units = space._unit_costs(rows, cols, p)
    assert (units is not None) == exact, (rows, cols, p)
    if units is None:
        return False
    costs, scale = units
    assert type(scale) is int and scale > 0
    assert len(costs) == len(rows)
    for unit_row, row in zip(costs, cells):
        assert len(unit_row) == len(cols)
        for c, cell in zip(unit_row, row):
            assert type(c) is int
            assert Fraction(c, scale) == cell, (rows, cols, p, c, scale, cell)
    return True


@pytest.mark.parametrize("name", sorted(SPACES))
def test_units_exist_exactly_when_every_cell_is_exact(name):
    space = SPACES[name]
    rng = np.random.default_rng(sorted(SPACES).index(name))
    outcomes = set()
    for kind in KINDS:
        for p in EXPONENTS:
            for _ in range(3):
                rows = [_point(rng, space, kind) for _ in range(4)]
                cols = [_point(rng, space, kind) for _ in range(3)] + rows[:2]
                outcomes.add(assert_units_match(space, rows, cols, p))
    assert False in outcomes  # float points make float cells everywhere
    assert (True in outcomes) == (name not in NEVER_EXACT)


def test_exponent_rules():
    half = Fraction(1, 2)
    t = [IntervalPoint(Fraction(1, 3)), IntervalPoint(1)]
    plane = [EuclideanPoint((half, 0)), EuclideanPoint((1, Fraction(2, 3)))]
    line = [EuclideanPoint((half,)), EuclideanPoint((2,))]
    cases = [
        # alpha * p must be integral: 1/2 and 0.5 alike
        (Interval(half), t, 2, True),
        (Interval(0.5), t, 2, True),
        (Interval(half), t, 3, False),
        (Interval(0.5), t, 4, True),
        # dim 1 needs an integral p, dim >= 2 an even one
        (Euclidean(1), line, 3, True),
        (Euclidean(1), line, Fraction(3, 2), False),
        (Euclidean(2), plane, 2, True),
        (Euclidean(2), plane, 2.0, True),
        (Euclidean(2), plane, 4, True),
        (Euclidean(2), plane, 1, False),
        (Euclidean(2), plane, 3, False),
        # p != q is exact only at q == 1 and an integral p
        (Product(1, 1, Euclidean(1)), [ProductPoint(half, x) for x in line], 2, True),
        (Product(1, 1, Euclidean(1)), [ProductPoint(half, x) for x in line], 3, True),
        (Product(1, 2, Euclidean(1)), [ProductPoint(half, x) for x in line], 1, False),
        (Product(1, 2, Euclidean(1)), [ProductPoint(half, x) for x in line], 2, True),
        (Product(half, 1, Euclidean(1)), [ProductPoint(half, x) for x in line], 2, False),
    ]
    for space, points, p, exact in cases:
        assert assert_units_match(space, points, points, p) == exact, (space, p)


def test_a_mixed_finite_matrix_is_judged_on_the_selected_cells():
    space = FINITES["mixed"]
    evens = [FinitePoint(0), FinitePoint(2), FinitePoint(4)]
    odds = [FinitePoint(1), FinitePoint(5)]
    for p in (1, 2, 3):
        assert assert_units_match(space, evens, odds, p)
        assert assert_units_match(space, odds, evens, p)
        # the float diagonal entry d(0, 0) = 0.0
        assert not assert_units_match(space, evens, evens, p)
        assert not assert_units_match(space, evens, odds + [FinitePoint(0)], p)
    # the base of a product is judged the same way
    product = Product(1, 1, space)
    rows = [ProductPoint(Fraction(1, 3), x) for x in evens]
    cols = [ProductPoint(Fraction(1, 2), x) for x in odds]
    assert assert_units_match(product, rows, cols, 1)
    assert assert_units_match(product, rows, cols, 2)
    assert not assert_units_match(product, rows, rows, 1)
