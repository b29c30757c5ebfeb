"""One rule for the cost exponent p: a finite number >= 1, or DomainError.

Every entry point that takes p applies it on every space kind, to float and
to exact points alike: ``solve_wasserstein``, ``coupling_cost``,
``check_cyclical_monotonicity`` and ``metric.powered_distance``.
"""

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
    Product,
    ProductPoint,
    solve_wasserstein,
)
from otlab.errors import DomainError
from otlab.metric import powered_distance
from otlab.solver import check_cyclical_monotonicity, coupling_cost

INF = float("inf")


def points(kind, exact):
    lo, hi = (Fraction(0), Fraction(1, 2)) if exact else (0.0, 0.5)
    if kind == "interval":
        return Interval(1), IntervalPoint(lo), IntervalPoint(hi)
    if kind == "euclidean":
        return Euclidean(1), EuclideanPoint((lo,)), EuclideanPoint((hi,))
    if kind == "finite":
        half = Fraction(1, 2) if exact else 0.5
        return Finite(((0, half), (half, 0))), FinitePoint(0), FinitePoint(1)
    a = ProductPoint(lo, EuclideanPoint((lo, hi)))
    b = ProductPoint(hi, EuclideanPoint((hi, lo)))
    return Product(Fraction(1, 2), 2, Euclidean(2)), a, b


def entry_points(kind, exact):
    space, a, b = points(kind, exact)
    mu = DiscreteMeasure(space, ((a, 1),))
    nu = DiscreteMeasure(space, ((a, Fraction(1, 2)), (b, Fraction(1, 2))))
    plan = solve_wasserstein(mu, nu, p=1).coupling
    return {
        "solve_wasserstein": lambda p: solve_wasserstein(mu, nu, p=p),
        "coupling_cost": lambda p: coupling_cost(plan, p),
        "check_cyclical_monotonicity": lambda p: check_cyclical_monotonicity(plan, p=p),
        "powered_distance": lambda p: powered_distance(space, a, b, p),
    }


KINDS = ["interval", "euclidean", "finite", "product"]


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("kind", KINDS)
def test_an_infinite_exponent_is_a_domain_error_everywhere(kind, exact):
    for call in entry_points(kind, exact).values():
        with pytest.raises(DomainError, match=r"^cost exponent p=inf must be finite$"):
            call(INF)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("kind", KINDS)
def test_exponents_below_one_keep_their_message(kind, exact):
    below = [
        (-INF, "-inf"), (float("nan"), "nan"), (0.5, "0.5"), (Fraction(1, 2), "Fraction(1, 2)"),
        (0, "0"),
    ]
    for name, call in entry_points(kind, exact).items():
        for p, text in below:
            with pytest.raises(DomainError) as info:
                call(p)
            assert str(info.value) == f"cost exponent p={text} must be >= 1", name


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("kind", KINDS)
def test_finite_exponents_still_solve(kind, exact):
    for call in entry_points(kind, exact).values():
        for p in (1, 2, Fraction(3, 2), 2.0, 10**3):
            call(p)
