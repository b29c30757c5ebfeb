"""Space parameters are checked when a space is built.

A bool compares as 0 or 1, so ``Interval(True)`` used to pass the range
check and fail later in ``describe()``; an infinite product exponent q used
to pass too and fail in ``describe()`` and ``powered_distance``. Both are an
:class:`InvalidSpaceError` at construction now, as a non-finite cost
exponent p is a ``DomainError``.
"""

from fractions import Fraction

import pytest

from otlab import (
    Euclidean,
    Finite,
    Interval,
    InvalidSpaceError,
    Product,
)

E2 = Euclidean(2)

REFUSED = {
    "interval-alpha-True": lambda: Interval(True),
    "interval-alpha-False": lambda: Interval(False),
    "euclidean-dim-True": lambda: Euclidean(True),
    "product-alpha-True": lambda: Product(True, 2, E2),
    "product-q-True": lambda: Product(0.5, True, E2),
    "product-q-inf": lambda: Product(0.5, float("inf"), E2),
    "product-q-inf-interval": lambda: Product(1, float("inf"), Interval(1)),
    "product-q-nan": lambda: Product(0.5, float("nan"), E2),
    "product-q-below-1": lambda: Product(0.5, 0.5, E2),
}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_bad_parameters_are_refused_at_construction(name):
    with pytest.raises(InvalidSpaceError):
        REFUSED[name]()


def test_messages_name_the_parameter():
    with pytest.raises(InvalidSpaceError, match=r"^snowflake exponent alpha=True is not a number in \(0, 1\]$"):
        Interval(True)
    with pytest.raises(InvalidSpaceError, match=r"^exponent q=inf is not a finite number >= 1$"):
        Product(0.5, float("inf"), E2)
    with pytest.raises(InvalidSpaceError, match=r"^exponent q=True is not a finite number >= 1$"):
        Product(0.5, True, E2)
    with pytest.raises(InvalidSpaceError, match=r"^dimension must be a positive integer, got True$"):
        Euclidean(True)


@pytest.mark.parametrize(
    "space, text",
    [
        (Interval(1), "interval:alpha=1"),
        (Interval(Fraction(1, 2)), "interval:alpha=1/2"),
        (Euclidean(3), "euclidean:dim=3"),
        (Product(0.5, 2.0, E2), "product:alpha=0.5:q=2:euclidean:dim=2"),
        (Product(Fraction(1, 3), Fraction(3, 2), Interval(1)), "product:alpha=1/3:q=3/2:interval:alpha=1"),
        (Product(1, 1e300, Finite(((0, 1), (1, 0)))), "product:alpha=1:q=1e+300:finite:n=2"),
    ],
)
def test_valid_parameters_still_build_and_describe(space, text):
    assert space.describe() == text
