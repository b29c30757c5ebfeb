"""NumPy floating scalars get the checks a Python float gets, with the same messages.

``np.float64`` is a float; ``np.float32`` and ``np.float16`` are not, and a
mass or a Euclidean coordinate of those types used to skip the NaN, inf and
1e-15 floor checks: a NaN mass or coordinate solved to an uncertified or NaN
cost. Finite values of those types are accepted as before.
"""

import numpy as np
import pytest

from otlab import (
    DiscreteMeasure,
    Euclidean,
    EuclideanPoint,
    Interval,
    IntervalPoint,
    InvalidMeasureError,
    Product,
    ProductPoint,
    SpaceMismatchError,
    solve_wasserstein,
)

FLOAT_TYPES = [float, np.float64, np.float32, np.float16]
IDS = [t.__name__ for t in FLOAT_TYPES]
POINTS = (IntervalPoint(0), IntervalPoint(1))


@pytest.mark.parametrize("kind", FLOAT_TYPES, ids=IDS)
def test_a_nan_mass_is_refused(kind):
    nan = kind("nan")
    with pytest.raises(InvalidMeasureError) as info:
        DiscreteMeasure(Interval(1), ((POINTS[0], kind(0.5)), (POINTS[1], nan)))
    assert str(info.value) == f"mass {nan!r} at {POINTS[1]} is not a number"


@pytest.mark.parametrize("kind", [float, np.float64, np.float32], ids=IDS[:3])
def test_a_mass_below_the_floor_is_refused(kind):
    tiny = kind(1e-20)
    with pytest.raises(InvalidMeasureError) as info:
        DiscreteMeasure(Interval(1), ((POINTS[0], tiny), (POINTS[1], 1.0)))
    floor = "is below the 1e-15 floor; refusing to drop it silently"
    assert str(info.value) == f"mass {tiny!r} at {POINTS[0]} {floor}"


@pytest.mark.parametrize("kind", FLOAT_TYPES, ids=IDS)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_a_coordinate_that_is_not_finite_is_refused(kind, value):
    c = kind(value)
    for space, point in (
        (Euclidean(1), EuclideanPoint((c,))),
        (Euclidean(2), EuclideanPoint((0.0, c))),
        (Product(0.5, 2, Euclidean(2)), ProductPoint(0.5, EuclideanPoint((c, 0.0)))),
    ):
        with pytest.raises(SpaceMismatchError) as info:
            DiscreteMeasure(space, ((point, 1),))
        assert str(info.value) == f"coordinate {c!r} is not finite"


@pytest.mark.parametrize("kind", FLOAT_TYPES, ids=IDS)
def test_finite_values_are_accepted(kind):
    half = kind(0.5)
    atoms = ((EuclideanPoint((half, kind(0))), half), (EuclideanPoint((0, 1)), half))
    mu = DiscreteMeasure(Euclidean(2), atoms)
    nu = DiscreteMeasure(Euclidean(2), ((EuclideanPoint((half, kind(1))), 1),))
    result = solve_wasserstein(mu, nu, p=2)
    assert result.certified and result.powered_cost == 0.625 and result.cost == 0.625 ** 0.5
