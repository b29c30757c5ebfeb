"""Non-finite inputs and costs beyond the float range give typed errors.

A NaN mass, a non-finite coordinate or distance, a file number that
overflows a float, and a cost d**p beyond the float range are each refused
with an error the command line maps to exit code 2, never a NaN, an inf or
a raw ``OverflowError``.
"""

import warnings
from fractions import Fraction

import pytest

from otlab import (
    DiscreteMeasure,
    Euclidean,
    EuclideanPoint,
    Finite,
    Interval,
    IntervalPoint,
    Product,
    ProductPoint,
    SubProbabilityMeasure,
    load_measure,
    solve_wasserstein,
)
from otlab.cli import EXIT_USAGE, entry
from otlab.errors import (
    DomainError,
    InvalidMeasureError,
    InvalidSpaceError,
    ParseError,
    SpaceMismatchError,
)

NAN = float("nan")
INF = float("inf")
PLANE = Product(0.5, 2, Euclidean(2))
PLANE_ARGS = ("--space", "product", "--alpha", "0.5", "--q", "2", "--base", "euclidean", "--dim", "2")


def test_nan_mass_is_refused_by_both_measure_kinds():
    atoms = ((IntervalPoint(0.25), NAN), (IntervalPoint(0.5), 1.0))
    with pytest.raises(InvalidMeasureError, match="not a number"):
        DiscreteMeasure(Interval(1), atoms)
    with pytest.raises(InvalidMeasureError, match="not a number"):
        SubProbabilityMeasure(Interval(1), atoms[:1])


@pytest.mark.parametrize("bad", [NAN, INF, -INF])
def test_non_finite_euclidean_coordinate_is_not_a_point(bad):
    with pytest.raises(SpaceMismatchError, match="not finite"):
        Euclidean(2).validate_point(EuclideanPoint((0.0, bad)))
    with pytest.raises(SpaceMismatchError):
        DiscreteMeasure(PLANE, ((ProductPoint(0.5, EuclideanPoint((bad, 0.0))), 1.0),))


def test_exact_euclidean_coordinates_of_any_size_stay_points():
    Euclidean(2).validate_point(EuclideanPoint((10**400, Fraction(-1, 3))))


def test_infinite_finite_space_entry_is_refused():
    with pytest.raises(InvalidSpaceError, match="not finite"):
        Finite(((0.0, INF), (INF, 0.0)))


def test_file_number_beyond_the_float_range_is_a_parse_error(measure_file):
    path = measure_file(["1 0.5 1e400 0"])
    with pytest.raises(ParseError, match="beyond the float range") as err:
        load_measure(path, PLANE)
    assert (err.value.line, err.value.column) == (2, 3)
    # read exactly, the same number is an int
    mu, _ = load_measure(path, PLANE, exact=True)
    assert mu.support[0].x.coords[0] == 10**400


def test_cli_exits_2_on_a_number_beyond_the_float_range(measure_file, capsys):
    mu = measure_file(["1 0.5 1e400 0"])
    nu = measure_file(["1 0.5 0 0"])
    assert entry(["dist", mu, nu, *PLANE_ARGS]) == EXIT_USAGE
    assert "beyond the float range" in capsys.readouterr().err


def _far_pair(big, neg_big, half):
    mu = DiscreteMeasure(
        PLANE,
        (
            (ProductPoint(0, EuclideanPoint((big, 0 * big))), half),
            (ProductPoint(1, EuclideanPoint((0 * big, 0 * big))), half),
        ),
    )
    nu = DiscreteMeasure(PLANE, ((ProductPoint(half, EuclideanPoint((neg_big, 0 * big))), 2 * half),))
    return mu, nu


@pytest.mark.parametrize("p", [1, 2, 3])
def test_float_cost_beyond_the_float_range_is_a_domain_error(p):
    mu, nu = _far_pair(1e200, -1e200, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="beyond the float range"):
            solve_wasserstein(mu, nu, p=p)


def test_broadcast_cost_matrix_checks_every_cell():
    space = Euclidean(2)
    rows = [EuclideanPoint((0.0, 0.0)), EuclideanPoint((1e200, 0.0))]
    cols = [EuclideanPoint((-1e200, 0.0))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            space.cost_matrix(rows, cols, 2)
        # a square of 1e300 is still a float
        near = [EuclideanPoint((-1e150, 0.0)), rows[0]]
        want = [[space.powered_distance(rows[0], z, 1) for z in near]]
        assert space.cost_matrix(rows[:1], near, 1) == want


@pytest.mark.parametrize("p", [1, 1.5])
def test_euclidean_distance_whose_square_overflows_is_kept(p):
    # the squares of these differences overflow, the distances do not; the
    # scalar code and the broadcast scale them alike, bit for bit
    space = Euclidean(2)
    far = EuclideanPoint((-1e200, 0.0))
    assert space.distance(EuclideanPoint((0.0, 0.0)), far) == 1e200
    rows = [EuclideanPoint((0.0, 0.0)), EuclideanPoint((3e200, 4e200)), EuclideanPoint((1.5, -2.0))]
    cols = [far, EuclideanPoint((0.0, 0.0)), EuclideanPoint((-1e150, 1e150))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        costs = space.cost_matrix(rows, cols, p)
        assert costs == [[space.powered_distance(y, z, p) for z in cols] for y in rows]
        assert costs[1][1] == pytest.approx(5e200 ** float(p), rel=1e-15)
        assert costs[0][0] == 1e200 ** float(p)
        city = Product(1, 1, space)
        points = [ProductPoint(0.5, y) for y in rows]
        assert city.cost_matrix(points, points[::-1], p) == [
            [city.powered_distance(y, z, p) for z in points[::-1]] for y in points
        ]
        for origin, point in (((0.0, 0.0), far.coords), ((0, 0), (-(10**200), 0))):
            # exact coordinates take the same route once their square is a float
            mu = DiscreteMeasure(space, ((EuclideanPoint(origin), 1),))
            nu = DiscreteMeasure(space, ((EuclideanPoint(point), 1),))
            assert space.distance(mu.support[0], nu.support[0]) == 1e200
            result = solve_wasserstein(mu, nu, p=p)
            assert result.cost == pytest.approx(1e200, rel=1e-12) and result.certified


def test_euclidean_power_of_a_scaled_distance_beyond_the_float_range_is_a_domain_error():
    mu = DiscreteMeasure(Euclidean(2), ((EuclideanPoint((0.0, 0.0)), 1.0),))
    nu = DiscreteMeasure(Euclidean(2), ((EuclideanPoint((-1e200, 0.0)), 1.0),))
    with pytest.raises(DomainError, match="beyond the float range"):
        solve_wasserstein(mu, nu, p=3)


@pytest.mark.parametrize("p", [1, 2])
def test_exact_cost_whose_root_overflows_is_a_domain_error(p):
    mu, nu = _far_pair(10**200, -(10**200), Fraction(1, 2))
    with pytest.raises(DomainError, match="beyond the float range"):
        solve_wasserstein(mu, nu, p=p)


def test_cli_exits_2_on_costs_beyond_the_float_range(measure_file, capsys):
    mu = measure_file(["0.5 0 1e200 0", "0.5 1 0 0"])
    nu = measure_file(["1 0.5 -1e200 0"])
    for mode in ("float", "rational"):
        assert entry(["dist", mu, nu, *PLANE_ARGS, "--order", "2", "--mode", mode]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "beyond the float range" in err and "Traceback" not in err
