"""Non-finite inputs and costs beyond the float range give typed errors.

A NaN mass, a non-finite coordinate or distance, a file number that
overflows a float, and a cost d**p beyond the float range are each refused
with an error the command line maps to exit code 2, never a NaN, an inf or
a raw ``OverflowError``.
"""

import math
import warnings
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
    SubProbabilityMeasure,
    load_finite_space,
    load_measure,
    solve_wasserstein,
)
from otlab.cli import EXIT_INVARIANT, EXIT_USAGE, entry
from otlab.metric import distance, metric_segment, powered_distance, triangle_defect
from otlab.solver import Coupling, coupling_cost
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


def test_exact_entry_beyond_the_float_range_in_a_mixed_finite_space_is_refused():
    big = 10**400
    for far in (big, Fraction(big, 3)):
        with pytest.raises(InvalidSpaceError, match=r"^entry at \(0, 2\) is beyond the float range$"):
            Finite(((0, 1e300, far), (1e300, 0, far), (far, far, 0)))
    # all exact, the same distances are compared exactly
    assert Finite(((0, 10**300, big), (10**300, 0, big), (big, big, 0))).size == 3


def test_finite_space_file_entry_beyond_the_float_range_is_a_parse_error(tmp_path):
    # a file's entries are all floats or, with exact=True, all exact: the
    # float reading refuses the far entry where it is parsed
    path = tmp_path / "far.txt"
    path.write_text("3\n0 1e300 1e400\n1e300 0 1e400\n1e400 1e400 0\n", encoding="utf-8")
    with pytest.raises(ParseError, match="beyond the float range") as err:
        load_finite_space(str(path))
    assert (err.value.line, err.value.column) == (2, 3)
    assert load_finite_space(str(path), exact=True).matrix[0][2] == 10**400


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
    # at p = 1 the cost is the distance, which the product rescales while it
    # fits a float, so that case takes a pair whose distance (2e308) does not
    mu, nu = _far_pair(1e308, -1e308, 0.5) if p == 1 else _far_pair(1e200, -1e200, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="beyond the float range"):
            solve_wasserstein(mu, nu, p=p)


def _broadcast_alike(space, rows, cols, p):
    """The per-cell matrix, once the numpy broadcast is checked to give it bit for bit.

    ``cost_matrix`` broadcasts only a matrix of more than ``_PER_CELL_MAX``
    cells, so these small matrices reach the broadcast through ``_float_costs``.
    """
    want = [[space.powered_distance(y, z, p) for z in cols] for y in rows]
    costs = space._float_costs(rows, cols, p)
    assert costs is not None
    assert [[c.hex() for c in row] for row in costs.tolist()] == [[c.hex() for c in row] for row in want]
    return want


def test_broadcast_cost_matrix_checks_every_cell():
    space = Euclidean(2)
    rows = [EuclideanPoint((0.0, 0.0)), EuclideanPoint((1e200, 0.0))]
    cols = [EuclideanPoint((-1e200, 0.0))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            space.cost_matrix(rows, cols, 2)
        assert _broadcast_alike(space, rows, cols, 2)[1] == [INF]
        # a square of 1e300 is still a float
        near = [EuclideanPoint((-1e150, 0.0)), rows[0]]
        assert space.cost_matrix(rows[:1], near, 1) == _broadcast_alike(space, rows[:1], near, 1)


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
        assert costs == _broadcast_alike(space, rows, cols, p)
        assert costs[1][1] == pytest.approx(5e200 ** float(p), rel=1e-15)
        assert costs[0][0] == 1e200 ** float(p)
        city = Product(1, 1, space)
        points = [ProductPoint(0.5, y) for y in rows]
        assert city.cost_matrix(points, points[::-1], p) == _broadcast_alike(city, points, points[::-1], p)
        for origin, point in (((0.0, 0.0), far.coords), ((0, 0), (-(10**200), 0))):
            # exact coordinates take the same route once their square is a float
            mu = DiscreteMeasure(space, ((EuclideanPoint(origin), 1),))
            nu = DiscreteMeasure(space, ((EuclideanPoint(point), 1),))
            assert space.distance(mu.support[0], nu.support[0]) == 1e200
            result = solve_wasserstein(mu, nu, p=p)
            assert result.cost == pytest.approx(1e200, rel=1e-12) and result.certified


TINY = EuclideanPoint((3e-170, 4e-170))  # 5e-170 from the origin, whose square underflows to 0
SUBNORMAL = EuclideanPoint((1e-155, -1e-155))  # its square from the origin is a subnormal


@pytest.mark.parametrize("p", [1, 1.5])
def test_euclidean_distance_whose_square_underflows_is_kept(p):
    # the squares of these differences fall below the normal floats, to 0 or
    # to a subnormal with few digits left; the distances do not. The scalar
    # code and the broadcast scale them alike, bit for bit
    space = Euclidean(2)
    origin = EuclideanPoint((0.0, 0.0))
    assert space.distance(origin, TINY) == pytest.approx(5e-170, rel=1e-15, abs=0)
    assert space.distance(SUBNORMAL, origin) == pytest.approx(2**0.5 * 1e-155, rel=1e-15, abs=0)
    rows = [origin, TINY, SUBNORMAL, EuclideanPoint((1.5, -2.0))]
    cols = [TINY, origin, EuclideanPoint((1.5, -2.0)), SUBNORMAL, origin]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        costs = space.cost_matrix(rows, cols, p)
        assert costs == _broadcast_alike(space, rows, cols, p)
        assert costs[0][0] == costs[1][1] == pytest.approx(5e-170 ** float(p), rel=1e-14, abs=0)
        assert costs[0][3] == pytest.approx((2**0.5 * 1e-155) ** float(p), rel=1e-14, abs=0)
        assert costs[0][1] == costs[1][0] == 0.0  # equal points stay at 0
        city = Product(1, 1, space)
        points = [ProductPoint(0.5, y) for y in rows]
        city_costs = city.cost_matrix(points, points[::-1], p)
        assert city_costs == _broadcast_alike(city, points, points[::-1], p)
        assert city_costs[1][3] == pytest.approx(costs[1][1], rel=1e-14, abs=0)
        assert city_costs[2][3] == pytest.approx(costs[0][3], rel=1e-14, abs=0)


def test_w1_between_diracs_closer_than_a_normal_square_is_not_zero():
    space = Euclidean(2)
    exact_tiny = (Fraction(3, 10**170), Fraction(4, 10**170))
    for origin, point in (((0.0, 0.0), TINY.coords), ((0, 0), exact_tiny)):
        mu = DiscreteMeasure(space, ((EuclideanPoint(origin), 1),))
        nu = DiscreteMeasure(space, ((EuclideanPoint(point), 1),))
        result = solve_wasserstein(mu, nu, p=1)
        assert result.cost == pytest.approx(5e-170, rel=1e-15, abs=0) and result.certified
        assert space.distance(mu.support[0], nu.support[0]) == result.cost
    # at an even p the cost is the square itself, and it underflows as
    # 2.5e-339 does; an exact difference below every float is 0.0 too
    assert space.powered_distance(EuclideanPoint((0.0, 0.0)), TINY, 2) == 0.0
    below = EuclideanPoint((Fraction(1, 10**400), 0))
    assert space.distance(EuclideanPoint((0, 0)), below) == 0.0
    assert space.powered_distance(EuclideanPoint((0, 0)), below, 1) == 0.0


def test_euclidean_power_of_a_scaled_distance_beyond_the_float_range_is_a_domain_error():
    mu = DiscreteMeasure(Euclidean(2), ((EuclideanPoint((0.0, 0.0)), 1.0),))
    nu = DiscreteMeasure(Euclidean(2), ((EuclideanPoint((-1e200, 0.0)), 1.0),))
    with pytest.raises(DomainError, match="beyond the float range"):
        solve_wasserstein(mu, nu, p=3)


@pytest.mark.parametrize("p", [1, 2])
def test_exact_cost_whose_root_overflows_is_a_domain_error(p):
    # as above, the p = 1 pair is one whose distance is beyond the floats
    big = 10**308 if p == 1 else 10**200
    mu, nu = _far_pair(big, -big, Fraction(1, 2))
    with pytest.raises(DomainError, match="beyond the float range"):
        solve_wasserstein(mu, nu, p=p)


def test_cli_exits_2_on_costs_beyond_the_float_range(measure_file, capsys):
    mu = measure_file(["0.5 0 1e200 0", "0.5 1 0 0"])
    nu = measure_file(["1 0.5 -1e200 0"])
    for mode in ("float", "rational"):
        assert entry(["dist", mu, nu, *PLANE_ARGS, "--order", "2", "--mode", mode]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "beyond the float range" in err and "Traceback" not in err


@pytest.mark.parametrize("p", [1, 1.5, 3])
def test_product_distance_whose_sum_underflows_is_kept(p):
    # at q = 2 the product adds |dt| and the base's square before its root;
    # where that sum falls below the normal floats while the points differ,
    # the scalar code and the broadcast rescale the distance alike, bit for bit
    origin = ProductPoint(0.5, EuclideanPoint((0.0, 0.0)))
    tiny = ProductPoint(0.5, TINY)
    near = ProductPoint(0.5, SUBNORMAL)
    far = ProductPoint(0.75, EuclideanPoint((1.5, -2.0)))
    assert PLANE.distance(origin, tiny) == pytest.approx(5e-170, rel=1e-15, abs=0)
    assert PLANE.distance(near, origin) == pytest.approx(2**0.5 * 1e-155, rel=1e-15, abs=0)
    rows = [origin, tiny, near, far]
    cols = [tiny, origin, far, near, origin]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        costs = PLANE.cost_matrix(rows, cols, p)
        assert costs == _broadcast_alike(PLANE, rows, cols, p)
    assert costs[0][0] == costs[1][1] == pytest.approx(5e-170 ** float(p), rel=1e-14, abs=0)
    assert costs[0][1] == costs[1][0] == 0.0  # equal points stay at 0
    # a cell whose sum is a normal float keeps the root of that sum
    assert costs[0][2] == math.sqrt(PLANE.powered_distance(origin, far, 2)) ** float(p)
    # at p = q the cost is the sum itself, which underflows as 2.5e-339 does
    assert PLANE.powered_distance(origin, tiny, 2) == 0.0


def test_w1_between_product_diracs_closer_than_a_normal_sum_is_not_zero():
    exact_tiny = EuclideanPoint((Fraction(3, 10**170), Fraction(4, 10**170)))
    for t, origin, point in ((0.5, (0.0, 0.0), TINY), (Fraction(1, 2), (0, 0), exact_tiny)):
        mu = DiscreteMeasure(PLANE, ((ProductPoint(t, EuclideanPoint(origin)), 1),))
        nu = DiscreteMeasure(PLANE, ((ProductPoint(t, point), 1),))
        result = solve_wasserstein(mu, nu, p=1)
        assert result.cost == pytest.approx(5e-170, rel=1e-15, abs=0) and result.certified
        assert PLANE.distance(mu.support[0], nu.support[0]) == result.cost
    # at q = 3 over an interval base, where fiber and base are both tiny
    space = Product(Fraction(1, 2), 3, Interval(1))
    a, b = ProductPoint(0.0, IntervalPoint(0.0)), ProductPoint(1e-210, IntervalPoint(1e-105))
    assert space.distance(a, b) == pytest.approx(2 ** (1 / 3) * 1e-105, rel=1e-15, abs=0)
    # differences below every float give 0.0
    below = ProductPoint(Fraction(1, 2), EuclideanPoint((Fraction(1, 10**400), 0)))
    assert PLANE.distance(ProductPoint(Fraction(1, 2), EuclideanPoint((0, 0))), below) == 0.0


@pytest.mark.parametrize("p", [1, 1.5])
def test_w1_between_product_points_whose_sum_overflows_is_kept(p):
    # the far pair's sums |dt| + d_X**2 overflow, its distances (2e200 and
    # 1e200) do not; float and exact coordinates give the same certified W_p
    want = (0.5 * 2e200 ** float(p) + 0.5 * 1e200 ** float(p)) ** (1 / float(p))
    for args in ((1e200, -1e200, 0.5), (10**200, -(10**200), Fraction(1, 2))):
        mu, nu = _far_pair(*args)
        far, near = mu.support
        assert PLANE.distance(far, nu.support[0]) == 2e200
        assert PLANE.distance(near, nu.support[0]) == 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = solve_wasserstein(mu, nu, p=p)
        assert result.cost == pytest.approx(want, rel=1e-12) and result.certified
        assert result.arithmetic == "float"


@pytest.mark.parametrize("p", [1, 1.5])
@pytest.mark.parametrize("q", [2, 3])
def test_product_broadcast_rescues_the_cells_whose_sum_overflows(p, q):
    # the broadcast flags the overflowed sums and takes the scalar code on
    # them, bit for bit; every other cell keeps the root of its sum
    space = Product(0.5, q, Euclidean(2))
    origin = ProductPoint(0.5, EuclideanPoint((0.0, 0.0)))
    far = ProductPoint(0.25, EuclideanPoint((3e200, 4e200)))
    unit = ProductPoint(0.75, EuclideanPoint((1.5, -2.0)))
    rows, cols = [origin, far, unit], [far, unit, origin]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        costs = space.cost_matrix(rows, cols, p)
        assert costs == _broadcast_alike(space, rows, cols, p)
    assert costs[0][0] == pytest.approx(5e200 ** float(p), rel=1e-14, abs=0)
    assert costs[2][1] == 0.0
    normal = space.powered_distance(origin, unit, q)
    assert costs[0][1] == (normal ** (1 / q) if q != 2 else math.sqrt(normal)) ** float(p)
    # at p = q the cost is the sum itself, beyond the float range
    with pytest.raises(DomainError, match="beyond the float range"):
        space.cost_matrix(rows, cols, q)
    assert _broadcast_alike(space, rows, cols, q)[0][0] == INF


@pytest.mark.parametrize(
    "base, x, y",
    [
        (Euclidean(1), EuclideanPoint((1e200,)), EuclideanPoint((-1e200,))),
        (Finite(((0.0, 2e200), (2e200, 0.0))), FinitePoint(0), FinitePoint(1)),
    ],
)
def test_product_over_a_base_whose_float_power_overflows_is_kept(base, x, y):
    # a float ** of these base distances raises rather than giving inf; the
    # matrix then takes the scalar code, which rescales the distance
    space = Product(1, 2, base)
    a, b = ProductPoint(0.0, x), ProductPoint(1.0, y)
    assert space.distance(a, b) == 2e200
    assert space.cost_matrix([a, b], [b, a], 1) == [[2e200, 0.0], [0.0, 2e200]]
    with pytest.raises(DomainError, match="beyond the float range"):
        space.cost_matrix([a, b], [b, a], 2)


def test_product_distance_beyond_the_float_range_stays_refused():
    # where the distance itself is beyond the floats there is nothing to
    # rescue: inf from float coordinates, a DomainError from exact ones
    space = Product(Fraction(1, 2), 2, Euclidean(2))
    a = ProductPoint(0.5, EuclideanPoint((1.5e308, 0.0)))
    b = ProductPoint(0.5, EuclideanPoint((-1.5e308, 0.0)))
    assert space.distance(a, b) == INF
    with pytest.raises(DomainError, match="beyond the float range"):
        space.cost_matrix([a], [b], 1)
    exact_a = ProductPoint(0, EuclideanPoint((10**400, 0)))
    exact_b = ProductPoint(0, EuclideanPoint((0, 0)))
    with pytest.raises(DomainError, match="beyond the float range"):
        space.distance(exact_a, exact_b)


@pytest.mark.parametrize("dim", [2, 3])
def test_exact_euclidean_distance_beyond_the_float_range_is_a_domain_error(dim):
    # the scaled form turns the difference 10**400 into inf, so the distance
    # falls through to the root of its square, which refuses it
    space = Euclidean(dim)
    origin = EuclideanPoint((0,) * dim)
    far = EuclideanPoint((0,) * (dim - 1) + (10**400,))
    with pytest.raises(DomainError, match="beyond the float range"):
        distance(space, far, origin)
    with pytest.raises(DomainError, match="beyond the float range"):
        triangle_defect(space, origin, far, origin)
    with pytest.raises(DomainError, match="beyond the float range"):
        metric_segment(space, origin, far, [origin, far])

    # so is a product distance over such a base, whatever q: at q = 3 the
    # base's cube is beyond the floats too, and the distance is no inf
    space = Product(Fraction(1, 2), 3, space)
    a, b = ProductPoint(0, origin), ProductPoint(0, far)
    for p in (1, 1.5):
        with pytest.raises(DomainError, match="beyond the float range"):
            space.cost_matrix([a], [b], p)
    with pytest.raises(DomainError, match="beyond the float range"):
        triangle_defect(space, a, b, a)


def test_exact_product_sum_just_below_the_normal_floats_is_kept_alike():
    # |dt| + |dx|**2 is 2**-1022 * (1 - 2**-12 + 2**-24) exactly, just below
    # the smallest normal float; the coordinates are floats too, and the float
    # sum is the same subnormal. The exact scalar code and the float broadcast
    # keep the same distance, the root of the exact sum to the last digits
    dt, dx = 2.0**-1034, 2.0**-511 * (1 - 2.0**-12)
    space = Product(Fraction(1, 2), 2, Euclidean(2))
    exact_a = ProductPoint(0, EuclideanPoint((0, 0)))
    exact_b = ProductPoint(Fraction(dt), EuclideanPoint((Fraction(dx), 0)))
    total = space.powered_distance(exact_a, exact_b, 2)
    assert total == Fraction(2**24 - 2**12 + 1, 2**1046)
    assert total < Fraction(2**-1022) and float(total) < 2.0**-1022
    kept = space.distance(exact_a, exact_b)
    want = math.sqrt(float(total * 2**1022)) * 2.0**-511  # the root, scaled to normal floats
    assert kept == pytest.approx(want, rel=1e-15, abs=0)
    float_a, float_b = ProductPoint(0.0, EuclideanPoint((0.0, 0.0))), ProductPoint(dt, EuclideanPoint((dx, 0.0)))
    assert space.powered_distance(float_a, float_b, 2) < 2.0**-1022
    for p in (1, 1.5):
        want_p = kept ** float(p)
        assert space.powered_distance(exact_a, exact_b, p) == want_p
        assert space.cost_matrix([exact_a, exact_b], [exact_b], p) == [[want_p], [0.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert space.cost_matrix([float_a, float_b], [float_b], p) == [[want_p], [0.0]]
            assert _broadcast_alike(space, [float_a, float_b], [float_b], p) == [[want_p], [0.0]]


# the scalar cost of each pair raises OverflowError inside the space: a float
# power beyond the float range, or an exact square too large for a float
SCALAR_OVERFLOWS = [
    (Euclidean(2), EuclideanPoint((10**400, 0)), EuclideanPoint((0, 0)), 1),
    (Euclidean(1), EuclideanPoint((1e200,)), EuclideanPoint((0.0,)), 3),
    (Finite(((0, 1e200), (1e200, 0))), FinitePoint(0), FinitePoint(1), 2),
]
OVERFLOW_IDS = ["exact-plane", "float-line", "finite"]


@pytest.mark.parametrize("space, a, b, p", SCALAR_OVERFLOWS, ids=OVERFLOW_IDS)
def test_powered_distance_beyond_the_float_range_raises_the_cost_matrix_error(space, a, b, p):
    with pytest.raises(DomainError) as by_matrix:
        space.cost_matrix([a], [b], p)
    with pytest.raises(DomainError) as by_pair:
        powered_distance(space, a, b, p)
    message = f"a cost d**p at p={p} is beyond the float range"
    assert str(by_pair.value) == str(by_matrix.value) == message


# a float square beyond the float range is inf, without an OverflowError
INF_SQUARE = (Euclidean(2), EuclideanPoint((1e200, 0.0)), EuclideanPoint((-1e200, 0.0)), 2)


@pytest.mark.parametrize(
    "space, a, b, p", SCALAR_OVERFLOWS + [INF_SQUARE], ids=OVERFLOW_IDS + ["inf-square"]
)
def test_coupling_cost_beyond_the_float_range_is_a_domain_error(space, a, b, p):
    plan = Coupling(space, (a,), (b,), ((1,),))
    with pytest.raises(DomainError, match=rf"a cost d\*\*p at p={p} is beyond the float range"):
        coupling_cost(plan, p)


def test_lifted_plan_costs_beyond_the_float_range_fail_every_trial(tmp_path, capsys):
    report, csv = tmp_path / "report.txt", tmp_path / "residuals.csv"
    args = ["verify", "pi-hat-cost", "--space", "product", "--q", "3", "--window", "1e200"]
    code = entry([*args, "--trials", "3", "--report", str(report), "--csv", str(csv)])
    assert code == EXIT_INVARIANT
    assert "Traceback" not in capsys.readouterr().err
    trials = [line for line in report.read_text().splitlines() if line.startswith("trial ")]
    assert len(trials) == 3
    note = "residual=inf FAIL note=DomainError: a cost d**p at p=3 is beyond the float range"
    assert all(line.endswith(note) for line in trials)
