"""Branches callers can reach that no other test runs.

Each test drives one refusal or shortcut through the public surface: a
repeated sample pair, the identity transform on a product file, a repeated
segment candidate, the cycle-search guards, a push-forward off the target
space, and a fiberwise map given as a callable.
"""

from fractions import Fraction

import pytest

from otlab import (
    BudgetError,
    Coupling,
    DiscreteMeasure,
    DomainError,
    Euclidean,
    EuclideanPoint,
    Interval,
    IntervalPoint,
    InvalidMeasureError,
    Product,
    ProductPoint,
    SpaceMismatchError,
    build_geodesic_extension,
    check_cyclical_monotonicity,
    fiber_flip,
    fiberwise,
    flip,
    geodesic_speed_check,
    metric_segment,
    push_forward,
)
from otlab.cli import EXIT_PASS, entry

HALF = Fraction(1, 2)


def test_speed_check_on_a_repeated_parameter_reports_zero_without_a_solve():
    space = Product(1, 1, Interval(1))
    y = ProductPoint(Fraction(0), IntervalPoint(Fraction(0)))
    y_prime = ProductPoint(Fraction(1), IntervalPoint(Fraction(1)))
    eta = DiscreteMeasure(space, ((ProductPoint(HALF, IntervalPoint(HALF)), 1),))
    ext = build_geodesic_extension(space, eta, y, y_prime, HALF)
    report = geodesic_speed_check(ext, [(Fraction(1, 4), Fraction(1, 4)), (Fraction(0), Fraction(1))])
    assert report.ok
    assert report.details[0] == (Fraction(1, 4), Fraction(1, 4), 0, 0, 0, 0)
    assert report.details[1][2] == 1


@pytest.mark.parametrize(
    "mode, atoms",
    [("float", ["0.5 0.2 0.5", "0.5 0.25 0.75"]), ("rational", ["1/2 1/5 1/2", "1/2 1/4 3/4"])],
)
def test_identity_transform_prints_a_product_file_back(mode, atoms, tmp_path, capsys):
    path = tmp_path / "p.txt"
    path.write_text("space product\n1/2 1/5 1/2\n1/2 0.25 0.75\n", encoding="utf-8")
    argv = ["transform", "id", str(path), "--space", "product", "--base", "interval", "--mode", mode]
    assert entry(argv) == EXIT_PASS
    assert capsys.readouterr().out.splitlines() == ["space product"] + atoms


def test_metric_segment_returns_a_repeated_candidate_once():
    line = Euclidean(1)
    a, w, b, off = (EuclideanPoint((x,)) for x in (0, HALF, 1, 2))
    assert metric_segment(line, a, b, [w, a, w, off, b, a]) == [w, a, b]


def _swapped_plan():
    line = Euclidean(1)
    points = tuple(EuclideanPoint((x,)) for x in (0, 1, 2))
    third = Fraction(1, 3)
    weights = ((0, third, 0), (third, 0, 0), (0, 0, third))
    return Coupling(line, points, points, weights)


def test_cycle_search_refuses_cycles_shorter_than_two():
    with pytest.raises(DomainError, match="max_cycle must be at least 2"):
        check_cyclical_monotonicity(_swapped_plan(), max_cycle=1)


def test_cycle_search_refuses_a_search_beyond_its_budget():
    plan = _swapped_plan()  # 3 cells, 3**3 = 27 ordered triples
    with pytest.raises(BudgetError, match=r"3 support pairs \*\* 3 exceeds budget 26"):
        check_cyclical_monotonicity(plan, max_cycle=3, budget=26)
    assert not check_cyclical_monotonicity(plan, max_cycle=3, budget=27).ok


def test_push_forward_refuses_an_image_outside_the_target_space():
    mu = DiscreteMeasure(Interval(1), ((IntervalPoint(HALF), 1),))
    with pytest.raises(SpaceMismatchError, match="not in target space"):
        push_forward(mu, lambda p: IntervalPoint(p.t + 1))
    with pytest.raises(SpaceMismatchError, match="not in target space"):
        push_forward(mu, lambda p: EuclideanPoint((p.t,)), target_space=Interval(1))


def _fibered():
    space = Product(HALF, 2, Euclidean(1))
    x = EuclideanPoint((Fraction(3),))
    atoms = ((ProductPoint(Fraction(1, 4), x), HALF), (ProductPoint(1, EuclideanPoint((0,))), HALF))
    return DiscreteMeasure(space, atoms)


def test_fiberwise_takes_a_callable_on_each_conditional():
    mu = _fibered()
    assert fiberwise(flip, mu) == fiber_flip(mu)
    assert fiberwise(lambda cond: cond, mu) == mu


@pytest.mark.parametrize(
    "phi",
    [lambda cond: cond.atoms, lambda cond: DiscreteMeasure(Euclidean(1), ((EuclideanPoint((0,)), 1),))],
    ids=["not-a-measure", "not-on-the-interval"],
)
def test_fiberwise_refuses_a_callable_whose_image_is_not_an_interval_measure(phi):
    with pytest.raises(InvalidMeasureError, match="fiber transform must return an interval measure"):
        fiberwise(phi, _fibered())
