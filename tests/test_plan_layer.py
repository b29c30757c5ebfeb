"""Public plan-layer and measure-layer paths pinned value for value.

* ``restrict_and_renormalize(..., side="col")`` on one exact and one float
  plan. The float plan is chosen so that summing the kept cells column by
  column would change the restricted mass in its last bit; the pinned bits
  are those of the row-major running sum.
* ``StepCDF.__call__``, ``Disintegration.conditional`` and
  ``DualPotential.at``, each with the error it raises off its domain.
"""

from fractions import Fraction

import pytest

from otlab import (
    Coupling,
    DiscreteMeasure,
    Euclidean,
    EuclideanPoint,
    Interval,
    IntervalPoint,
    Product,
    ProductPoint,
    StepCDF,
    disintegrate,
    kr_dual,
    restrict_and_renormalize,
    solve_wasserstein,
)
from otlab.errors import DomainError

POINTS = [IntervalPoint(Fraction(k, 8)) for k in range(7)]
ROWS, COLS = POINTS[:4], POINTS[4:]
# row 3 moves mass to column 1 only, so restricting to columns 0 and 2 drops it
FLOAT_WEIGHTS = (
    (0.0, 0.0, 0.3),
    (0.35, 0.05, 0.05),
    (0.15, 0.0, 0.0),
    (0.0, 0.1, 0.0),
)
EXACT_WEIGHTS = tuple(
    tuple(Fraction(w).limit_denominator(100) for w in row) for row in FLOAT_WEIGHTS
)


def test_column_restriction_of_an_exact_plan():
    plan = Coupling(Interval(1), ROWS, COLS, EXACT_WEIGHTS)
    lam, sub = restrict_and_renormalize(plan, [COLS[0], COLS[2]], side="col")
    assert lam == Fraction(17, 20)
    assert sub.row_points == tuple(ROWS[:3])
    assert sub.col_points == (COLS[0], COLS[2])
    F = Fraction
    assert sub.weights == ((0, F(6, 17)), (F(7, 17), F(1, 17)), (F(3, 17), 0))
    assert all(type(w) is Fraction for row in sub.weights for w in row)


def test_column_restriction_of_a_float_plan_sums_row_by_row():
    plan = Coupling(Interval(1), ROWS, COLS, FLOAT_WEIGHTS)
    lam, sub = restrict_and_renormalize(plan, [COLS[2], COLS[0]], side="col")
    # 0.3 + 0.35 + 0.05 + 0.15 in the plan's row-major order; down the
    # columns (0.35 + 0.15 + 0.3 + 0.05) it would end in ...334p-1
    assert lam.hex() == "0x1.b333333333333p-1"
    assert sub.row_points == tuple(ROWS[:3])
    assert sub.col_points == (COLS[0], COLS[2])
    assert [[w.hex() for w in row] for row in sub.weights] == [
        ["0x0.0p+0", "0x1.6969696969697p-2"],
        ["0x1.a5a5a5a5a5a5ap-2", "0x1.e1e1e1e1e1e1fp-5"],
        ["0x1.6969696969697p-3", "0x0.0p+0"],
    ]


@pytest.mark.parametrize("weights", [EXACT_WEIGHTS, FLOAT_WEIGHTS], ids=["exact", "float"])
def test_column_restriction_to_columns_without_mass_is_a_domain_error(weights):
    plan = Coupling(Interval(1), ROWS, COLS, weights)
    with pytest.raises(DomainError, match="zero mass"):
        restrict_and_renormalize(plan, [ROWS[0], IntervalPoint(Fraction(1, 3))], side="col")
    with pytest.raises(DomainError, match="side must be"):
        restrict_and_renormalize(plan, COLS, side="column")


@pytest.mark.parametrize("half", [Fraction(1, 2), 0.5], ids=["exact", "float"])
def test_step_cdf_is_right_continuous_and_zero_left_of_the_first_jump(half):
    F = StepCDF((Fraction(1, 4), Fraction(3, 4)), (half, 1))
    assert F(0) == 0
    assert F(Fraction(1, 5)) == 0
    assert F(Fraction(1, 4)) == half
    assert F(Fraction(1, 2)) == half
    assert F(Fraction(3, 4)) == 1
    assert F(1) == 1


def test_disintegration_conditional_is_the_fiber_measure():
    space = Product(1, 1, Interval(1))
    x0, x1 = IntervalPoint(Fraction(1, 3)), IntervalPoint(Fraction(2, 3))
    mu = DiscreteMeasure(
        space,
        (
            (ProductPoint(Fraction(1, 4), x0), Fraction(1, 4)),
            (ProductPoint(Fraction(3, 4), x0), Fraction(1, 4)),
            (ProductPoint(Fraction(1, 2), x1), Fraction(1, 2)),
        ),
    )
    dis = disintegrate(mu)
    half = Fraction(1, 2)
    assert dis.conditional(x0).atoms == (
        (IntervalPoint(Fraction(1, 4)), half),
        (IntervalPoint(Fraction(3, 4)), half),
    )
    assert dis.conditional(x1).atoms == ((IntervalPoint(half), 1),)
    with pytest.raises(DomainError, match="not in the marginal support"):
        dis.conditional(IntervalPoint(0))


@pytest.mark.parametrize("independent", [False, True], ids=["simplex", "independent-lp"])
def test_dual_potential_at_reads_the_assignments(independent):
    def line_measure(*atoms):
        return DiscreteMeasure(Euclidean(1), tuple((EuclideanPoint((x,)), m) for x, m in atoms))

    mu = line_measure((0, Fraction(1, 2)), (3, Fraction(1, 2)))
    nu = line_measure((1, Fraction(1, 4)), (5, Fraction(3, 4)))
    dual = kr_dual(mu, nu, independent=independent)
    for point, value in dual.assignments:
        assert dual.at(point) == value
    # the dual value is the integral of f against nu - mu, read through at()
    gap = sum(m * dual.at(z) for z, m in nu.atoms) - sum(m * dual.at(y) for y, m in mu.atoms)
    assert float(gap) == pytest.approx(float(solve_wasserstein(mu, nu, p=1).cost), abs=1e-9)
    with pytest.raises(DomainError, match="not in the potential's domain"):
        dual.at(EuclideanPoint((2,)))
