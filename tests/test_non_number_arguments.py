"""A cost exponent or a cycle budget that does not compare with numbers is refused with a DomainError.

A str, None, a complex or a list as ``p`` made the rule's comparison raise a
bare TypeError at each of the four entry points that take p; as ``budget`` of
``check_cyclical_monotonicity`` it did the same. Each is now refused by name.
Every value that compares keeps its behaviour: numpy scalars, Fractions and
Decimals as p, and a float budget.
"""

from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from otlab import BudgetError, DiscreteMeasure, DomainError, Interval, IntervalPoint, solve_wasserstein
from otlab.solver import check_cyclical_monotonicity

from test_exponent_rule import KINDS, entry_points

NOT_NUMBERS = ["2", None, 1j, [2], b"2"]
NOT_NUMBER_IDS = ["str", "None", "complex", "list", "bytes"]


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("kind", KINDS)
def test_an_exponent_that_is_not_a_number_is_refused_everywhere(kind, exact):
    for name, call in entry_points(kind, exact).items():
        for p in NOT_NUMBERS:
            with pytest.raises(DomainError) as info:
                call(p)
            assert str(info.value) == f"cost exponent p={p!r} is not a number", name


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("kind", KINDS)
def test_exponents_that_compare_keep_their_behaviour(kind, exact):
    for name, call in entry_points(kind, exact).items():
        for p, plain in ((np.float64(2), 2.0), (np.int64(2), 2), (Decimal(2), 2), (Fraction(3, 2), 1.5)):
            assert call(p) == call(plain), (name, p)


def _plan():
    # two atoms each way on the interval; the optimal plan has two cells
    h = Fraction(1, 2)
    mu = DiscreteMeasure(Interval(1), ((IntervalPoint(Fraction(0)), h), (IntervalPoint(h), h)))
    nu = DiscreteMeasure(Interval(1), ((IntervalPoint(Fraction(1, 4)), h), (IntervalPoint(Fraction(1)), h)))
    return solve_wasserstein(mu, nu, p=1).coupling


@pytest.mark.parametrize("budget", NOT_NUMBERS, ids=NOT_NUMBER_IDS)
def test_a_budget_that_is_not_a_number_is_refused(budget):
    with pytest.raises(DomainError) as info:
        check_cyclical_monotonicity(_plan(), budget=budget)
    assert str(info.value) == f"budget must be a number, got {budget!r}"


def test_budgets_that_compare_keep_their_behaviour():
    # two cells: 2 ** 3 = 8 cycles' worth, within 8.5 and beyond 7.5
    plan = _plan()
    want = check_cyclical_monotonicity(plan)
    for budget in (8.5, 8, np.int64(8), np.float32(8.5), Fraction(17, 2), Decimal(8)):
        assert check_cyclical_monotonicity(plan, budget=budget) == want
    for budget in (7.5, 7, np.float64(7.5)):
        with pytest.raises(BudgetError, match=f"^2 support pairs \\*\\* 3 exceeds budget {budget}$"):
            check_cyclical_monotonicity(plan, budget=budget)
