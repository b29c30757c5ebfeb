"""One exact-or-tolerance rule for every mass, marginal and cost check.

An exact value (int or Fraction) is compared exactly, a float within the
check's tolerance (``otlab._numbers.tolerance``). Each check is tested at its
edges in both arithmetics: an exact total 1e-12 off is refused, a float total
inside the tolerance is accepted and one beyond it is refused. A comparison
between two exact values stays exact when other inputs of the same check are
floats.
"""

import dataclasses
from fractions import Fraction

import pytest

from otlab import (
    Coupling,
    CouplingError,
    DEFAULT_TOL,
    DiscreteMeasure,
    DomainError,
    Euclidean,
    EuclideanPoint,
    Interval,
    IntervalPoint,
    InvalidMeasureError,
    InvariantError,
    StepCDF,
    SubProbabilityMeasure,
    check_cyclical_monotonicity,
    solve_wasserstein,
    split_transport,
    validate_coupling,
)
from otlab import rigidity
from otlab._numbers import tolerance

LINE = Interval(1)
TINY = Fraction(1, 10**12)  # far inside DEFAULT_TOL, far from 0
INSIDE = DEFAULT_TOL / 2
BEYOND = DEFAULT_TOL * 2


def points(*ts):
    return tuple(IntervalPoint(t) for t in ts)


def test_tolerance_is_zero_exactly_on_exact_values():
    assert tolerance(Fraction(1, 3)) == 0 and tolerance(7) == 0 and tolerance(True) == 0
    assert tolerance(0.5) == DEFAULT_TOL and tolerance(0.5, 1e-3) == 1e-3
    assert tolerance(Fraction(1, 3), 1e-3) == 0
    assert tolerance(Fraction(1, 2) + 0.5) == DEFAULT_TOL  # a sum with a float term is a float


# (second mass, accepted): the first mass is 1/2 or 0.5 in the same arithmetic
MASS_EDGES = [
    (Fraction(1, 2) - TINY, False),
    (Fraction(1, 2) + TINY, False),
    (Fraction(1, 2), True),
    (0.5 - INSIDE, True),
    (0.5 + INSIDE, True),
    (0.5 - BEYOND, False),
    (0.5 + BEYOND, False),
]


@pytest.mark.parametrize("second, accepted", MASS_EDGES)
def test_probability_measure_total(second, accepted):
    first = Fraction(1, 2) if isinstance(second, Fraction) else 0.5
    atoms = tuple(zip(points(0, 1), (first, second)))
    if accepted:
        DiscreteMeasure(LINE, atoms)
    else:
        with pytest.raises(InvalidMeasureError, match="expected 1 within"):
            DiscreteMeasure(LINE, atoms)


@pytest.mark.parametrize("second, accepted", MASS_EDGES)
def test_coupling_total(second, accepted):
    first = Fraction(1, 2) if isinstance(second, Fraction) else 0.5
    cells = ((first,), (second,))
    if accepted:
        Coupling(LINE, points(0, 1), points(1), cells)
    else:
        with pytest.raises(CouplingError, match="differs from 1 beyond"):
            Coupling(LINE, points(0, 1), points(1), cells)


@pytest.mark.parametrize(
    "second, accepted",
    [
        (Fraction(1, 2) + TINY, False),
        (Fraction(1, 2), True),
        (Fraction(1, 2) - TINY, True),
        (0.5 + INSIDE, True),
        (0.5 + BEYOND, False),
    ],
)
def test_sub_probability_total(second, accepted):
    first = Fraction(1, 2) if isinstance(second, Fraction) else 0.5
    atoms = tuple(zip(points(0, 1), (first, second)))
    if accepted:
        SubProbabilityMeasure(LINE, atoms)
    else:
        with pytest.raises(InvalidMeasureError, match="exceeds 1"):
            SubProbabilityMeasure(LINE, atoms)


@pytest.mark.parametrize("second, accepted", MASS_EDGES)
def test_step_cdf_terminal_value(second, accepted):
    first = Fraction(1, 2) if isinstance(second, Fraction) else 0.5
    values = (first, first + second)
    if accepted:
        StepCDF((Fraction(1, 4), Fraction(3, 4)), values)
    else:
        with pytest.raises(DomainError, match="must be 1 within"):
            StepCDF((Fraction(1, 4), Fraction(3, 4)), values)


def test_step_cdf_compares_an_exact_terminal_value_exactly_after_float_steps():
    StepCDF((0.25, 0.75), (0.5, 1))
    with pytest.raises(DomainError, match="must be 1 within 0"):
        StepCDF((0.25, 0.75), (0.5, 1 - TINY))


@pytest.mark.parametrize("second, accepted", MASS_EDGES)
def test_validate_coupling_marginals(second, accepted):
    exact = isinstance(second, Fraction)
    half = Fraction(1, 2) if exact else 0.5
    mu = DiscreteMeasure(LINE, tuple(zip(points(0, 1), (half, half))))
    nu = DiscreteMeasure(LINE, ((IntervalPoint(1), 1 if exact else 1.0),))
    # the plan's total is 1 + (second - half), inside the coupling's own check
    # only where that check would pass; build it without that check
    plan = Coupling._solved(LINE, mu.support, nu.support, ((half,), (second,)))
    if accepted:
        validate_coupling(plan, mu, nu)
    else:
        with pytest.raises(CouplingError, match="marginal"):
            validate_coupling(plan, mu, nu)


def test_validate_coupling_compares_exact_marginals_exactly_beside_float_masses():
    half = Fraction(1, 2)
    mu = DiscreteMeasure(LINE, tuple(zip(points(0, 1), (half + TINY, half - TINY))))
    nu = DiscreteMeasure(LINE, tuple(zip(points(0, 1), (0.5, 0.5))))
    plan = Coupling(LINE, mu.support, nu.support, ((half, 0), (0, half)))
    # the columns hold exact sums against float masses: within tol, they pass;
    # the rows hold exact sums against exact masses 1e-12 away: refused
    with pytest.raises(CouplingError, match="row marginal 1/2 differs from mass"):
        validate_coupling(plan, mu, nu)
    nu_exact = DiscreteMeasure(LINE, tuple(zip(points(0, 1), (half, half))))
    mu_float = DiscreteMeasure(LINE, tuple(zip(points(0, 1), (0.5 + INSIDE, 0.5 - INSIDE))))
    validate_coupling(plan, mu_float, nu_exact)


def _split_with_offset(monkeypatch, mu, nu, offset):
    """split_transport with ``offset`` added to the cost of each of its two part solves."""
    calls = []

    def solve(*args, **kwargs):
        result = solve_wasserstein(*args, **kwargs)
        calls.append(result)
        if len(calls) > 1:
            result = dataclasses.replace(result, cost=result.cost + offset)
        return result

    monkeypatch.setattr(rigidity, "solve_wasserstein", solve)
    return split_transport(mu, nu, mu.support[:1])


@pytest.mark.parametrize(
    "exact, offset, accepted",
    [
        (True, 0, True),
        (True, TINY, False),
        (False, 0.5e-8, True),  # the split check allows max(tol, 1e-8)
        (False, 2e-8, False),
    ],
)
def test_split_transport_residual(monkeypatch, exact, offset, accepted):
    one = Fraction(1) if exact else 1.0
    mu = DiscreteMeasure(LINE, tuple(zip(points(0, Fraction(1, 2)), (one / 4, 3 * one / 4))))
    nu = DiscreteMeasure(LINE, tuple(zip(points(Fraction(1, 4), 1), (one / 2, one / 2))))
    if accepted:
        _split_with_offset(monkeypatch, mu, nu, offset)
    else:
        with pytest.raises(InvariantError, match="split additivity failed"):
            _split_with_offset(monkeypatch, mu, nu, offset)


def _crossing_plan(space, ys, zs):
    """The plan sending ys[0] -> zs[1] and ys[1] -> zs[0], half each."""
    half = Fraction(1, 2)
    return Coupling(space, ys, zs, ((0, half), (half, 0)))


def test_monotonicity_finds_an_exact_improvement_below_tol():
    # crossing costs (1/2 + e)^2 + (1/2 - e)^2, the sorted plan 2 * (1/4): an
    # exact gain of 2e^2 = 2e-24, far below tol
    e = TINY
    plan = _crossing_plan(LINE, points(0, e), points(Fraction(1, 2), Fraction(1, 2) + e))
    report = check_cyclical_monotonicity(plan, p=2)
    assert not report.ok
    assert report.witness == ((IntervalPoint(0), IntervalPoint(Fraction(1, 2) + e)),
                              (IntervalPoint(e), IntervalPoint(Fraction(1, 2))))
    # the same plan in floats keeps the tolerance: the gain is rounding dust
    floats = _crossing_plan(LINE, points(0.0, 1e-12), points(0.5, 0.5 + 1e-12))
    assert check_cyclical_monotonicity(floats, p=2).ok


def test_monotonicity_on_exact_costs_beyond_the_float_range():
    big = 10**200
    space = Euclidean(1)
    ys = (EuclideanPoint((0,)), EuclideanPoint((big,)))
    zs = (EuclideanPoint((2 * big,)), EuclideanPoint((3 * big,)))
    report = check_cyclical_monotonicity(_crossing_plan(space, ys, zs), p=2)
    assert not report.ok and len(report.witness) == 2
    sorted_plan = Coupling(space, ys, zs, ((Fraction(1, 2), 0), (0, Fraction(1, 2))))
    assert check_cyclical_monotonicity(sorted_plan, p=2).ok
