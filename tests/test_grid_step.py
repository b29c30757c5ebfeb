"""The mixture grid's step must divide 1, or the grid is refused with a DomainError naming it.

A step that does not divide 1 cannot reach a + b = 1 on the grid: the
candidates it built would carry a total mass other than 1. It is refused up
front, before any candidate is built, while steps that divide 1 give the
grid of multiples they always gave.
"""

import re
from fractions import Fraction

import pytest

from otlab import (
    DiscreteMeasure,
    DomainError,
    Interval,
    IntervalPoint,
    Product,
    ProductPoint,
    convex_combine,
    detect_dirac_pair_form,
    dirac_pair_mixture_candidates,
)

SPACE = Product(Fraction(1, 2), 2, Interval(1))
Y = ProductPoint(Fraction(0), IntervalPoint(Fraction(0)))
Y_PRIME = ProductPoint(Fraction(1), IntervalPoint(Fraction(1)))
ETA_POINT = ProductPoint(Fraction(1, 2), IntervalPoint(Fraction(1, 2)))


def shared_remainder_form():
    eta = DiscreteMeasure(SPACE, ((ETA_POINT, 1),))
    mu = convex_combine(Fraction(1, 2), eta, DiscreteMeasure(SPACE, ((Y, 1),)))
    nu = convex_combine(Fraction(1, 2), eta, DiscreteMeasure(SPACE, ((Y_PRIME, 1),)))
    form = detect_dirac_pair_form(mu, nu)
    assert form is not None
    return form


@pytest.mark.parametrize("step", [0.3, 0.4, 0.6, 0.25 * (1 + 1e-6), Fraction(2, 7)])
def test_a_step_that_does_not_divide_one_is_refused_by_name(step):
    with pytest.raises(DomainError, match=f"^{re.escape(f'grid step {step!r}')} does not divide 1$"):
        dirac_pair_mixture_candidates(shared_remainder_form(), SPACE, step=step)


@pytest.mark.parametrize("step, n", [(0.25, 4), (0.5, 2), (0.05, 20)])
def test_a_step_that_divides_one_gives_its_grid_and_a_near_miss_does_not(step, n):
    form = shared_remainder_form()
    want = []
    for i in range(n + 1):
        for j in range(n + 1 - i):
            a, b = i * step, j * step
            atoms = [(Y, a)] * bool(i) + [(Y_PRIME, b)] * bool(j)
            if i + j != n:
                atoms.append((ETA_POINT, 1 - a - b))
            want.append(DiscreteMeasure(SPACE, tuple(atoms)).atoms)
    got = dirac_pair_mixture_candidates(form, SPACE, step=step)
    assert [cand.atoms for cand in got] == want
    assert all(cand.space is SPACE for cand in got)
    with pytest.raises(DomainError, match="does not divide 1"):
        dirac_pair_mixture_candidates(form, SPACE, step=step + 1e-6)
