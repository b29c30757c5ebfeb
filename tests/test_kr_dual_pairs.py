"""``kr_dual(independent=True)`` costs each unordered pair of points once.

Its LP bounds f(y) - f(z) and f(z) - f(y) by d(y, z) and d(z, y). Those are
bit-equal on every space kind, exact and float (checked here first), so one
``space.distance`` call per unordered pair serves both constraints. The LP
HiGHS is handed, and so its values and dual value, must be those of one call
per ordered pair, which ``_reference_b_ub`` makes.
"""

import math
from fractions import Fraction

import pytest
import scipy.optimize

from otlab import (
    DiscreteMeasure,
    DomainError,
    Euclidean,
    EuclideanPoint,
    Finite,
    Interval,
    IntervalPoint,
    Product,
    ProductPoint,
    kr_dual,
    make_rng,
    random_finite_space,
    random_measure,
)
from otlab.solver import _union_support

SPACES = {
    "interval": Interval(1),
    "snowflake": Interval(Fraction(1, 2)),
    "snowflake-float": Interval(0.3),
    "E1": Euclidean(1),
    "E2": Euclidean(2),
    "E3": Euclidean(3),
    "finite": random_finite_space(make_rng(271), 20),
    "finite-exact": random_finite_space(make_rng(271), 20, exact=True),
    "plane": Product(0.5, 2, Euclidean(2)),
    "city": Product(1, 1, Interval(1)),
    "product-q3": Product(Fraction(1, 3), 3, Euclidean(2)),
    "product-finite": Product(0.5, 2, random_finite_space(make_rng(277), 12)),
}
# windows where a square or a power falls below the normal floats and the
# distance is rescaled, and where it is beyond the float range
WINDOWS = (1e-160, 1e-7, 1.0, 1e5, 1e160, 1e200)


def _pairs(name, exact):
    space = SPACES[name]
    rng = make_rng((281, sorted(SPACES).index(name), exact))
    windows = (1.0,) if exact or isinstance(space, (Interval, Finite)) else WINDOWS
    for window in windows:
        for m, n in ((1, 3), (4, 4), (6, 3)):
            yield random_measure(rng, space, m, exact=exact, window=window), random_measure(
                rng, space, n, exact=exact, window=window
            )


@pytest.mark.parametrize("exact", (True, False), ids=("exact", "float"))
@pytest.mark.parametrize("name", sorted(SPACES))
def test_distance_is_bit_symmetric(name, exact):
    space = SPACES[name]
    checked = 0
    for mu, nu in _pairs(name, exact):
        points = _union_support(mu, nu)
        for y in points:
            for z in points:
                there, back = space.distance(y, z), space.distance(z, y)
                assert (type(there), repr(there)) == (type(back), repr(back)), (y, z)
                checked += 1
    assert checked > 0


def test_distance_is_bit_symmetric_between_exact_and_float_coordinates():
    # one exact and one float coordinate per difference: the Fraction is
    # rounded to a float before the subtraction, whichever side it is on
    points = {
        Interval(1): [IntervalPoint(Fraction(1, 3)), IntervalPoint(0.7), IntervalPoint(1)],
        Euclidean(2): [
            EuclideanPoint((Fraction(1, 3), 0.25)),
            EuclideanPoint((0.1, Fraction(-7, 5))),
            EuclideanPoint((2, 1e-170)),
        ],
        Product(0.5, 2, Euclidean(1)): [
            ProductPoint(Fraction(1, 7), EuclideanPoint((0.3,))),
            ProductPoint(0.9, EuclideanPoint((Fraction(2, 3),))),
        ],
    }
    for space, pts in points.items():
        for y in pts:
            for z in pts:
                there, back = space.distance(y, z), space.distance(z, y)
                assert (type(there), repr(there)) == (type(back), repr(back))


def _reference_b_ub(space, points):
    """The LP's scaled bounds from one ``space.distance`` call per ordered pair."""
    rhs = [
        float(space.distance(y, z))
        for i, y in enumerate(points)
        for j, z in enumerate(points)
        if i != j
    ]
    e = math.frexp(max(rhs))[1]
    return [math.ldexp(d, -e) for d in rhs], e


def _seeded_pairs():
    rng = make_rng(283)
    for name in ("interval", "E2", "plane", "finite", "finite-exact", "product-finite"):
        space = SPACES[name]
        for exact in (False, True):
            for m, n in ((2, 3), (5, 4), (7, 7)):
                if exact and name in ("finite", "product-finite"):
                    continue  # float entries: exact masses only change the masses
                mu = random_measure(rng, space, m, exact=exact)
                nu = random_measure(rng, space, n, exact=exact)
                yield space, mu, nu


def test_lp_is_unchanged_and_distance_calls_are_halved(monkeypatch):
    seen = []
    real_linprog = scipy.optimize.linprog

    def recording_linprog(c, **kwargs):
        seen.append((c, kwargs))
        return real_linprog(c, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", recording_linprog)
    solved = 0
    for space, mu, nu in _seeded_pairs():
        points = _union_support(mu, nu)
        N = len(points)
        b_ub, e = _reference_b_ub(space, points)
        calls = []
        kind = type(space)
        distance = kind.distance
        with monkeypatch.context() as patch:
            patch.setattr(kind, "distance", lambda self, y, z: calls.append(1) or distance(self, y, z))
            dual = kr_dual(mu, nu, independent=True)
        assert len(calls) == N * (N - 1) // 2
        c, kwargs = seen.pop()
        assert [x.hex() for x in kwargs["b_ub"]] == [x.hex() for x in b_ub]
        # the same LP from the reference bounds gives the same values and dual value
        res = real_linprog(c, **{**kwargs, "b_ub": b_ub})
        assert [v for _, v in dual.assignments] == [math.ldexp(float(x), e) for x in res.x]
        assert dual.value == math.ldexp(float(-c @ res.x), e)
        solved += 1
    assert solved > 20


def test_a_single_distance_beyond_the_float_range_is_still_refused():
    # the far pair is met once, from whichever end comes first
    space = Euclidean(1)
    mu = DiscreteMeasure(space, ((EuclideanPoint((-1e308,)), 0.5), (EuclideanPoint((0.0,)), 0.5)))
    nu = DiscreteMeasure(space, ((EuclideanPoint((1e308,)), 1.0),))
    with pytest.raises(DomainError, match="beyond the float range"):
        kr_dual(mu, nu, independent=True)
