"""A measure's support, masses and mass units are computed once and reused.

Reusing a measure across solves must change no output, and a measure whose
caches are warm must be indistinguishable from a fresh one. The exact plan
holds a ``Fraction`` in every nonzero cell and an int ``0`` in every other.
"""

import dataclasses
import pickle
from fractions import Fraction

from otlab import (
    DiscreteMeasure,
    Euclidean,
    FinitePoint,
    Interval,
    IntervalPoint,
    Product,
    make_rng,
    random_measure,
    result_to_json,
    solve_wasserstein,
)
from otlab._numbers import integer_units
from otlab.solver import _joint_units
from otlab.campaign import five_point_tree_space


def _fresh(mu):
    return DiscreteMeasure(mu.space, mu.atoms)


def _pools():
    rng = make_rng(11)
    for space, p in (
        (five_point_tree_space(), 1),
        (Product(1, 1, Interval(1)), 1),
        (Product(Fraction(1, 2), 2, Euclidean(2)), 2),
    ):
        pool = [random_measure(rng, space, 1 + k % 4, exact=k % 2 == 0) for k in range(6)]
        yield pool, p


def _outputs(result):
    plan = result.coupling
    return (
        result_to_json(result),
        repr(plan.weights),
        repr(result.dual_potentials),
        repr(result.powered_cost),
        repr(result.cost),
        result.arithmetic,
    )


def test_reused_measures_solve_like_fresh_copies():
    for pool, p in _pools():
        pairs = [(mu, nu) for mu in pool for nu in pool]
        # every ordered pair twice, the second round after every measure was reused
        for _ in range(2):
            for mu, nu in pairs:
                got = _outputs(solve_wasserstein(mu, nu, p=p))
                assert got == _outputs(solve_wasserstein(_fresh(mu), _fresh(nu), p=p))


def test_warm_measure_is_indistinguishable_from_a_fresh_one():
    for pool, p in _pools():
        for mu in pool:
            solve_wasserstein(mu, mu, p=p)
            fresh = _fresh(mu)
            assert mu == fresh and hash(mu) == hash(fresh)
            assert repr(mu) == repr(fresh)
            assert pickle.dumps(mu) == pickle.dumps(fresh)
            back = pickle.loads(pickle.dumps(mu))
            assert back == mu and back.support == mu.support and back.masses == mu.masses
            assert back._mass_units == mu._mass_units


def test_replace_gives_a_measure_without_stale_caches():
    space = Interval(1)
    mu = DiscreteMeasure(space, ((IntervalPoint(0), Fraction(1, 4)), (IntervalPoint(1), Fraction(3, 4))))
    assert mu._mass_units == ((1, 3), 4)
    moved = dataclasses.replace(mu, atoms=((IntervalPoint(Fraction(1, 2)), 1),))
    assert moved.support == (IntervalPoint(Fraction(1, 2)),)
    assert moved.masses == (1,)
    assert moved._mass_units == ((1,), 1)
    assert mu.support == (IntervalPoint(0), IntervalPoint(1))


def test_float_measure_has_no_mass_units():
    mu = DiscreteMeasure(Interval(1), ((IntervalPoint(0.25), 0.5), (IntervalPoint(0.75), 0.5)))
    assert mu._mass_units is None


def test_exact_plan_cells_are_fractions_and_zero_cells_are_int_zero():
    space = five_point_tree_space()
    dirac = DiscreteMeasure(space, ((FinitePoint(0), 1),))
    other = DiscreteMeasure(space, ((FinitePoint(3), 1),))
    weights = solve_wasserstein(dirac, other, p=1).coupling.weights
    assert weights == ((Fraction(1),),)
    assert type(weights[0][0]) is Fraction
    pool = next(_pools())[0]
    seen_zero = False
    for mu in pool:
        for nu in pool:
            result = solve_wasserstein(mu, nu, p=1)
            if result.arithmetic != "exact":
                continue
            for row in result.coupling.weights:
                for w in row:
                    if w == 0:
                        assert type(w) is int
                        seen_zero = True
                    else:
                        assert type(w) is Fraction
    assert seen_zero


def test_combined_mass_units_match_the_joint_units():
    space = Interval(1)
    mu = DiscreteMeasure(space, ((IntervalPoint(0), Fraction(1, 8)), (IntervalPoint(1), Fraction(7, 8))))
    nu = DiscreteMeasure(
        space,
        (
            (IntervalPoint(Fraction(1, 4)), Fraction(1, 3)),
            (IntervalPoint(Fraction(1, 2)), Fraction(1, 6)),
            (IntervalPoint(Fraction(3, 4)), Fraction(1, 2)),
        ),
    )
    assert (mu._mass_units[1], nu._mass_units[1]) == (8, 6)
    joint, L = integer_units(list(mu.masses + nu.masses))
    assert L == 24
    for a, b in ((mu, nu), (nu, mu), (mu, mu)):
        a_units, b_units, L = _joint_units(a._mass_units, b._mass_units)
        assert (list(a_units) + list(b_units), L) == integer_units(list(a.masses + b.masses))
    result = solve_wasserstein(mu, nu, p=1)
    assert result.coupling.row_sums() == mu.masses
    assert result.coupling.col_sums() == nu.masses
    assert result.certified
