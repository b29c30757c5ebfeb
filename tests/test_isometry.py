"""Interval symmetries, the fiberwise lift, and the coupling lift."""

from fractions import Fraction

import pytest

from otlab import (
    DiscreteMeasure,
    EuclideanPoint,
    FiberCollisionError,
    IntervalIsometry,
    IntervalPoint,
    ProductPoint,
    apply_interval_isometry,
    cdf,
    coupling_cost,
    fiber_flip,
    fiberwise,
    flip,
    flip_coupling,
    flip_via_cdf,
    generalized_inverse,
    is_fiber_injective,
    make_rng,
    random_coupling,
    random_measure,
    reflect,
    solve_wasserstein,
    validate_coupling,
)

from oracles import quantile_flip


def dirac(space, t):
    return DiscreteMeasure(space, ((IntervalPoint(t), 1),))


@pytest.mark.parametrize("x", [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)])
def test_flip_splits_a_point_mass(unit_interval, x):
    image = flip(dirac(unit_interval, x))
    expected = {}
    if x > 0:
        expected[IntervalPoint(Fraction(0))] = x
    if x < 1:
        expected[IntervalPoint(Fraction(1))] = 1 - x
    assert image.as_dict() == expected


def test_flip_exchanges_endpoint_masses(unit_interval):
    assert flip(dirac(unit_interval, Fraction(0))).atoms == ((IntervalPoint(Fraction(1)), 1),)
    assert flip(dirac(unit_interval, Fraction(1))).atoms == ((IntervalPoint(Fraction(0)), 1),)


def test_flip_routes_and_oracle_agree_exact(unit_interval):
    rng = make_rng(101)
    for _ in range(100):
        mu = random_measure(rng, unit_interval, int(rng.integers(1, 9)), exact=True)
        closed = flip(mu)
        assert flip_via_cdf(mu).atoms == closed.atoms
        expected = quantile_flip((p.t, m) for p, m in mu.atoms)
        got = tuple((p.t, m) for p, m in closed.atoms)
        assert got == expected
        assert flip(closed).atoms == mu.atoms


def test_flip_routes_and_oracle_agree_float(unit_interval):
    rng = make_rng(103)
    for _ in range(100):
        mu = random_measure(rng, unit_interval, int(rng.integers(1, 9)))
        closed = flip(mu)
        assert flip_via_cdf(mu).atoms == closed.atoms
        expected = quantile_flip((p.t, m) for p, m in mu.atoms)
        got = tuple((p.t, m) for p, m in closed.atoms)
        assert len(got) == len(expected)
        for (gp, gm), (ep, em) in zip(got, expected):
            assert gp == pytest.approx(ep, abs=1e-12)
            assert gm == pytest.approx(em, abs=1e-12)


def test_reflect_mirrors_positions(unit_interval):
    mu = DiscreteMeasure(
        unit_interval,
        ((IntervalPoint(Fraction(1, 4)), Fraction(1, 3)), (IntervalPoint(Fraction(1)), Fraction(2, 3))),
    )
    image = reflect(mu)
    assert image.as_dict() == {
        IntervalPoint(Fraction(3, 4)): Fraction(1, 3),
        IntervalPoint(Fraction(0)): Fraction(2, 3),
    }
    assert reflect(image).atoms == mu.atoms


def test_four_symmetries_form_a_klein_group(unit_interval):
    rng = make_rng(107)
    mu = random_measure(rng, unit_interval, 6, exact=True)
    combo = apply_interval_isometry(IntervalIsometry.FLIP_REFLECT, mu)
    assert combo.atoms == reflect(flip(mu)).atoms
    for iso in IntervalIsometry:
        twice = apply_interval_isometry(iso, apply_interval_isometry(iso, mu))
        assert twice.atoms == mu.atoms


def test_flip_preserves_interval_distances(unit_interval):
    rng = make_rng(109)
    for _ in range(25):
        mu = random_measure(rng, unit_interval, int(rng.integers(1, 9)))
        nu = random_measure(rng, unit_interval, int(rng.integers(1, 9)))
        before = solve_wasserstein(mu, nu, p=1)
        after = solve_wasserstein(flip(mu), flip(nu), p=1)
        assert float(after.cost) == pytest.approx(float(before.cost), abs=1e-10)


def test_cdf_quantile_round_trip(unit_interval):
    mu = DiscreteMeasure(
        unit_interval,
        ((IntervalPoint(Fraction(1, 5)), Fraction(1, 2)), (IntervalPoint(Fraction(4, 5)), Fraction(1, 2))),
    )
    steps = cdf(mu)
    assert steps.to_measure(unit_interval).atoms == mu.atoms
    quantile = generalized_inverse(steps)
    assert quantile.to_measure(unit_interval).atoms == flip(mu).atoms


def test_fiber_flip_closed_form(snowflake_plane):
    x1 = EuclideanPoint((0.0, 0.0))
    x2 = EuclideanPoint((1.0, 1.0))
    mu = DiscreteMeasure(
        snowflake_plane,
        ((ProductPoint(0.25, x1), 0.5), (ProductPoint(0.75, x2), 0.5)),
    )
    assert is_fiber_injective(mu)
    image = fiber_flip(mu)
    assert image.as_dict() == {
        ProductPoint(0.0, x1): 0.5 * 0.25,
        ProductPoint(1.0, x1): 0.5 * 0.75,
        ProductPoint(0.0, x2): 0.5 * 0.75,
        ProductPoint(1.0, x2): 0.5 * 0.25,
    }
    assert fiber_flip(image).atoms == mu.atoms


def test_fiberwise_merges_shared_fibers(snowflake_plane):
    # two atoms over one base point form a single conditional; flipping the
    # merged conditional can land strictly inside the interval
    x = EuclideanPoint((2.0, 0.0))
    mu = DiscreteMeasure(
        snowflake_plane,
        ((ProductPoint(0.0, x), 0.5), (ProductPoint(1.0, x), 0.5)),
    )
    assert not is_fiber_injective(mu)
    image = fiberwise(IntervalIsometry.FLIP, mu)
    assert image.atoms == ((ProductPoint(0.5, x), 1.0),)


def test_coupling_lift_preserves_cost_and_marginals(snowflake_plane):
    rng = make_rng(113)
    for _ in range(30):
        mu = random_measure(rng, snowflake_plane, int(rng.integers(1, 7)), distinct_fibers=True)
        nu = random_measure(rng, snowflake_plane, int(rng.integers(1, 7)), distinct_fibers=True)
        pi = random_coupling(rng, mu, nu)
        lifted = flip_coupling(pi)
        q = snowflake_plane.q
        assert float(coupling_cost(lifted, q)) == pytest.approx(float(coupling_cost(pi, q)), abs=1e-10)
        validate_coupling(lifted, fiber_flip(mu), fiber_flip(nu), tol=1e-9)


def test_coupling_lift_requires_distinct_fibers(snowflake_plane):
    x = EuclideanPoint((0.0, 0.0))
    y = EuclideanPoint((1.0, 0.0))
    shared = DiscreteMeasure(
        snowflake_plane,
        ((ProductPoint(0.2, x), 0.5), (ProductPoint(0.8, x), 0.5)),
    )
    other = DiscreteMeasure(snowflake_plane, ((ProductPoint(0.5, y), 1.0),))
    pi = solve_wasserstein(shared, other, p=2).coupling
    with pytest.raises(FiberCollisionError):
        flip_coupling(pi)


def test_fiber_flip_is_cost_nonincreasing_but_not_isometric(city_block_square):
    # the coupling lift bounds the image distance by the original distance;
    # when one side's interval coordinates straddle the other's, rebalancing
    # across the two endpoint levels makes the image pair strictly cheaper
    mu = DiscreteMeasure(
        city_block_square,
        ((ProductPoint(Fraction(1, 2), IntervalPoint(Fraction(1, 2))), 1),),
    )
    nu = DiscreteMeasure(
        city_block_square,
        (
            (ProductPoint(Fraction(1, 10), IntervalPoint(Fraction(49, 100))), Fraction(1, 2)),
            (ProductPoint(Fraction(9, 10), IntervalPoint(Fraction(51, 100))), Fraction(1, 2)),
        ),
    )
    assert is_fiber_injective(mu) and is_fiber_injective(nu)
    before = solve_wasserstein(mu, nu, p=1)
    after = solve_wasserstein(fiber_flip(mu), fiber_flip(nu), p=1)
    assert before.certified and after.certified
    assert before.powered_cost == Fraction(41, 100)
    assert after.powered_cost == Fraction(1, 100)
    lifted = flip_coupling(before.coupling)
    assert coupling_cost(lifted, 1) == before.powered_cost


def test_flips_of_float_measures_have_float_ends(unit_interval, snowflake_plane, city_block_square):
    # all-float flips keep every cost on the float broadcast; exact ones stay exact
    rng = make_rng(29)
    for _ in range(20):
        mu = random_measure(rng, snowflake_plane, int(rng.integers(1, 9)), distinct_fibers=True)
        image = fiber_flip(mu)
        assert {type(p.t) for p in image.support} == {float}
        assert snowflake_plane._float_costs(image.support, image.support, 2) is not None
        line = flip(random_measure(rng, unit_interval, int(rng.integers(1, 9))))
        assert {type(p.t) for p in line.support} == {float}
    assert [type(p.t) for p in flip(dirac(unit_interval, Fraction(1, 4))).support] == [int, int]
    # disintegrate turns this int mass 1 into 1.0; the Fraction t keeps the ends int
    exact = DiscreteMeasure(
        city_block_square,
        ((ProductPoint(Fraction(1, 2), IntervalPoint(Fraction(1, 2))), 1),),
    )
    assert [type(p.t) for p in fiber_flip(exact).support] == [int, int]
