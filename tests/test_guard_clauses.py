"""Guard clauses and fallbacks that no other test runs.

Each test drives one refusal, or one quiet fallback, through the function
that holds it: malformed step CDFs and finite spaces, points and measures off
their space, empty or impossible sampling requests, malformed couplings, the
campaign helpers' parameter checks, and two postconditions that only a
broken solver or metric could violate, shown here with a small stand-in.
"""

import math
import types
from fractions import Fraction

import pytest

from otlab import (
    Coupling,
    CouplingError,
    DiscreteMeasure,
    DomainError,
    Euclidean,
    EuclideanPoint,
    Finite,
    FinitePoint,
    Interval,
    IntervalIsometry,
    IntervalPoint,
    InvalidSpaceError,
    InvariantError,
    ParseError,
    Product,
    ProductPoint,
    SpaceMismatchError,
    StepCDF,
    SubProbabilityMeasure,
    build_geodesic_extension,
    cdf,
    convex_combine,
    disintegrate,
    flip,
    flip_coupling,
    geodesic_speed_check,
    is_fiber_injective,
    load_measure,
    make_rng,
    measures_close,
    metric_segment,
    random_finite_space,
    random_masses,
    random_measure,
    random_point,
    ratio_set_scan,
    reflect,
    segment_is_trivial,
    triangle_defect,
    validate_coupling,
)
from otlab import campaign, powered_distance, rigidity
from otlab._numbers import root
from otlab.measure import _point_tokens

HALF = Fraction(1, 2)
LINE = Euclidean(1)


def _on_line(*xs):
    return DiscreteMeasure(LINE, tuple((EuclideanPoint((x,)), Fraction(1, len(xs))) for x in xs))


def _on_interval(*ts):
    return DiscreteMeasure(Interval(1), tuple((IntervalPoint(t), Fraction(1, len(ts))) for t in ts))


# ---------------------------------------------------------------------------
# isometry


def test_an_unknown_transform_name_is_refused():
    with pytest.raises(DomainError, match=r"^unknown transform 'rotate'$"):
        IntervalIsometry.from_name("rotate")


@pytest.mark.parametrize(
    "breakpoints, values, message",
    [
        ((), (), "breakpoints and values must be nonempty and aligned"),
        ((HALF,), (HALF, 1), "breakpoints and values must be nonempty and aligned"),
        ((Fraction(3, 2),), (1,), "breakpoint Fraction(3, 2) outside [0, 1]"),
        ((HALF, HALF), (HALF, 1), "breakpoints must be strictly increasing"),
        ((0, HALF), (HALF, HALF), "values must be strictly increasing from 0"),
        ((0,), (0,), "values must be strictly increasing from 0"),
    ],
)
def test_a_malformed_step_cdf_is_refused(breakpoints, values, message):
    with pytest.raises(DomainError) as info:
        StepCDF(breakpoints, values)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "fn, message",
    [
        (cdf, "cdf needs a measure on the interval"),
        (flip, "flip needs a measure on the interval"),
        (reflect, "reflect needs a measure on the interval"),
        (is_fiber_injective, "fiber injectivity concerns product-space measures"),
    ],
)
def test_a_measure_off_its_transform_space_is_refused(fn, message):
    with pytest.raises(SpaceMismatchError) as info:
        fn(_on_line(0, 1))
    assert str(info.value) == message


def test_flip_coupling_refuses_a_plan_off_a_product():
    mu = _on_interval(0, 1)
    plan = Coupling(mu.space, mu.support, mu.support, ((HALF, 0), (0, HALF)))
    with pytest.raises(SpaceMismatchError, match=r"^flip_coupling needs a product-space plan$"):
        flip_coupling(plan)


# ---------------------------------------------------------------------------
# metric


def test_a_point_of_another_kind_is_refused():
    with pytest.raises(SpaceMismatchError, match=r"^expected EuclideanPoint, got IntervalPoint$"):
        LINE.validate_point(IntervalPoint(0))
    space = Finite(((0, 1), (1, 0)))
    with pytest.raises(SpaceMismatchError, match=r"^expected FinitePoint, got EuclideanPoint$"):
        space.validate_point(EuclideanPoint((0,)))
    with pytest.raises(SpaceMismatchError, match=r"^index 2 outside 0\.\.1$"):
        space.validate_point(FinitePoint(2))


@pytest.mark.parametrize(
    "matrix, message",
    [
        ((), "finite space needs at least one point"),
        (((0,) * 257,) * 257, "finite space capped at 256 points, got 257"),
        (((0, 1), (1,)), "row 1 has length 1, expected 2"),
        (((0, 1), (1, 2)), "nonzero diagonal entry at (1, 1)"),
        (((0, 0), (0, 0)), "off-diagonal entry at (0, 1) must be positive"),
    ],
)
def test_a_malformed_finite_space_is_refused(matrix, message):
    with pytest.raises(InvalidSpaceError) as info:
        Finite(matrix)
    assert str(info.value) == message


def test_a_nested_product_is_refused():
    with pytest.raises(InvalidSpaceError, match=r"^nested product spaces are not supported$"):
        Product(HALF, 2, Product(HALF, 2, LINE))


def test_an_exact_distance_beyond_the_float_range_meets_a_float_one():
    # 10**400 + inf overflows the int's conversion: the defect is refused, not raised raw
    a, b, c = EuclideanPoint((0,)), EuclideanPoint((10**400,)), EuclideanPoint((0.5,))
    assert type(LINE.distance(a, b)) is int and LINE.distance(b, c) == math.inf
    with pytest.raises(DomainError, match=r"^a distance is beyond the float range$"):
        triangle_defect(LINE, a, b, c)


def test_metric_segment_needs_candidates():
    a, b = EuclideanPoint((0,)), EuclideanPoint((1,))
    with pytest.raises(DomainError, match=r"^metric_segment needs a nonempty candidate list$"):
        metric_segment(LINE, a, b, [])


def test_a_segment_from_a_point_to_itself_is_not_certified():
    space = Product(HALF, 2, LINE)
    y = ProductPoint(0, EuclideanPoint((0,)))
    assert segment_is_trivial(space, y, y) is False
    assert segment_is_trivial(space, y, ProductPoint(HALF, EuclideanPoint((0,)))) is True


# ---------------------------------------------------------------------------
# sampling


@pytest.mark.parametrize(
    "draw, message",
    [
        (lambda rng: random_masses(rng, 0), "need at least one mass"),
        (lambda rng: random_masses(rng, 5, exact=True, denominator=4), "denominator 4 too small for 5 parts"),
        (lambda rng: random_point(rng, LINE, window=(2, 1)), "empty sampling window [2, 1]"),
        (lambda rng: random_point(rng, LINE, window=-1.0), "empty sampling window [1.0, -1.0]"),
        (lambda rng: random_point(rng, "plane"), "unsupported space 'plane'"),
        (lambda rng: random_measure(rng, LINE, 0), "need at least one atom"),
        (
            lambda rng: random_measure(rng, LINE, 2, distinct_fibers=True),
            "distinct fibers only make sense on a product space",
        ),
        (lambda rng: random_finite_space(rng, 0), "need at least one point"),
        (lambda rng: random_finite_space(rng, 50), "grid of span 6 cannot hold 50 distinct points"),
    ],
)
def test_an_impossible_draw_is_refused(draw, message):
    with pytest.raises(DomainError) as info:
        draw(make_rng(1))
    assert str(info.value) == message


def test_too_many_distinct_points_of_a_small_space_are_refused():
    space = Finite(((0, 1), (1, 0)))
    with pytest.raises(DomainError, match=r"^could not sample enough distinct points$"):
        random_measure(make_rng(1), space, 3)


# ---------------------------------------------------------------------------
# measure


def test_a_sub_probability_measure_has_a_support_and_refuses_to_normalize_nothing():
    part = SubProbabilityMeasure(LINE, ((EuclideanPoint((1,)), HALF), (EuclideanPoint((0,)), Fraction(1, 4))))
    assert part.support == (EuclideanPoint((0,)), EuclideanPoint((1,)))
    with pytest.raises(DomainError, match=r"^cannot normalize the null measure$"):
        SubProbabilityMeasure(LINE, ()).normalized()


def test_measures_on_two_spaces_do_not_mix():
    mu, nu = _on_line(0, 1), _on_interval(0, 1)
    with pytest.raises(SpaceMismatchError, match=r"^measures live on different spaces$"):
        convex_combine(HALF, mu, nu)
    assert measures_close(mu, nu) is False


def test_disintegration_needs_a_product():
    with pytest.raises(SpaceMismatchError, match=r"^disintegration needs a product-space measure$"):
        disintegrate(_on_line(0, 1))


def test_a_space_of_no_known_kind_has_no_file_format(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("space s\n1 0\n", encoding="utf-8")
    with pytest.raises(ParseError) as info:
        load_measure(str(path), "plane")
    assert str(info.value) == f"{path}:2: unsupported space kind"
    with pytest.raises(TypeError, match=r"^unknown point type tuple$"):
        _point_tokens((0, 1))


# ---------------------------------------------------------------------------
# solver


def test_a_malformed_coupling_is_refused():
    mu = _on_line(0, 1)
    with pytest.raises(CouplingError, match=r"^weight matrix is not 2 x 2$"):
        Coupling(LINE, mu.support, mu.support, ((HALF, 0),))
    with pytest.raises(CouplingError, match=r"^negative coupling weight Fraction\(-1, 2\)$"):
        Coupling(LINE, mu.support, mu.support, ((1, -HALF), (0, HALF)))


def test_a_coupling_of_other_measures_is_refused():
    mu, nu = _on_line(0, 1), _on_line(0, 2)
    plan = Coupling(LINE, mu.support, mu.support, ((HALF, 0), (0, HALF)))
    with pytest.raises(SpaceMismatchError, match=r"^coupling and measures must share one space$"):
        validate_coupling(plan, _on_interval(0, 1), _on_interval(0, 1))
    with pytest.raises(CouplingError, match=r"^coupling supports do not match the measure supports$"):
        validate_coupling(plan, mu, nu)


# ---------------------------------------------------------------------------
# rigidity and campaign helpers


@pytest.mark.parametrize("lam", (0, 1, Fraction(3, 2)))
def test_a_ratio_outside_the_open_unit_interval_is_refused(lam):
    with pytest.raises(DomainError) as info:
        ratio_set_scan(_on_line(0), _on_line(1), lam, [])
    assert str(info.value) == f"lambda {lam!r} must lie strictly between 0 and 1"


@pytest.mark.parametrize(
    "alpha, q, message",
    [
        (1, 2, "the trivial-segment certificate needs alpha < 1"),
        (HALF, 1, "the trivial-segment certificate needs q > 1"),
    ],
)
def test_alpha_form_pair_needs_a_certified_trivial_segment(alpha, q, message):
    with pytest.raises(DomainError) as info:
        campaign.alpha_form_pair(make_rng(1), alpha, q)
    assert str(info.value) == message


def test_a_dual_bound_above_the_solved_distance_is_an_invariant_error(monkeypatch):
    # a stand-in solver that reports every distance as 0
    space = Product(1, 1, Interval(1))
    y = ProductPoint(Fraction(0), IntervalPoint(Fraction(0)))
    y_prime = ProductPoint(Fraction(1), IntervalPoint(Fraction(1)))
    eta = DiscreteMeasure(space, ((ProductPoint(HALF, IntervalPoint(HALF)), 1),))
    ext = build_geodesic_extension(space, eta, y, y_prime, HALF)
    monkeypatch.setattr(rigidity, "solve_wasserstein", lambda mu, nu, p=1: types.SimpleNamespace(cost=0))
    with pytest.raises(InvariantError, match=r"^dual lower bound exceeds the solved distance$"):
        geodesic_speed_check(ext, [(Fraction(0), Fraction(1))])


def test_metric_axioms_fails_a_triangle_that_does_not_close(monkeypatch):
    # squared distances on the line break the triangle inequality whenever
    # the middle point falls between the other two
    monkeypatch.setattr(campaign, "distance", lambda space, a, b: powered_distance(space, a, b, 2))
    report = campaign.run_suite("metric-axioms", seed=5, trials=12, space=LINE, window=1.0)
    failed = [t for t in report.trials if not t.passed]
    assert failed and all(t.residual > 0 and t.note == "" for t in failed)


def test_the_root_of_float_dust_below_zero_is_zero():
    assert root(-1e-18, 2) == 0.0 and root(-1e-18, 3) == 0.0
