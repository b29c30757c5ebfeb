"""Ratio sets, plan splitting, and geodesic extensions."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from otlab import (
    DiscreteMeasure,
    DomainError,
    Euclidean,
    Interval,
    InvariantError,
    IntervalPoint,
    Product,
    ProductPoint,
    build_geodesic_extension,
    convex_combine,
    detect_dirac_pair_form,
    dirac_pair_mixture_candidates,
    extend_geodesic,
    geodesic_speed_check,
    ratio_set_membership,
    ratio_set_scan,
    split_transport,
)
from otlab.campaign import (
    alpha_form_pair,
    collinear_witness_pair,
    geodesic_instance,
    split_residual_witness_pair,
)
from otlab.errors import SpaceMismatchError
from otlab.rigidity import GeodesicExtension, induction_family_generator


def interval_dirac(t):
    return DiscreteMeasure(Interval(1), ((IntervalPoint(t), 1),))


class TestDiracPairForm:
    def test_detect_recovers_the_construction(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            mu, nu, eta, y, y_prime, c = alpha_form_pair(rng, alpha=0.5, q=2)
            form = detect_dirac_pair_form(mu, nu)
            assert form is not None
            assert form.y == y
            assert form.y_prime == y_prime
            assert form.c == pytest.approx(c, abs=1e-12)
            assert form.eta is not None
            got = dict(form.eta.atoms)
            for p, m in eta.atoms:
                assert got[p] == pytest.approx(m, abs=1e-12)
            # distinct t coordinates + strict snowflake: no interior points
            assert form.segment_trivial

    def test_equal_measures_are_rejected(self, unit_interval):
        mu = interval_dirac(0.5)
        with pytest.raises(DomainError):
            detect_dirac_pair_form(mu, mu)

    def test_two_atom_residuals_are_not_the_form(self, unit_interval):
        mu = DiscreteMeasure(
            unit_interval,
            ((IntervalPoint(Fraction(0)), Fraction(1, 2)), (IntervalPoint(Fraction(1, 2)), Fraction(1, 2))),
        )
        nu = DiscreteMeasure(
            unit_interval,
            ((IntervalPoint(Fraction(1, 4)), Fraction(1, 2)), (IntervalPoint(Fraction(3, 4)), Fraction(1, 2))),
        )
        assert detect_dirac_pair_form(mu, nu) is None

    def test_disjoint_diracs_detect_with_empty_remainder(self, unit_interval):
        form = detect_dirac_pair_form(interval_dirac(Fraction(0)), interval_dirac(Fraction(1)))
        assert form is not None
        assert form.eta is None
        assert form.c == 1


class TestRatioSetMembership:
    def test_convex_combination_is_always_a_member(self, unit_interval):
        mu = interval_dirac(Fraction(0))
        nu = interval_dirac(Fraction(1))
        combo = convex_combine(Fraction(1, 4), mu, nu)
        ok, (r1, r2) = ratio_set_membership(combo, mu, nu, Fraction(1, 4))
        assert ok
        assert r1 == 0 and r2 == 0

    def test_interval_midpoint_dirac_is_a_member_too(self, unit_interval):
        # the unit interval has interior points, so membership is not
        # restricted to mixtures of the endpoints
        mu = interval_dirac(Fraction(0))
        nu = interval_dirac(Fraction(1))
        ok, _ = ratio_set_membership(interval_dirac(Fraction(1, 4)), mu, nu, Fraction(1, 4))
        assert ok

    def test_off_segment_candidate_is_not_a_member(self, unit_interval):
        mu = interval_dirac(Fraction(0))
        nu = interval_dirac(Fraction(1))
        ok, (r1, r2) = ratio_set_membership(interval_dirac(Fraction(9, 10)), mu, nu, Fraction(1, 4))
        assert not ok
        assert r1 > 0

    @pytest.mark.parametrize("lam", [0, 1, Fraction(3, 2), -0.1])
    def test_lambda_must_be_interior(self, unit_interval, lam):
        mu = interval_dirac(Fraction(0))
        nu = interval_dirac(Fraction(1))
        with pytest.raises(DomainError):
            ratio_set_membership(mu, mu, nu, lam)


class TestRatioSetScan:
    @pytest.mark.parametrize("alpha", [0.5, 0.9])
    def test_snowflake_dirac_pair_scan_is_singleton(self, alpha):
        rng = np.random.default_rng(23)
        for _ in range(5):
            mu, nu, eta, y, y_prime, c = alpha_form_pair(rng, alpha=alpha, q=2)
            form = detect_dirac_pair_form(mu, nu)
            candidates = dirac_pair_mixture_candidates(form, mu.space, step=0.25)
            report = ratio_set_scan(mu, nu, 0.5, candidates, tol=1e-8)
            assert report.is_singleton
            assert report.convex_combination_included
            assert not report.has_non_convex_member
            assert report.candidates_checked >= len(candidates)

    def test_interval_endpoints_scan_is_not_singleton(self, unit_interval):
        mu = interval_dirac(Fraction(0))
        nu = interval_dirac(Fraction(1))
        candidates = [interval_dirac(Fraction(1, 2))]
        report = ratio_set_scan(mu, nu, Fraction(1, 2), candidates)
        assert not report.is_singleton
        assert report.convex_combination_included
        assert report.has_non_convex_member
        assert len(report.members) == 2

    def test_shared_fiber_coordinate_breaks_uniqueness(self):
        rng = np.random.default_rng(31)
        mu, nu, lam, xi = collinear_witness_pair(rng, exact=True)
        report = ratio_set_scan(mu, nu, lam, [xi], tol=1e-9)
        assert report.has_non_convex_member
        assert len(report.members) >= 2

    def test_split_residuals_break_uniqueness(self):
        rng = np.random.default_rng(37)
        mu, nu, lam, xi = split_residual_witness_pair(rng, exact=True)
        ok, (r1, r2) = ratio_set_membership(xi, mu, nu, lam)
        assert ok and r1 == 0 and r2 == 0
        report = ratio_set_scan(mu, nu, lam, [xi], tol=1e-9)
        assert report.has_non_convex_member

    def test_duplicate_candidates_are_checked_once(self, unit_interval):
        mu = interval_dirac(Fraction(0))
        nu = interval_dirac(Fraction(1))
        cand = interval_dirac(Fraction(1, 2))
        report = ratio_set_scan(mu, nu, Fraction(1, 2), [cand, cand, cand])
        # one deduplicated candidate plus the appended convex combination
        assert report.candidates_checked == 2


class TestMixtureCandidates:
    def make_form(self):
        space = Product(Fraction(1, 2), 2, Interval(1))
        y = ProductPoint(Fraction(0), IntervalPoint(Fraction(0)))
        y_prime = ProductPoint(Fraction(1), IntervalPoint(Fraction(1)))
        eta = DiscreteMeasure(space, ((ProductPoint(Fraction(1, 2), IntervalPoint(Fraction(1, 2))), 1),))
        mu = convex_combine(Fraction(1, 2), eta, DiscreteMeasure(space, ((y, 1),)))
        nu = convex_combine(Fraction(1, 2), eta, DiscreteMeasure(space, ((y_prime, 1),)))
        form = detect_dirac_pair_form(mu, nu)
        assert form is not None
        return form, space

    def test_grid_size_and_mass_closure(self):
        form, space = self.make_form()
        candidates = dirac_pair_mixture_candidates(form, space, step=0.5)
        # (a, b) over multiples of 1/2 with a + b <= 1, empty mixture dropped
        assert len(candidates) == 6
        for cand in candidates:
            assert cand.space is space
            assert sum(m for _, m in cand.atoms) == pytest.approx(1.0)

    def test_pure_dirac_form_restricts_to_the_edge(self, unit_interval):
        form = detect_dirac_pair_form(interval_dirac(Fraction(0)), interval_dirac(Fraction(1)))
        candidates = dirac_pair_mixture_candidates(form, unit_interval, step=0.5)
        # without a remainder only a + b == 1 rows are meaningful
        assert len(candidates) == 3

    def test_step_validation(self):
        form, space = self.make_form()
        with pytest.raises(DomainError):
            dirac_pair_mixture_candidates(form, space, step=0)
        with pytest.raises(DomainError):
            dirac_pair_mixture_candidates(form, space, step=1.5)


class TestSplitTransport:
    def build_pair(self, space):
        mu = DiscreteMeasure(
            space,
            (
                (IntervalPoint(Fraction(0)), Fraction(1, 4)),
                (IntervalPoint(Fraction(1, 2)), Fraction(1, 4)),
                (IntervalPoint(Fraction(1)), Fraction(1, 2)),
            ),
        )
        nu = DiscreteMeasure(
            space,
            (
                (IntervalPoint(Fraction(1, 4)), Fraction(1, 2)),
                (IntervalPoint(Fraction(3, 4)), Fraction(1, 2)),
            ),
        )
        return mu, nu

    def test_additivity_is_exact_in_rational_mode(self, unit_interval):
        mu, nu = self.build_pair(unit_interval)
        result = split_transport(mu, nu, [IntervalPoint(Fraction(0))])
        assert result.residual == 0
        assert result.lam == Fraction(1, 4)
        assert result.mu1.atoms == ((IntervalPoint(Fraction(0)), Fraction(1)),)
        total = result.lam * result.part1_cost + (1 - result.lam) * result.part2_cost
        assert total == result.total_cost

    def test_seeded_splits_stay_additive(self, snowflake_plane):
        from otlab.sampling import random_measure

        rng = np.random.default_rng(41)
        for _ in range(10):
            mu = random_measure(rng, snowflake_plane, n_atoms=5)
            nu = random_measure(rng, snowflake_plane, n_atoms=4)
            cut = list(mu.support[:2])
            result = split_transport(mu, nu, cut, tol=1e-9)
            assert abs(result.residual) <= 1e-8
            assert result.mu1.space is snowflake_plane

    def test_subset_must_cut_the_support(self, unit_interval):
        mu, nu = self.build_pair(unit_interval)
        with pytest.raises(DomainError):
            split_transport(mu, nu, [])
        with pytest.raises(DomainError):
            split_transport(mu, nu, list(mu.support))
        with pytest.raises(DomainError):
            split_transport(mu, nu, [IntervalPoint(Fraction(7, 8))])


class TestGeodesicExtension:
    def build(self):
        space = Product(1, 1, Interval(1))
        y = ProductPoint(Fraction(0), IntervalPoint(Fraction(0)))
        y_prime = ProductPoint(Fraction(1), IntervalPoint(Fraction(1)))
        eta = DiscreteMeasure(
            space, ((ProductPoint(Fraction(1, 2), IntervalPoint(Fraction(1, 2))), 1),)
        )
        return space, eta, y, y_prime

    def test_derived_speed_and_domain(self):
        space, eta, y, y_prime = self.build()
        ext = build_geodesic_extension(space, eta, y, y_prime, Fraction(1, 2))
        assert ext.v == 1
        assert ext.r == 1
        assert ext.domain_min == Fraction(-1, 2)
        assert ext.domain() == (Fraction(-1, 2), 1)

    def test_endpoint_and_branch_values(self):
        space, eta, y, y_prime = self.build()
        ext = build_geodesic_extension(space, eta, y, y_prime, Fraction(1, 2))
        # left endpoint collapses to the single atom at y, exactly
        assert extend_geodesic(ext, Fraction(-1, 2)).atoms == ((y, 1),)
        mid_left = extend_geodesic(ext, Fraction(-1, 4))
        assert dict(mid_left.atoms)[y] == Fraction(3, 4)
        at_zero = extend_geodesic(ext, 0)
        assert dict(at_zero.atoms)[y] == Fraction(1, 2)
        at_one = extend_geodesic(ext, 1)
        assert y not in dict(at_one.atoms)
        assert dict(at_one.atoms)[y_prime] == Fraction(1, 2)
        interior = extend_geodesic(ext, Fraction(1, 4))
        got = dict(interior.atoms)
        assert got[y] == Fraction(3, 8)
        assert got[y_prime] == Fraction(1, 8)

    def test_out_of_domain_parameters_raise(self):
        space, eta, y, y_prime = self.build()
        ext = build_geodesic_extension(space, eta, y, y_prime, Fraction(1, 2))
        with pytest.raises(DomainError):
            extend_geodesic(ext, Fraction(-3, 4))
        with pytest.raises(DomainError):
            extend_geodesic(ext, Fraction(5, 4))

    def test_speed_check_is_exact_on_rational_data(self):
        space, eta, y, y_prime = self.build()
        ext = build_geodesic_extension(space, eta, y, y_prime, Fraction(1, 2))
        pairs = [
            (Fraction(-1, 2), Fraction(-1, 4)),
            (Fraction(-1, 4), Fraction(0)),
            (Fraction(-1, 2), Fraction(1)),
            (Fraction(0), Fraction(1, 2)),
            (Fraction(1, 2), Fraction(1)),
        ]
        report = geodesic_speed_check(ext, pairs)
        assert report.ok
        assert report.worst_residual == 0
        for s1, s2, got, expected, residual, bound in report.details:
            assert got == expected == (s2 - s1) * ext.v
            assert bound <= got

    def test_speed_check_on_seeded_instances(self):
        rng = np.random.default_rng(43)
        for _ in range(5):
            ext = geodesic_instance(rng)
            smin = ext.domain_min
            ss = sorted(float(rng.uniform(float(smin), 1.0)) for _ in range(4))
            pairs = list(zip(ss, ss[1:])) + [(float(smin), 1.0)]
            report = geodesic_speed_check(ext, pairs, tol=1e-8)
            assert report.ok, report.details

    def test_out_of_order_sample_pair_raises(self):
        space, eta, y, y_prime = self.build()
        ext = build_geodesic_extension(space, eta, y, y_prime, Fraction(1, 2))
        with pytest.raises(DomainError):
            geodesic_speed_check(ext, [(Fraction(1, 2), Fraction(0))])

    def test_degenerate_data_is_rejected(self):
        space, eta, y, y_prime = self.build()
        with pytest.raises(DomainError):
            build_geodesic_extension(space, eta, y, y_prime, 0)
        with pytest.raises(DomainError):
            build_geodesic_extension(space, eta, y, y, Fraction(1, 2))
        eta_at_y = DiscreteMeasure(space, ((y, 1),))
        with pytest.raises(DomainError):
            build_geodesic_extension(space, eta_at_y, y, y_prime, Fraction(1, 2))

    def test_points_off_the_space_are_refused(self):
        space, eta, y, y_prime = self.build()
        half = Fraction(1, 2)
        with pytest.raises(SpaceMismatchError):
            build_geodesic_extension(space, eta, IntervalPoint(Fraction(0)), y_prime, half)
        with pytest.raises(SpaceMismatchError):
            build_geodesic_extension(space, eta, y, IntervalPoint(Fraction(1)), half)
        # eta's atoms were validated on eta's own space, not on this one
        foreign = DiscreteMeasure(Interval(1), ((IntervalPoint(half), 1),))
        with pytest.raises(SpaceMismatchError):
            build_geodesic_extension(space, foreign, y, y_prime, half)
        with pytest.raises(SpaceMismatchError):
            GeodesicExtension(space=space, eta=foreign, y=y, y_prime=y_prime, c=half, v=1, r=1)

    def test_tampered_speed_is_caught(self):
        space, eta, y, y_prime = self.build()
        with pytest.raises(InvariantError):
            GeodesicExtension(
                space=space, eta=eta, y=y, y_prime=y_prime, c=Fraction(1, 2), v=2, r=1
            )


class TestInductionFamilies:
    def test_product_measures_keep_distinct_ts(self, snowflake_plane):
        gen = induction_family_generator(snowflake_plane, n_atoms=5, seed=7)
        for mu in itertools.islice(gen, 3):
            assert len(mu.atoms) == 5
            ts = sorted(p.t for p in mu.support)
            assert all(b - a >= 0.02 for a, b in zip(ts, ts[1:]))
            assert sum(m for _, m in mu.atoms) == pytest.approx(1.0)

    def test_interval_families_and_determinism(self, unit_interval):
        first = next(induction_family_generator(unit_interval, n_atoms=3, seed=19))
        again = next(induction_family_generator(unit_interval, n_atoms=3, seed=19))
        assert first.atoms == again.atoms
        assert all(isinstance(p, IntervalPoint) for p in first.support)

    def test_unsupported_requests_raise(self, snowflake_plane):
        with pytest.raises(DomainError):
            next(induction_family_generator(snowflake_plane, n_atoms=0, seed=1))
        with pytest.raises(DomainError):
            next(induction_family_generator(Euclidean(2), n_atoms=3, seed=1))
