"""One separated-point sampler for the campaigns and the induction families.

``sampling.random_separated_points`` keeps the t coordinates of its points
pairwise min(0.05, 1/(4 * count)) apart, so the campaigns' 3 to 5 points
keep a gap of 0.05 and a 20-atom induction family one of 1/80. The
metric-axioms suite computes d(a, b) once: five distances and ten point
checks per trial.
"""

import itertools

import pytest

import otlab.campaign as campaign
from otlab import Euclidean, Interval, Product, make_rng
from otlab.rigidity import induction_family_generator
from otlab.sampling import random_separated_points

from test_own_space_suites import recording_product


def gaps(points):
    ts = sorted(float(p.t) for p in points)
    return [b - a for a, b in zip(ts, ts[1:])]


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
@pytest.mark.parametrize("count", [3, 4, 5])
def test_campaign_draws_keep_a_gap_of_a_twentieth(count, exact):
    space = campaign._default_product(exact)
    for seed in range(30):
        points = random_separated_points(make_rng(seed), space, count, exact)
        assert len(points) == count
        assert min(gaps(points)) >= 0.05


@pytest.mark.parametrize("n_atoms", [1, 2, 5, 8, 20])
@pytest.mark.parametrize("space", [Interval(1), Product(0.5, 2, Euclidean(2))], ids=["interval", "product"])
def test_induction_families_keep_the_one_gap_rule_and_repeat_per_seed(space, n_atoms):
    gap = min(0.05, 1 / (4 * n_atoms))
    first = list(itertools.islice(induction_family_generator(space, n_atoms, seed=23), 6))
    again = list(itertools.islice(induction_family_generator(space, n_atoms, seed=23), 6))
    assert [mu.atoms for mu in first] == [mu.atoms for mu in again]
    for mu in first:
        assert len(mu.atoms) == n_atoms
        assert all(g >= gap for g in gaps(mu.support))
        assert sum(m for _, m in mu.atoms) == pytest.approx(1.0)
    assert first[0].atoms != first[1].atoms


@pytest.mark.parametrize("mode", ["float", "rational"])
def test_a_metric_axioms_trial_makes_five_distance_calls(mode):
    space, log = recording_product(mode == "rational")
    campaign.run_suite("metric-axioms", seed=9, trials=4, mode=mode, space=space)
    assert log.count("distance") == 4 * 5
    assert log.count("validate_point") == 4 * 10
