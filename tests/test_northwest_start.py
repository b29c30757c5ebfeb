"""The northwest start where float dust leaves a row or a column a sliver of mass."""

import pytest

from otlab import (
    DiscreteMeasure,
    Euclidean,
    EuclideanPoint,
    make_rng,
    powered_distance,
    solve_wasserstein,
)
from otlab.solver import _northwest_corner

from oracles import linprog_transport_cost

LINE = Euclidean(1)


def dust_pair(x, d, rows, cols):
    """a = [x, 1 - x - 2d] against b = [x, 1 - x - d, d], supports sorted.

    Row 0 and column 0 run out together. The last row then runs out while
    column 1 keeps d, so the walk steps on to column 2 with no mass left.
    """
    mu = DiscreteMeasure(LINE, tuple(zip(rows, (x, 1 - x - 2 * d))))
    nu = DiscreteMeasure(LINE, tuple(zip(cols, (x, 1 - x - d, d))))
    return mu, nu


def seeded_pairs(count):
    rng = make_rng(4101)
    for _ in range(count):
        x = float(rng.uniform(0.2, 0.8))
        d = float(10 ** rng.uniform(-13, -11))
        rows = sorted(float(t) for t in rng.uniform(-5, 5, 2))
        cols = sorted(float(t) for t in rng.uniform(-5, 5, 3))
        yield x, d, rows, cols


CASES = [(0.5, 1e-12, [0.0, 1.0], [-2.0, 0.5, 3.0]), *seeded_pairs(6)]


@pytest.mark.parametrize("p", (1, 2))
@pytest.mark.parametrize("x, d, rows, cols", CASES)
def test_dust_start_solves_certified_in_both_orientations(x, d, rows, cols, p):
    mu, nu = dust_pair(
        x, d, [EuclideanPoint((t,)) for t in rows], [EuclideanPoint((t,)) for t in cols]
    )
    for source, target, dust_cell in ((mu, nu, (1, 2)), (nu, mu, (2, 1))):
        # the start joins the dust cell with zero flow: the sliver stays unshipped
        m, n = len(source.masses), len(target.masses)
        start = _northwest_corner(source.masses, target.masses, m, n)
        assert start[dust_cell] == 0.0
        result = solve_wasserstein(source, target, p=p)
        costs = [
            [powered_distance(LINE, y, z, p) for z in target.support] for y in source.support
        ]
        reference = linprog_transport_cost(source.masses, target.masses, costs)
        assert result.certified
        assert result.powered_cost == pytest.approx(reference, abs=1e-9)
