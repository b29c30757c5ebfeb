"""A known fault, pinned: small float line problems at window 1e5 exhaust the pivot budget.

On ``Euclidean(1)`` a measure sorts its atoms, and the monotone plan of two
measures is optimal at p = 1. At window 1e5 the costs reach about 1.8e5,
and once the kernel reaches an optimal plan, off-tree reduced costs that
are 0 in exact arithmetic come out of the float potentials as low as
-2**-35 (about a unit in the last place of such a cost). That is below the
entering threshold ``-_ENTERING_EPS`` (-1e-12), so the kernel pivots on
rounding noise until its budget of 10 * m * n = 360 pivots runs out. At a
threshold of 1e-9 both pairs below are certified, after 5 and 2 pivots. The
fix that holds at every scale is a scale-free certificate (ROADMAP), not a
larger threshold; when it lands, these tests pass and ``strict`` flags them.
"""

import numpy as np
import pytest

from otlab import Euclidean, solve_wasserstein
from otlab.sampling import random_measure


@pytest.mark.xfail(
    strict=True,
    reason="pivots on float rounding noise at window 1e5 until the budget of 360 runs out",
)
@pytest.mark.parametrize("seed", ([5, 24], [19, 24]), ids=str)
def test_sorted_line_pair_at_window_1e5_solves_certified(seed):
    rng = np.random.default_rng(seed)
    mu = random_measure(rng, Euclidean(1), 6, window=1e5)
    nu = random_measure(rng, Euclidean(1), 6, window=1e5)
    result = solve_wasserstein(mu, nu, p=1)
    assert result.certified
