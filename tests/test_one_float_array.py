"""One float64 array per float solve: its start, pricing and certificate follow its costs.

A float solve whose costs are all Python floats and whose matrix has more
than ``_PER_CELL_MAX`` (25) cells keeps one float64 array of them: the one
``cost_matrix`` broadcast, else ``np.array`` of the list. ``_least_cost_tree``,
``_simplex_from`` and ``_certify`` all receive it, and ``_simplex_from`` prices
from the candidate list when it has the array and at least
``_CANDIDATE_MIN_CELLS`` (576) cells. So how the coordinates were spelled
(exact, float, an int among floats) does not choose the path. A solve with an
exact cost, a matrix of at most 25 cells and an exact solve keep the loops.

Spies on the solver's module functions record what each pass receives. The
same solves with the spies handing None to the start and the certificate
(their loop paths) must come back with the same ``repr`` and pivots.
"""

from fractions import Fraction

import numpy as np
import pytest

from otlab import (
    DiscreteMeasure,
    Euclidean,
    EuclideanPoint,
    Interval,
    Product,
    make_rng,
    random_masses,
    random_measure,
    solve_wasserstein,
)
from otlab import solver
from otlab.metric import _PER_CELL_MAX
from otlab.solver import _CANDIDATE_MIN_CELLS

PLANE_EXACT = Product(Fraction(1, 2), 2, Euclidean(2))
PLANE = Product(0.5, 2, Euclidean(2))


def _float_masses(mu, rng):
    masses = random_masses(rng, len(mu.atoms))
    return DiscreteMeasure(mu.space, tuple((point, w) for (point, _), w in zip(mu.atoms, masses)))


def _with_an_int(mu):
    """``mu`` with the first coordinate of its first atom made an int: the matrix is built per cell."""
    (point, w), *rest = mu.atoms
    point = EuclideanPoint((int(round(point.coords[0])),) + point.coords[1:])
    return DiscreteMeasure(mu.space, ((point, w), *rest))


def exact_plane_pair(k, seed):
    # exact coordinates and masses; d at p = 1 is irrational, so the costs are floats
    rng = make_rng((seed, k))
    return (random_measure(rng, PLANE_EXACT, k, exact=True, window=2) for _ in range(2))


def int_among_floats_pair(k, seed):
    rng = make_rng((seed, k))
    mu, nu = (random_measure(rng, Euclidean(2), k, window=3) for _ in range(2))
    return _with_an_int(mu), nu


def float_plane_pair(k, seed):
    rng = make_rng((seed, k))
    return (random_measure(rng, PLANE, k, window=3) for _ in range(2))


def float_masses_on_fractions(k, seed):
    # float masses on Fraction points of the interval: the costs at p = 2 are Fractions
    rng = make_rng((seed, k))
    return (_float_masses(random_measure(rng, Interval(1), k, exact=True), rng) for _ in range(2))


def exact_interval_pair(k, seed):
    rng = make_rng((seed, k))
    return (random_measure(rng, Interval(1), k, exact=True) for _ in range(2))


# the originals, which every spy calls however many are installed
TREE, CERTIFY, SEARCH = solver._least_cost_tree, solver._certify, solver._candidate_search


class Spies:
    """Record the arrays the start and the certificate receive and count candidate lists.

    With ``withhold`` the start and the certificate are handed None instead,
    which takes their loop paths.
    """

    def __init__(self, monkeypatch, withhold=False):
        self.starts, self.certificates, self.lists = [], [], 0

        def start(a, b, cost, m, n, array=None):
            self.starts.append((cost, array))
            return TREE(a, b, cost, m, n, None if withhold else array)

        def certificate(*args):
            *args, array = args
            self.certificates.append((args[2], array))
            return CERTIFY(*args, None if withhold else array)

        def candidates(*args):
            self.lists += 1
            return SEARCH(*args)

        monkeypatch.setattr(solver, "_least_cost_tree", start)
        monkeypatch.setattr(solver, "_certify", certificate)
        monkeypatch.setattr(solver, "_candidate_search", candidates)


def _solve(monkeypatch, pair, p, withhold=False):
    mu, nu = pair
    spies = Spies(monkeypatch, withhold)
    return solve_wasserstein(mu, nu, p=p), spies


def _assert_the_array(received):
    """Each array received is float64 and bit for bit ``np.array`` of the costs beside it."""
    assert received
    for cost, array in received:
        assert type(array) is np.ndarray and array.dtype == np.float64
        assert array.tobytes() == np.array(cost).tobytes()


def _assert_like_the_loops(monkeypatch, pair, p, result):
    plain, spies = _solve(monkeypatch, pair, p, withhold=True)
    assert (repr(result), result.pivots) == (repr(plain), plain.pivots)
    return spies


ARRAY_CASES = [
    (build, p, k)
    for build, p in ((exact_plane_pair, 1), (int_among_floats_pair, 1), (float_plane_pair, 2))
    for k in (6, 12, 24, 30)
]


@pytest.mark.parametrize("build, p, k", ARRAY_CASES, ids=lambda x: getattr(x, "__name__", str(x)))
def test_start_and_certificate_take_the_array_of_all_float_costs(build, p, k, monkeypatch):
    pair = tuple(build(k, 311))
    result, spies = _solve(monkeypatch, pair, p)
    assert result.arithmetic == "float" and result.certified
    assert len(spies.starts) == len(spies.certificates) == 1
    _assert_the_array(spies.starts)
    _assert_the_array(spies.certificates)
    assert spies.starts[0][1] is spies.certificates[0][1]
    assert spies.lists == (k * k >= _CANDIDATE_MIN_CELLS)
    withheld = _assert_like_the_loops(monkeypatch, pair, p, result)
    # withholding the array from the start and the certificate leaves the pricing its own
    assert withheld.lists == spies.lists


LOOP_CASES = [
    (exact_plane_pair, 1, 5),  # 25 cells: float costs, but no array
    (float_plane_pair, 2, 5),
    (int_among_floats_pair, 1, 5),
    (float_masses_on_fractions, 2, 6),
    (float_masses_on_fractions, 2, 30),
    (exact_interval_pair, 2, 6),
    (exact_plane_pair, 2, 30),  # d**2 is exact on the plane: an exact solve
]


@pytest.mark.parametrize("build, p, k", LOOP_CASES, ids=lambda x: getattr(x, "__name__", str(x)))
def test_exact_costs_and_small_matrices_keep_the_loops(build, p, k, monkeypatch):
    pair = tuple(build(k, 313))
    result, spies = _solve(monkeypatch, pair, p)
    [(cost, array)] = spies.certificates
    # what puts the case here: an exact cost (an exact solve's are ints) or at most 25 cells
    assert k * k <= _PER_CELL_MAX or not all(type(c) is float for row in cost for c in row)
    assert array is None and spies.lists == 0
    # an exact solve starts from the northwest corner, not the least-cost tree
    assert [start for _, start in spies.starts] == ([None] if result.arithmetic == "float" else [])
    assert result.certified
    _assert_like_the_loops(monkeypatch, pair, p, result)
