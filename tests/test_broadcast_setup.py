"""The float solve's two numpy passes against the Python loops they stand in for, bit for bit.

Where ``cost_matrix`` broadcasts a float matrix (more than ``_PER_CELL_MAX``
cells), the solve keeps its float64 array. ``_least_cost_tree`` then orders
the cells with a stable ``np.argsort`` instead of ``sorted``, and ``_certify``
scans dual feasibility as ``(array - u) - v`` instead of a loop. Both must
give what the loops give: the same start dict in the same order with the
same flows, and the same verdict. The loops stay the code of every other
solve, so each check here runs both paths on one problem.
"""

import math

import numpy as np
import pytest

from otlab import (
    Euclidean,
    EuclideanPoint,
    Interval,
    Product,
    make_rng,
    random_finite_space,
    random_measure,
    solve_wasserstein,
)
from otlab.metric import _CostMatrix, _PER_CELL_MAX
from otlab.solver import _certify, _flow_cost, _least_cost_tree, _simplex_from

from oracles import linprog_transport_cost
from test_northwest_start import CASES, dust_pair

PLANE = Product(0.5, 2, Euclidean(2))
SPACES = {
    "plane": (PLANE, 2),
    "E2": (Euclidean(2), 1),
    "interval": (Interval(1), 2),
    "finite": (random_finite_space(make_rng(191), 49), 1),
}
# 26, 36, 144 and 1,600 cells: all past the per-cell limit of 25
SHAPES = ((2, 13), (6, 6), (12, 12), (40, 40))


def _bits(flows):
    """The flows dict in its order, each flow with its type and repr (-0.0 apart from 0.0)."""
    return [(cell, type(f), repr(f)) for cell, f in flows.items()]


def _float_problem(mu, nu, p):
    """(a, b, cost, array) of a float pair whose cost matrix is broadcast."""
    cost, array = mu.space._cost_matrix_and_array(mu.support, nu.support, p)
    assert array is not None and array.tolist() == cost
    return list(mu.masses), list(nu.masses), cost, array


def _assert_same_start(a, b, cost, array):
    m, n = len(a), len(b)
    plain = _least_cost_tree(a, b, cost, m, n)
    assert _bits(_least_cost_tree(a, b, cost, m, n, array)) == _bits(plain)
    return plain


def _certify_both(a, b, cost, array, start=None, tol=1e-9):
    """Both certificates of the kernel's answer from ``start``: (verdict, verdict with the array)."""
    m, n = len(a), len(b)
    start = _least_cost_tree(a, b, cost, m, n) if start is None else start
    flows, _, u, v, _ = _simplex_from(dict(start), cost, m, n, None, 10 * m * n)
    args = (a, b, cost, flows, u, v, m, n, _flow_cost(flows, cost), tol)
    return _certify(*args), _certify(*args, array)


@pytest.mark.parametrize("name", sorted(SPACES))
@pytest.mark.parametrize("m, n", SHAPES)
def test_start_and_verdict_match_on_seeded_float_pairs(name, m, n):
    space, p = SPACES[name]
    rng = make_rng((229, m, n, sorted(SPACES).index(name)))
    for _ in range(2 if m * n > 200 else 4):
        mu, nu = random_measure(rng, space, m), random_measure(rng, space, n)
        a, b, cost, array = _float_problem(mu, nu, p)
        start = _assert_same_start(a, b, cost, array)
        assert _certify_both(a, b, cost, array, start) == (True, True)


def test_start_matches_on_an_all_equal_cost_matrix():
    # every cell ties, so both orders are the row-major one
    rng = make_rng(233)
    for m, n in ((6, 6), (5, 8), (13, 2)):
        cost = [[2.5] * n for _ in range(m)]
        for a, b in (([1 / m] * m, [1 / n] * n), (_masses(rng, m), _masses(rng, n))):
            _assert_same_start(a, b, cost, np.array(cost))


def test_start_matches_with_duplicate_points():
    # a row point repeated, and points shared with the columns: the repeated
    # rows tie cell for cell and the shared points cost 0
    rng = make_rng(239)
    for space, p in (SPACES["plane"], SPACES["E2"], SPACES["finite"]):
        mu = random_measure(rng, space, 4)
        nu = random_measure(rng, space, 5)
        rows = [y for y in mu.support for _ in range(2)] + list(nu.support[:2])
        cols = list(nu.support) + list(mu.support[:2])
        cost, array = space._cost_matrix_and_array(rows, cols, p)
        assert array is not None
        a, b = _masses(rng, len(rows)), _masses(rng, len(cols))
        _assert_same_start(a, b, cost, array)
        assert _certify_both(a, b, cost, array) == (True, True)


def test_start_matches_where_negative_zero_costs_sit_beside_zero():
    # -0.0 == 0.0, so sorted and the stable argsort both keep them in
    # row-major order; the flows show which cells were taken
    rng = make_rng(241)
    for m, n in ((6, 6), (4, 9), (7, 5)):
        cost = [[float(rng.choice((0.0, -0.0, 1.0, 0.5))) for _ in range(n)] for _ in range(m)]
        array = np.array(cost)
        assert any(math.copysign(1, c) < 0 for row in cost for c in row)
        a, b = _masses(rng, m), _masses(rng, n)
        _assert_same_start(a, b, cost, array)
        assert _certify_both(a, b, cost, array) == (True, True)


@pytest.mark.parametrize("x, d, rows, cols", CASES)
def test_start_matches_on_dust_pairs_in_both_orientations(x, d, rows, cols):
    # 6 cells, so the solve itself takes the loops; the array is built here
    mu, nu = dust_pair(x, d, [EuclideanPoint((t,)) for t in rows], [EuclideanPoint((t,)) for t in cols])
    for p in (1, 2):
        for source, target in ((mu, nu), (nu, mu)):
            cost = source.space.cost_matrix(source.support, target.support, p)
            a, b, array = list(source.masses), list(target.masses), np.array(cost)
            _assert_same_start(a, b, cost, array)
            assert _certify_both(a, b, cost, array) == (True, True)


def test_verdicts_match_where_the_certificate_refuses():
    # lowering one off-tree cell below its potentials breaks dual feasibility
    # alone; raising a positive-flow tree cell breaks complementary slackness
    rng = make_rng(251)
    mu, nu = random_measure(rng, PLANE, 12), random_measure(rng, PLANE, 12)
    a, b, cost, _ = _float_problem(mu, nu, 2)
    m, n = len(a), len(b)
    flows, _, u, v, _ = _simplex_from(_least_cost_tree(a, b, cost, m, n), cost, m, n, None, 10 * m * n)
    powered = _flow_cost(flows, cost)
    off = [(i, j) for i in range(m) for j in range(n) if (i, j) not in flows]
    for i, j in (off[0], off[len(off) // 2], off[-1]):
        lowered = [list(row) for row in cost]
        lowered[i][j] = u[i] + v[j] - 1e-6
        args = (a, b, lowered, flows, u, v, m, n, powered, 1e-9)
        assert (_certify(*args), _certify(*args, np.array(lowered))) == (False, False)
    i, j = next(cell for cell, f in flows.items() if f > 1e-9)
    raised = [list(row) for row in cost]
    raised[i][j] = raised[i][j] + 1e-6
    args = (a, b, raised, flows, u, v, m, n, powered, 1e-9)
    assert (_certify(*args), _certify(*args, np.array(raised))) == (False, False)


def test_a_reduced_cost_beyond_the_float_range_gives_the_loops_verdict_without_a_warning():
    # (c - u) - v overflows to inf in Python and numpy alike; numpy must not
    # warn about it (the test settings make a RuntimeWarning an error)
    big = 1.5e308
    cost = [[big, 0.0], [0.0, big]]
    flows = {(0, 1): 0.5, (1, 0): 0.5, (0, 0): 0.0}
    for u, v in (([0.0, -big], [big, 0.0]), ([0.0, big], [-big, 0.0])):
        args = ([0.5, 0.5], [0.5, 0.5], cost, flows, u, v, 2, 2, 0.0, 1e-9)
        assert _certify(*args, np.array(cost)) == _certify(*args)


@pytest.mark.parametrize(
    "space, window, verdicts",
    [
        # the known scale defect: every plan is wrong, and all are certified
        (Euclidean(2), 1e-7, [True] * 8),
        # optimal plans refused, one in eight certified
        (PLANE, 1e5, [False, False, True, False, False, False, False, False]),
    ],
    ids=("E2-1e-7", "plane-1e5"),
)
def test_scale_defect_verdicts_do_not_move(space, window, verdicts):
    # these verdicts are the float certificate's absolute tolerance at the
    # wrong scale (README, known float-scale failures); its fix is a change
    # of its own, and the numpy scan must neither mend nor worsen them
    rng = make_rng(7)
    got = []
    for _ in verdicts:
        mu, nu = (random_measure(rng, space, 12, window=window) for _ in range(2))
        a, b, cost, array = _float_problem(mu, nu, 2)
        result = solve_wasserstein(mu, nu, p=2)
        both = _certify_both(a, b, cost, array)
        assert both == (result.certified, result.certified)
        got.append(result.certified)
        top = max(max(row) for row in cost)
        scaled = [[c / top for c in row] for row in cost]
        error = abs(result.powered_cost / top - linprog_transport_cost(a, b, scaled))
        assert (error > 0.1 * result.powered_cost / top) == (window < 1)
    assert got == verdicts


@pytest.mark.parametrize("name", sorted(SPACES))
def test_solves_match_the_loops_end_to_end(name, monkeypatch):
    # the same solves with the array withheld take the loops: results equal
    # in repr (plan, potentials, cost bits) and pivots
    space, p = SPACES[name]
    rng = make_rng((257, sorted(SPACES).index(name)))
    pairs = [(random_measure(rng, space, m), random_measure(rng, space, n)) for m, n in SHAPES]
    broadcast = [solve_wasserstein(mu, nu, p=p) for mu, nu in pairs]
    with_array = _CostMatrix._cost_matrix_and_array
    monkeypatch.setattr(_CostMatrix, "_cost_matrix_and_array", lambda *args: (with_array(*args)[0], None))
    plain = [solve_wasserstein(mu, nu, p=p) for mu, nu in pairs]
    assert [repr(r) for r in broadcast] == [repr(r) for r in plain]
    assert [r.pivots for r in broadcast] == [r.pivots for r in plain]


def test_small_matrices_have_no_array():
    rng = make_rng(263)
    mu, nu = random_measure(rng, PLANE, 5), random_measure(rng, PLANE, 5)
    assert 5 * 5 <= _PER_CELL_MAX
    assert mu.space._cost_matrix_and_array(mu.support, nu.support, 2)[1] is None


def test_a_40_by_40_plane_solve_is_pinned():
    # the benchmark's shape; these figures are the candidate rule's, which
    # the loop reference of test_candidate_pricing reproduces
    rng = make_rng(29)
    mu, nu = (random_measure(rng, PLANE, 40, window=10) for _ in range(2))
    result = solve_wasserstein(mu, nu, p=2)
    assert (result.pivots, result.powered_cost.hex(), result.certified) == (63, "0x1.18afb9f529b73p+3", True)


def _masses(rng, k):
    w = [float(x) for x in rng.uniform(0.1, 1.0, k)]
    total = math.fsum(w)
    return [x / total for x in w]
