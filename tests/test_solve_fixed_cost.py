"""The shortcuts that cut a small solve's fixed cost give what the long ways give.

* A solved ``TransportResult`` and its ``Coupling._solved`` plan are built by
  ``solver._frozen`` in one dict update. They compare, hash, print, pickle and
  ``dataclasses.replace`` like instances built through ``__init__``.
* A kernel run that makes no pivot hands back the northwest dict as it is.
  Its cells, order and value bits are those ``_fill_flows`` reads back from
  the tree's nodes.
* ``_Units.entries`` scans a ``Finite`` selection for float cells only when
  the matrix has one. ``_unit_costs`` still gives exact units on every
  all-exact selection and None on every selection with a float cell.
"""

import dataclasses
import itertools
import pickle
from fractions import Fraction

import pytest

from otlab import (
    Coupling,
    DiscreteMeasure,
    Euclidean,
    EuclideanPoint,
    Finite,
    FinitePoint,
    Interval,
    IntervalPoint,
    TransportResult,
    solve_wasserstein,
)
from otlab.campaign import five_point_tree_space
from otlab.solver import _fill_flows, _joint_units, _northwest_corner, _transport_simplex

F = Fraction


def _exact_solve():
    space = five_point_tree_space()
    mu = DiscreteMeasure(space, ((FinitePoint(0), F(3, 8)), (FinitePoint(2), F(5, 8))))
    nu = DiscreteMeasure(space, ((FinitePoint(3), F(1, 4)), (FinitePoint(4), F(3, 4))))
    return solve_wasserstein(mu, nu, p=1)


def _float_solve():
    space = Euclidean(2)
    mu = DiscreteMeasure(
        space, ((EuclideanPoint((0.0, 0.5)), 0.25), (EuclideanPoint((1.5, -0.25)), 0.75))
    )
    nu = DiscreteMeasure(
        space,
        (
            (EuclideanPoint((0.1, 2.0)), 0.5),
            (EuclideanPoint((-1.0, 0.3)), 0.125),
            (EuclideanPoint((2.0, 2.0)), 0.375),
        ),
    )
    return solve_wasserstein(mu, nu, p=2)


def _through_init(result):
    """The same result, its plan and itself built through ``__init__``."""
    pi = result.coupling
    plan = Coupling(pi.space, pi.row_points, pi.col_points, pi.weights)
    fields = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}
    return TransportResult(**dict(fields, coupling=plan))


@pytest.mark.parametrize("solve", (_exact_solve, _float_solve), ids=("exact", "float"))
def test_solved_results_behave_like_init_built_ones(solve):
    result = solve()
    assert result.arithmetic == ("exact" if solve is _exact_solve else "float")
    built = _through_init(result)
    for got, want in ((result, built), (result.coupling, built.coupling)):
        assert got == want and want == got
        assert hash(got) == hash(want)
        assert repr(got) == repr(want)
        # the instance dict holds the fields in declared order, as __init__ leaves it
        assert list(vars(got)) == list(vars(want))
        assert pickle.dumps(got) == pickle.dumps(want)
        back = pickle.loads(pickle.dumps(got))
        assert back == got and type(back) is type(got)
        with pytest.raises(dataclasses.FrozenInstanceError):
            got.weights = ()
    changed = dataclasses.replace(result, certified=not result.certified)
    assert changed == dataclasses.replace(built, certified=not built.certified)
    assert changed != result
    assert dataclasses.replace(result) == result
    assert dataclasses.replace(result.coupling) == result.coupling


def _filled(a, b, m, n):
    """The northwest tree's flows as ``_fill_flows`` reads them back from its nodes.

    The staircase is a path from row 0: each cell after the first moves the
    row or the column by one, and that row or column hangs below the other end.
    """
    flows = _northwest_corner(a, b, m, n)
    parent = [-1] * (m + n)
    flow = [None] * (m + n)
    last = 0
    for (i, j), f in flows.items():
        if i == last:
            parent[m + j], flow[m + j] = i, f
        else:
            parent[i], flow[i] = m + j, f
        last = i
    return _fill_flows(dict.fromkeys(flows), parent, flow, m)


def _bits(x):
    return x.hex() if isinstance(x, float) else (type(x), x)


def _problems():
    """Kernel arguments of exact and float problems, most of them solved by the northwest start."""
    tree = five_point_tree_space()
    halves = [
        DiscreteMeasure(tree, tuple((FinitePoint(k), F(1, 2)) for k in picks))
        for picks in ((0, 1), (2, 3), (0, 2))
    ]
    out = []
    for mu, nu in itertools.product(halves, repeat=2):
        cost, Lc = tree._unit_costs(mu.support, nu.support, 1)
        a, b, L = _joint_units(mu._mass_units, nu._mass_units)
        out.append((a, b, cost, len(a), len(b), L * Lc))
    # sorted line measures in floats: the northwest plan is the monotone one
    line = Interval(1)
    xs = [0.05, 0.2, 0.35, 0.6, 0.9]
    mu = DiscreteMeasure(line, tuple((IntervalPoint(x), 0.2) for x in xs))
    masses = (0.1, 0.3, 0.4, 0.2)
    nu = DiscreteMeasure(line, tuple((IntervalPoint(x + 0.07), w) for x, w in zip(xs, masses)))
    cost = line.cost_matrix(mu.support, nu.support, 1)
    out.append((list(mu.masses), list(nu.masses), cost, 5, 4, None))
    # float dust: the walk joins a zero-flow cell, (1, 2) (``_northwest_corner``)
    a, b = [0.5, 0.5 - 2e-12], [0.5, 0.5 - 1e-12, 1e-12]
    out.append((a, b, [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0]], 2, 3, None))
    return out


def test_a_zero_pivot_kernel_returns_the_flows_fill_flows_gives():
    made = []
    for a, b, cost, m, n, scale in _problems():
        flows, pivots, *_ = _transport_simplex(a, b, cost, m, n, scale, 10 * m * n)
        made.append(pivots)
        want = _filled(a, b, m, n)
        if pivots == 0:
            assert [(c, _bits(f)) for c, f in flows.items()] == [(c, _bits(f)) for c, f in want.items()]
        else:
            # a pivot swaps a cell of the northwest tree for another, and the
            # flows are read back from the nodes; they still meet the masses
            assert list(flows) != list(want)
            assert all(f >= 0 for f in flows.values())
            assert [sum(f for (i, _), f in flows.items() if i == r) for r in range(m)] == list(a)
            assert [sum(f for (_, j), f in flows.items() if j == c) for c in range(n)] == list(b)
    # the float line and the dust start solve with no pivot, and some tree pair pivots
    assert made[-2:] == [0, 0] and made.count(0) >= 6 and any(made)


# a line with one Fraction entry; MIXED has one float pair of entries
LINE = [0, F(1, 2), 2, F(7, 3), 4]
EXACT = tuple(tuple(abs(x - y) for y in LINE) for x in LINE)
MIXED = tuple(
    tuple(float(d) if {i, j} == {0, 3} else d for j, d in enumerate(row)) for i, row in enumerate(EXACT)
)


def _selections(size):
    points = range(size)
    for r in (1, 2, 3):
        for rows in itertools.combinations(points, r):
            for cols in itertools.combinations(points, 4 - r):
                yield [FinitePoint(k) for k in rows], [FinitePoint(k) for k in cols]


@pytest.mark.parametrize("matrix", (EXACT, MIXED), ids=("exact", "mixed"))
@pytest.mark.parametrize("fresh", (False, True), ids=("built", "unpickled"))
def test_finite_unit_costs_refuse_exactly_the_selections_with_a_float_cell(matrix, fresh):
    space = Finite(matrix)
    if fresh:  # the units come from the cached property, not the construction check
        space = pickle.loads(pickle.dumps(space))
    L = 6  # the lcm of the exact entries' denominators
    for rows, cols in _selections(len(matrix)):
        cells = [[matrix[y.index][z.index] for z in cols] for y in rows]
        for p in (1, 2):
            got = space._unit_costs(rows, cols, p)
            if any(isinstance(c, float) for row in cells for c in row):
                assert got is None
                continue
            C, S = got
            assert S == L**p
            assert [[F(c, S) for c in row] for row in C] == [[F(c) ** p for c in row] for row in cells]
            assert all(type(c) is int for row in C for c in row)
    assert space._unit_matrix[2] is (matrix is MIXED)
