"""Validation of explicit finite metrics and of the finite-space file reader.

Every ``Finite`` matrix gets one triangle check: an all-exact matrix is
compared exactly, a float or mixed one within 1e-12 of its largest entry.
The reference is the direct triple loop of ``oracles.first_triangle_violation``.
"""

import pickle
import random
import re
from fractions import Fraction

import pytest

from otlab import (
    DiscreteMeasure,
    Finite,
    FinitePoint,
    InvalidSpaceError,
    ParseError,
    load_finite_space,
    make_rng,
    solve_wasserstein,
)
from otlab.campaign import five_point_tree_space
from otlab.solver import _joint_units, _transport_simplex

from oracles import first_triangle_violation
from test_solver import _shared_measures, _tree_hung_potentials


def line_metric(points):
    """|x - y| over decimal strings, computed exactly and rounded once to a float."""
    xs = [Fraction(x) for x in points]
    return tuple(tuple(float(abs(x - y)) for y in xs) for x in xs)


def test_float_slack_scales_with_the_largest_entry():
    # d(0,2) is one ulp (9.3e-10) above d(0,1) + d(1,2) in float64, far above 1e-12
    assert Finite(line_metric(["989007.7", "2487737.0", "7328850.1", "7834936.4"])).size == 4
    rng = random.Random(1)
    for _ in range(200):
        points = [f"{rng.randrange(10**8)}.{rng.randrange(10)}" for _ in range(rng.randint(3, 8))]
        points = list(dict.fromkeys(points))
        Finite(line_metric(points))


def test_float_violation_below_the_old_absolute_slack_is_refused():
    tiny = ((0, 1e-13, 2.5e-13), (1e-13, 0, 1e-13), (2.5e-13, 1e-13, 0))
    with pytest.raises(InvalidSpaceError, match=re.escape("d(0,2) > d(0,1) + d(1,2)")):
        Finite(tiny)
    # the same shape within round-off of its largest entry is a metric
    assert Finite(((0, 1e-13, 2e-13), (1e-13, 0, 1e-13), (2e-13, 1e-13, 0))).size == 3


def random_matrix(rng):
    """A symmetric matrix with zero diagonal and positive entries: a metric,
    a metric with a few entries moved, or arbitrary; exact, float or mixed."""
    n = rng.randint(1, 9)
    kind = rng.choice(["metric", "moved", "nudged", "arbitrary"])
    if kind == "arbitrary":
        d = [[Fraction(rng.randint(1, 30), rng.randint(1, 5)) for _ in range(n)] for _ in range(n)]
    else:
        pts = [[Fraction(rng.randint(0, 40), rng.randint(1, 6)) for _ in range(2)] for _ in range(n)]
        d = [[abs(a[0] - b[0]) + abs(a[1] - b[1]) or Fraction(1, 7) for b in pts] for a in pts]
    for i in range(n):
        d[i][i] = 0
        for j in range(i):
            d[i][j] = d[j][i]
    if kind in ("moved", "nudged") and n > 1:
        for _ in range(rng.randint(1, 3)):
            i, j = rng.sample(range(n), 2)
            step = rng.randint(1, 20) if kind == "moved" else Fraction(1, 10 ** rng.randint(1, 14))
            d[i][j] = d[j][i] = max(d[i][j] + rng.choice([-1, 1]) * step, Fraction(1, 9))
    flavor = rng.choice(["exact", "float", "mixed"])
    if flavor == "float":
        d = [[float(v) for v in row] for row in d]
    elif flavor == "mixed":
        d = [[float(v) if (i + j) % 2 else v for j, v in enumerate(row)] for i, row in enumerate(d)]
    return tuple(tuple(row) for row in d)


def test_triangle_check_names_the_first_violation_of_the_triple_loop():
    rng = random.Random(20)
    refused = 0
    for _ in range(400):
        matrix = random_matrix(rng)
        flat = [v for row in matrix for v in row]
        if all(isinstance(v, (int, Fraction)) for v in flat):
            bad = first_triangle_violation(matrix)
        else:
            floats = [[float(v) for v in row] for row in matrix]
            bad = first_triangle_violation(floats, 1e-12 * max(map(float, flat)))
        if bad is None:
            assert Finite(matrix).size == len(matrix)
            continue
        refused += 1
        i, j, k = bad
        message = f"triangle inequality fails: d({i},{j}) > d({i},{k}) + d({k},{j})"
        with pytest.raises(InvalidSpaceError, match=f"^{re.escape(message)}$"):
            Finite(matrix)
    assert 100 < refused < 300


def test_exact_matrix_is_compared_without_slack():
    eps = Fraction(1, 10**30)
    assert Finite(((0, 1, 2), (1, 0, 1), (2, 1, 0))).size == 3
    with pytest.raises(InvalidSpaceError, match=re.escape("d(0,2) > d(0,1) + d(1,2)")):
        Finite(((0, 1, 2 + eps), (1, 0, 1), (2 + eps, 1, 0)))


def test_finite_space_file_refuses_rows_after_the_matrix(tmp_path):
    path = tmp_path / "extra.txt"
    path.write_text("2\n0 1\n1 0\n5 5\ngarbage here\n", encoding="utf-8")
    with pytest.raises(ParseError, match="unexpected line after the 2 rows") as info:
        load_finite_space(str(path))
    assert info.value.line == 4
    # blank and comment lines after the matrix are allowed
    path.write_text("2\n0 1\n1 0\n\n# end of matrix\n   \n", encoding="utf-8")
    assert load_finite_space(str(path), exact=True).matrix == ((0, 1), (1, 0))


@pytest.mark.parametrize("kind", ("exact", "float", "mixed"))
def test_warm_and_fresh_finite_spaces_are_equal_and_pickle_alike(kind):
    # the caches a space fills at construction and in solves stay out of ==,
    # hash and pickles; a fresh copy computes the same units on first use
    line = [0, Fraction(1, 2), 2, Fraction(7, 3)]
    exact = [[abs(a - b) for b in line] for a in line]
    if kind == "float":
        exact = [[float(d) for d in row] for row in exact]
    elif kind == "mixed":
        exact[0][3] = exact[3][0] = float(exact[0][3])
    matrix = tuple(tuple(row) for row in exact)
    warm = Finite(matrix)
    half = Fraction(1, 2)
    mu = DiscreteMeasure(warm, ((FinitePoint(1), half), (FinitePoint(2), half)))
    nu = DiscreteMeasure(warm, ((FinitePoint(2), half), (FinitePoint(3), half)))
    assert solve_wasserstein(mu, nu, p=1).arithmetic == ("float" if kind == "float" else "exact")
    assert "_unit_matrix" in vars(warm)
    fresh = pickle.loads(pickle.dumps(Finite(matrix)))
    assert "_unit_matrix" not in vars(fresh)
    assert warm == fresh and hash(warm) == hash(fresh)
    assert pickle.dumps(warm) == pickle.dumps(fresh)
    assert warm._unit_matrix == fresh._unit_matrix


# which entries of the five-point tree are spelled Fraction(k) rather than int k
_SPELLED = {
    "int": lambda i, j: False,
    "odd": lambda i, j: (i + j) % 2 == 1,
    "one": lambda i, j: {i, j} == {3, 4},
}


def _spelled_tree(spelling):
    spelled = _SPELLED[spelling]
    matrix = five_point_tree_space().matrix
    return Finite(
        tuple(
            tuple(Fraction(d) if spelled(i, j) else d for j, d in enumerate(row))
            for i, row in enumerate(matrix)
        )
    )


def _crossed_fractions(mu, nu, p):
    """Whether each row's and column's path from row 0 in the final tree crosses a Fraction entry."""
    space, rows, cols = mu.space, mu.support, nu.support
    m, n = len(rows), len(cols)
    cost, Lc = space._unit_costs(rows, cols, p)
    a, b, L = _joint_units(mu._mass_units, nu._mass_units)
    adj = _transport_simplex(a, b, cost, m, n, L * Lc, 10 * m * n)[4]
    crossed = [None] * (m + n)
    crossed[0] = False
    stack = [0]
    while stack:
        node = stack.pop()
        for nb in adj[node]:
            if crossed[nb] is None:
                i, k = (nb, node - m) if nb < m else (node, nb - m)
                entry = space.matrix[rows[i].index][cols[k].index]
                crossed[nb] = crossed[node] or isinstance(entry, Fraction)
                stack.append(nb)
    return crossed[:m], crossed[m:]


@pytest.mark.parametrize("spelling", sorted(_SPELLED))
def test_potentials_are_typed_by_their_tree_path_with_and_without_the_walk(spelling):
    # an all-int space reports the kernel's int potentials as they are; a
    # space with a Fraction entry still types each potential by its path
    space = _spelled_tree(spelling)
    assert space._int_costs is (spelling == "int")
    points = [FinitePoint(k) for k in range(5)]
    rng = make_rng((157, sorted(_SPELLED).index(spelling)))
    types = set()
    for _ in range(40):
        mu, nu = _shared_measures(rng, space, points)
        for p in (1, 2):
            result = solve_wasserstein(mu, nu, p=p)
            assert result.arithmetic == "exact"
            assert repr(result.dual_potentials) == repr(_tree_hung_potentials(mu, nu, p))
            for values, crossed in zip(result.dual_potentials, _crossed_fractions(mu, nu, p)):
                assert [type(x) is Fraction for x in values] == crossed
                types.update(type(x) for x in values)
    assert types == ({int} if spelling == "int" else {int, Fraction})


@pytest.mark.parametrize("kind", ("exact", "float", "mixed", "int"))
def test_the_int_costs_flag_stays_out_of_equality_hash_repr_and_pickles(kind):
    line = [0, Fraction(1, 2), 2, Fraction(7, 3)]
    exact = [[abs(a - b) for b in line] for a in line]
    if kind == "float":
        exact = [[float(d) for d in row] for row in exact]
    elif kind == "mixed":
        exact[0][3] = exact[3][0] = float(exact[0][3])
    matrix = five_point_tree_space().matrix if kind == "int" else tuple(map(tuple, exact))
    warm = Finite(matrix)
    assert warm._int_costs is (kind in ("float", "int"))
    assert "_int_costs" in vars(warm)
    fresh = pickle.loads(pickle.dumps(Finite(matrix)))
    assert "_int_costs" not in vars(fresh)
    assert warm == fresh and hash(warm) == hash(fresh) and repr(warm) == repr(fresh)
    assert pickle.dumps(warm) == pickle.dumps(fresh)
    assert fresh._int_costs is warm._int_costs
