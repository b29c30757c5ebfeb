"""Validation of explicit finite metrics and of the finite-space file reader.

Every ``Finite`` matrix gets one triangle check: an all-exact matrix is
compared exactly, a float or mixed one within 1e-12 of its largest entry.
The reference is the direct triple loop of ``oracles.first_triangle_violation``.
"""

import random
import re
from fractions import Fraction

import pytest

from otlab import Finite, InvalidSpaceError, ParseError, load_finite_space

from oracles import first_triangle_violation


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
