"""Every exact ratio of two ints is built by ``_numbers.ratio``.

``ratio(n, d)`` is ``Fraction(n, d)`` behind a bounded cache. The value, the
type and the normal form are those of a fresh Fraction, so a shared instance
changes no result: seeded exact solves print the same with a cold cache, a
warm one, and the plain constructor. A static scan finds every two-argument
``Fraction`` call in the package's source, so a new one cannot bypass the
cache unnoticed.
"""

import ast
import pathlib
from fractions import Fraction

import pytest

from otlab import Interval, Product, kr_dual, make_rng, random_measure, solve_wasserstein, solver
from otlab._numbers import ratio
from otlab.campaign import five_point_tree_space

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "otlab"

# the one two-argument call left: a Fraction mass over a Fraction weight, not two ints
ALLOWED = {("measure.py", "disintegrate", "Fraction(m, weight)")}


@pytest.mark.parametrize(
    "n, d",
    [
        (0, 1), (0, -7), (3, 4), (-3, 4), (3, -4), (6, 8), (-6, -8), (12, 4),
        (10**40 + 2, 6), (-(10**40), 10**20),
    ],
)
def test_ratio_is_the_fraction(n, d):
    got, want = ratio(n, d), Fraction(n, d)
    assert type(got) is Fraction
    assert got == want
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert repr(got) == repr(want)
    # a repeat is the same instance
    assert ratio(n, d) is got


def test_zero_denominator_raises_and_is_not_cached():
    for _ in range(2):
        with pytest.raises(ZeroDivisionError):
            ratio(1, 0)


def test_cache_is_bounded():
    assert isinstance(ratio.cache_info().maxsize, int)


def seeded_solves():
    """The reprs of seeded exact p = 1 and p = 2 solves and KR witnesses."""
    rng = make_rng(2022)
    out = []
    for space, sizes in ((five_point_tree_space(), (3, 5)), (Product(1, 1, Interval(1)), (25, 25))):
        for _ in range(3):
            mu = random_measure(rng, space, sizes[0], exact=True)
            nu = random_measure(rng, space, sizes[1], exact=True)
            for p in (1, 2):
                result = solve_wasserstein(mu, nu, p=p)
                assert result.arithmetic == "exact" and result.certified
                out.append(repr(result))
            out.append(repr(kr_dual(mu, nu)))
    return out


def test_cold_and_warm_cache_give_the_same_solves(monkeypatch):
    ratio.cache_clear()
    cold = seeded_solves()
    warm = seeded_solves()
    assert ratio.cache_info().hits > 0
    monkeypatch.setattr(solver, "ratio", Fraction)
    assert cold == warm == seeded_solves()


def two_int_fractions(source):
    """``(function, call source)`` of each ``Fraction`` call with two arguments in ``source``."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "Fraction"
            and len(node.args) + len(node.keywords) == 2
        ):
            found.append((function, ast.get_source_segment(source, node)))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_scan_finds_two_argument_fraction_calls():
    source = (
        "HALF = Fraction(1, 2)\n"
        "ONE = Fraction(1)\n"
        "def f(n, d):\n"
        "    return [Fraction(n, denominator=d), Fraction('3/4'), ratio(n, d)]\n"
    )
    assert two_int_fractions(source) == [
        (None, "Fraction(1, 2)"),
        ("f", "Fraction(n, denominator=d)"),
    ]


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "_numbers.py"), ids=lambda p: p.name
)
def test_package_builds_no_fraction_of_two_ints_outside_ratio(path):
    calls = two_int_fractions(path.read_text(encoding="utf-8"))
    assert [c for c in calls if (path.name, *c) not in ALLOWED] == []
