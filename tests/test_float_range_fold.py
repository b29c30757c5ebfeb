"""``plain_sum`` owns the edge of the float range, and float solves refuse what they cannot carry.

A sum in which an exact term too large for a float meets a float is ``inf``:
``plain_sum`` returns it when an ``OverflowError`` reaches its loop, also one
raised by the generator that feeds it. No caller catches ``OverflowError``
around a ``plain_sum`` call; a static scan of the package holds that.

A float solve whose exact costs or potentials lie beyond the float range
raises the ``DomainError`` of a cost beyond the float range, and so does
every entry point built on such a solve; a ratio-set residual that meets an
exact distance beyond the float range with a float lambda raises the one of a
distance.
"""

import ast
import inspect
import math
import pathlib
import textwrap
from fractions import Fraction

import pytest

import otlab.rigidity
from otlab import DiscreteMeasure, DomainError, Euclidean, EuclideanPoint, Product, ProductPoint
from otlab._numbers import plain_sum
from otlab.metric import triangle_defect
from otlab.rigidity import (
    build_geodesic_extension,
    geodesic_speed_check,
    ratio_set_membership,
    ratio_set_scan,
)
from otlab.solver import coupling_cost, kr_dual, solve_wasserstein

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "otlab"

COST_ERROR = r"a cost d\*\*p at p=.* is beyond the float range"
DISTANCE_ERROR = "a distance is beyond the float range"

BIG = 10**400


# ---------------------------------------------------------------------------
# the fold


def test_an_exact_term_beyond_the_float_range_meeting_a_float_is_inf():
    assert plain_sum([0.5, BIG]) == math.inf


def test_an_overflow_raised_by_the_feeding_generator_is_inf():
    assert plain_sum(x * 0.5 for x in [BIG]) == math.inf


def test_a_float_sum_beyond_the_float_range_is_inf():
    assert plain_sum([1e308, 1e308]) == math.inf


def test_an_exact_sum_beyond_the_float_range_stays_exact():
    total = plain_sum([BIG, 1])
    assert total == BIG + 1
    assert type(total) is int


def test_the_sign_of_an_overflowing_sum_is_not_kept():
    assert plain_sum([0.5, -BIG]) == math.inf


# ---------------------------------------------------------------------------
# no caller catches OverflowError around the fold


def _names_overflow(handler):
    kind = handler.type
    names = kind.elts if isinstance(kind, ast.Tuple) else [kind]
    return any(isinstance(n, ast.Name) and n.id == "OverflowError" for n in names)


def _calls_plain_sum(statements):
    for stmt in statements:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                f = node.func
                if (isinstance(f, ast.Name) and f.id == "plain_sum") or (
                    isinstance(f, ast.Attribute) and f.attr == "plain_sum"
                ):
                    return True
    return False


def overflow_guarded_sums(source):
    """The lines of the ``try`` statements in ``source`` that call ``plain_sum`` and catch ``OverflowError``."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Try)
        and _calls_plain_sum(node.body)
        and any(_names_overflow(h) for h in node.handlers if h.type is not None)
    ]


def test_scan_finds_overflow_handlers_around_plain_sum():
    source = (
        "try:\n"
        "    total = plain_sum(xs)\n"
        "except OverflowError:\n"
        "    total = inf\n"
        "try:\n"
        "    total = _numbers.plain_sum(x for x in xs)\n"
        "except (ValueError, OverflowError):\n"
        "    pass\n"
        "try:\n"
        "    total = plain_sum(xs)\n"
        "except ValueError:\n"
        "    pass\n"
        "try:\n"
        "    total = float(x)\n"
        "except OverflowError:\n"
        "    pass\n"
        "total = plain_sum(xs)\n"
    )
    assert overflow_guarded_sums(source) == [1, 5]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_module_catches_no_overflow_around_plain_sum(path):
    assert overflow_guarded_sums(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "fn",
    [Euclidean._sq, triangle_defect, coupling_cost, otlab.rigidity._dirac_distance],
    ids=["Euclidean._sq", "triangle_defect", "coupling_cost", "_dirac_distance"],
)
def test_sums_left_to_the_fold_catch_no_overflow(fn):
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    assert not any(_names_overflow(h) for h in ast.walk(tree) if isinstance(h, ast.ExceptHandler) and h.type)


# ---------------------------------------------------------------------------
# float solves beyond the float range


E1 = Euclidean(1)
HALF = Fraction(1, 2)


def pt(x):
    return EuclideanPoint((x,))


def _far_pair(space, point, half, quarter):
    mu = DiscreteMeasure(space, ((point(0), half), (point(BIG), half)))
    nu = DiscreteMeasure(space, ((point(1), quarter), (point(BIG + 3), 3 * quarter)))
    return mu, nu


def _dirac(x):
    return DiscreteMeasure(E1, ((pt(x), 1),))


def _float_line_pair():
    return _far_pair(E1, pt, 0.5, 0.25)


def _float_product_pair():
    return _far_pair(Product(HALF, 2, E1), lambda x: ProductPoint(0, pt(x)), 0.5, 0.25)


REPROS = {
    "solve-p1": lambda: solve_wasserstein(*_float_line_pair(), p=1),
    "solve-p2": lambda: solve_wasserstein(*_float_line_pair(), p=2),
    "kr-dual": lambda: kr_dual(*_float_line_pair()),
    "product-p2": lambda: solve_wasserstein(*_float_product_pair(), p=2),
    "ratio-set-scan": lambda: ratio_set_scan(*_far_pair(E1, pt, HALF, Fraction(1, 4)), 0.5, []),
    "geodesic-speed": lambda: geodesic_speed_check(
        build_geodesic_extension(E1, _dirac(BIG), pt(0), pt(1), HALF), [(0.1, 0.5)]
    ),
}


@pytest.mark.parametrize("case", sorted(REPROS))
def test_a_float_solve_beyond_the_float_range_is_a_cost_domain_error(case):
    with pytest.raises(DomainError, match=COST_ERROR):
        REPROS[case]()


def test_a_float_solve_that_stalls_beyond_the_float_range_is_a_cost_domain_error():
    # the least-cost start is not optimal here, so a budget of 0 pivots stalls,
    # and the stall's current cost meets the exact costs beyond the float range
    mu = DiscreteMeasure(E1, ((pt(0), 0.5), (pt(BIG), 0.25), (pt(2 * BIG), 0.25)))
    nu = DiscreteMeasure(E1, ((pt(1), 0.25), (pt(BIG + 1), 0.25), (pt(2 * BIG + 1), 0.5)))
    with pytest.raises(DomainError, match=COST_ERROR):
        solve_wasserstein(mu, nu, p=1, pivot_budget=0)


def test_a_float_lambda_times_a_distance_beyond_the_float_range_is_a_distance_domain_error():
    with pytest.raises(DomainError, match=DISTANCE_ERROR):
        ratio_set_membership(_dirac(BIG // 2), _dirac(0), _dirac(BIG), 0.5)
