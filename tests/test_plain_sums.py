"""No package code hands a float to the builtin ``sum``.

From Python 3.12 on, the builtin ``sum`` compensates float sums, so a float
summed with it could change in its last bits between the Python versions the
README's float bit-identity covers. The package sums through
``_numbers.plain_sum`` instead. A static scan finds every call of ``sum`` in
the package's source. A dynamic test patches ``builtins.sum`` over a seeded
mix of the package's work: solves in both arithmetics, every suite and
scenario in both modes, and ``otlab dist``. It records each call made from
an ``otlab`` frame with a float among its terms.
"""

import ast
import builtins
import pathlib
import sys

import pytest

from otlab import (
    Euclidean,
    Interval,
    campaign,
    kr_dual,
    make_rng,
    random_finite_space,
    random_measure,
    solve_wasserstein,
)
from otlab.cli import EXIT_PASS, entry

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "otlab"


def sum_calls(source):
    """The lines of ``source`` that call the name ``sum``."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum"
    ]


def test_scan_finds_sum_calls():
    source = "total = sum(xs)\nsums = [sum(r) for r in rows]\nsum_x = x.sum()\n"
    assert sum_calls(source) == [1, 2]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_module_calls_no_builtin_sum(path):
    assert sum_calls(path.read_text(encoding="utf-8")) == []


PLANE_ARGS = (
    "--space", "product", "--alpha", "1/2", "--q", "2", "--base", "euclidean", "--dim", "2"
)


@pytest.fixture
def float_sums(monkeypatch):
    """The places in package code that pass a float to ``sum``, filled while the test runs."""
    real_sum = builtins.sum
    offenders = []

    def guarded_sum(iterable, /, start=0):
        terms = list(iterable)
        frame = sys._getframe(1)
        if frame.f_globals.get("__name__", "").split(".")[0] == "otlab":
            if any(isinstance(x, float) for x in (start, *terms)):
                offenders.append(f"{frame.f_code.co_filename}:{frame.f_lineno}")
        return real_sum(terms, start)

    monkeypatch.setattr(builtins, "sum", guarded_sum)
    # the guard is live: a float sum made from an otlab frame is recorded
    exec("sum([0.5, 0.25])", {"__name__": "otlab.probe"})
    assert len(offenders) == 1
    offenders.clear()
    return offenders


def test_no_package_frame_sums_floats_with_the_builtin(float_sums, measure_file, capsys):
    rng = make_rng(2012)
    for exact in (False, True):
        spaces = (
            Interval(1),
            Euclidean(2),
            campaign._default_product(exact),
            random_finite_space(rng, 6, exact=exact),
        )
        for space in spaces:
            mu = random_measure(rng, space, 5, exact=exact)
            nu = random_measure(rng, space, 4, exact=exact)
            for p in (1, 2):
                solve_wasserstein(mu, nu, p=p)
            kr_dual(mu, nu)
            kr_dual(mu, nu, independent=True)
    for mode in ("float", "rational"):
        for suite in campaign.SUITE_NAMES:
            campaign.run_suite(suite, seed=5, trials=3, mode=mode)
        for name in campaign.SCENARIO_NAMES:
            campaign.run_scenario(name, seed=5, trials=2, mode=mode)
    mu = measure_file(["0.5 0.25 1 2", "0.5 0.75 -1 0"], "product")
    nu = measure_file(["0.25 0.5 0 0", "0.75 1 3 1"], "product")
    for mode in ("float", "rational"):
        assert entry(["dist", mu, nu, *PLANE_ARGS, "--mode", mode, "--order", "1"]) == EXIT_PASS
    capsys.readouterr()
    assert float_sums == []
