"""Bad arguments to ``run_suite`` and ``run_scenario`` are refused with a DomainError.

A float or bool seed, a float trial count and a tolerance that does not
compare with numbers used to reach numpy or ``range`` as a bare TypeError,
or (a bool seed) to run under the label ``True:0``; a bool tolerance broke
the report. A window of infinite width raised numpy's OverflowError, an
empty one (-1, 0, NaN) failed every trial, and one that is neither a
number nor a pair raised a bare TypeError. A non-product space reached the
fiber suites as an AttributeError. Each is now refused before any trial
runs. A finite window too wide for exact draws still fails per trial
(``tests/test_sampling.py``); a Decimal tolerance is still a number.
"""

import math
from decimal import Decimal

import numpy as np
import pytest

from otlab import DomainError, Euclidean, Interval
from otlab.campaign import run_scenario, run_suite

REFUSED = [
    ({"seed": 1.5}, "seed must be a non-negative integer, got 1.5"),
    ({"seed": True}, "seed must be a non-negative integer, got True"),
    ({"trials": 2.5}, "trial count must be an integer, got 2.5"),
    ({"trials": True}, "trial count must be an integer, got True"),
    ({"trials": 0}, "trial count must be at least 1"),
    ({"tol": "x"}, "tolerance must be a number, got 'x'"),
    ({"tol": None}, "tolerance must be a number, got None"),
    ({"tol": True}, "tolerance must be a number, got True"),
    ({"tol": 0}, "tolerance must be positive"),
    ({"tol": math.inf}, "tolerance must be finite, got inf"),
]


@pytest.mark.parametrize("kwargs, message", REFUSED)
def test_run_suite_refuses(kwargs, message):
    with pytest.raises(DomainError) as info:
        run_suite("metric-axioms", **{"trials": 1, **kwargs})
    assert str(info.value) == message


@pytest.mark.parametrize("kwargs, message", REFUSED)
def test_run_scenario_refuses(kwargs, message):
    with pytest.raises(DomainError) as info:
        run_scenario("example-2-3", **{"trials": 1, **kwargs})
    assert str(info.value) == message


@pytest.mark.parametrize(
    "window, message",
    [
        (math.inf, "sampling window [-inf, inf] is not of finite width"),
        ((0.0, math.inf), "sampling window [0.0, inf] is not of finite width"),
        (1e308, "sampling window [-1e+308, 1e+308] is not of finite width"),
        (-1, "empty sampling window [1, -1]"),
        (0, "empty sampling window [0, 0]"),
        (math.nan, "empty sampling window [nan, nan]"),
        ("5", "sampling window must be a number or a pair, got '5'"),
        ([-1, 1], "sampling window must be a number or a pair, got [-1, 1]"),
        ((0, 1, 2), "sampling window must be a number or a pair, got (0, 1, 2)"),
    ],
)
@pytest.mark.parametrize("mode", ["float", "rational"])
def test_run_suite_refuses_a_window_no_trial_can_draw_from(window, message, mode):
    with pytest.raises(DomainError) as info:
        run_suite("metric-axioms", trials=1, mode=mode, window=window)
    assert str(info.value) == message


@pytest.mark.parametrize("suite", ["fiber-flip-isometry", "pi-hat-cost"])
@pytest.mark.parametrize("space", [Interval(1), Euclidean(2)], ids=["interval", "plane"])
def test_the_fiber_suites_refuse_a_space_that_is_not_a_product(suite, space):
    with pytest.raises(DomainError) as info:
        run_suite(suite, trials=1, space=space)
    assert str(info.value) == f"{suite} needs a product space, got {space.describe()}"


def test_numpy_integers_and_a_decimal_tolerance_are_accepted():
    want = run_suite("metric-axioms", seed=3, trials=2)
    got = run_suite("metric-axioms", seed=np.int64(3), trials=np.int64(2), tol=Decimal("1e-8"))
    outcomes = [[(t.seed_label, t.residual) for t in r.trials] for r in (want, got)]
    assert outcomes[0] == outcomes[1]
