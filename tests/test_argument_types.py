"""Arguments of the wrong type are refused with a DomainError, and a negative window has a spelling.

A bool is not a cost exponent at any of the four entry points that take p,
though ``True == 1``: a result with ``p=True`` cannot be written as JSON. A
``max_cycle`` that is not an integer (bools included) is refused before
``range`` meets it; numpy integers stay accepted. ``--window`` with a
negative lower end is written ``--window=lo:hi`` (argparse reads ``-5:5``
alone as an option), or as the config entry ``window = lo:hi``.
"""

from fractions import Fraction

import numpy as np
import pytest

from otlab import DomainError, Interval, IntervalPoint, DiscreteMeasure, solve_wasserstein
from otlab.cli import _build_parser, build_config
from otlab.solver import check_cyclical_monotonicity

from test_exponent_rule import KINDS, entry_points


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("kind", KINDS)
def test_a_bool_exponent_is_refused_everywhere(kind, exact):
    for name, call in entry_points(kind, exact).items():
        for p in (True, False):
            with pytest.raises(DomainError) as info:
                call(p)
            assert str(info.value) == f"cost exponent p={p} is a bool, not a number", name


def _swapped_plan():
    # two atoms each way on the interval; the optimal plan has two cells
    h = Fraction(1, 2)
    mu = DiscreteMeasure(Interval(1), ((IntervalPoint(Fraction(0)), h), (IntervalPoint(h), h)))
    nu = DiscreteMeasure(Interval(1), ((IntervalPoint(Fraction(1, 4)), h), (IntervalPoint(Fraction(1)), h)))
    return solve_wasserstein(mu, nu, p=1).coupling


@pytest.mark.parametrize("max_cycle", [2.5, 3.0, Fraction(3), "3", None, True, False, np.bool_(True)])
def test_a_max_cycle_that_is_not_an_integer_is_refused(max_cycle):
    with pytest.raises(DomainError) as info:
        check_cyclical_monotonicity(_swapped_plan(), max_cycle=max_cycle)
    assert str(info.value) == f"max_cycle must be an integer, got {max_cycle!r}"


def test_integer_max_cycles_keep_their_behaviour():
    plan = _swapped_plan()
    want = check_cyclical_monotonicity(plan, max_cycle=3)
    assert check_cyclical_monotonicity(plan, max_cycle=np.int64(3)) == want
    for below in (1, np.int64(1), 0, -3):
        with pytest.raises(DomainError, match="^max_cycle must be at least 2$"):
            check_cyclical_monotonicity(plan, max_cycle=below)


@pytest.mark.parametrize("mode, want", [("float", (-5.0, 5.0)), ("rational", (-5, 5))])
def test_a_negative_window_reads_from_the_flag_and_the_file(mode, want, tmp_path):
    flag = build_config(_build_parser().parse_args(["verify", "metric-axioms", "--mode", mode, "--window=-5:5"]))
    config = tmp_path / "cfg.txt"
    config.write_text(f"mode = {mode}\nwindow = -5:5\n")
    entry = build_config(_build_parser().parse_args(["verify", "metric-axioms", "--config", str(config)]))
    for window in (flag.window, entry.window):
        assert window == want
        assert [type(x) for x in window] == [type(x) for x in want]


def test_the_help_gives_the_negative_window_form():
    assert "--window=lo:hi" in _build_parser().format_help()
