"""Rational sampling inside the requested window."""

from fractions import Fraction

import pytest

from otlab import DomainError, Euclidean, Product, make_rng
from otlab.cli import EXIT_INVARIANT, entry
from otlab.sampling import random_measure, random_point


def _coords(window, count=200, seed=3):
    rng = make_rng(seed)
    return [
        c
        for _ in range(count)
        for c in random_point(rng, Euclidean(2), exact=True, window=window).coords
    ]


def test_fractional_window_below_one_draws_nonzero_coordinates_inside_it():
    coords = _coords(0.5)
    assert all(isinstance(c, Fraction) and -Fraction(1, 2) <= c <= Fraction(1, 2) for c in coords)
    assert any(c != 0 for c in coords)
    assert len(set(coords)) > 10
    # the draws that used to fail: distinct points on the default product
    space = Product(Fraction(1, 2), 2, Euclidean(2))
    mu = random_measure(make_rng(42), space, 12, exact=True, window=0.5, distinct_fibers=True)
    assert len(mu.support) == 12


def test_fractional_window_reaches_past_its_integer_part():
    coords = _coords(10.5)
    assert max(abs(c) for c in coords) > 10
    assert all(abs(c) <= Fraction(21, 2) for c in coords)


def test_default_window_draw_is_pinned():
    rng = make_rng(7)
    drawn = [random_point(rng, Euclidean(2), exact=True).coords for _ in range(3)]
    assert drawn == [
        (Fraction(285, 32), Fraction(5, 2)),
        (Fraction(59, 16), Fraction(255, 32)),
        (Fraction(25, 16), Fraction(177, 32)),
    ]
    point = random_point(rng, Product(Fraction(1, 2), 2, Euclidean(2)), exact=True, window=3)
    assert (point.t, point.x.coords) == (Fraction(27, 32), (Fraction(-53, 32), Fraction(-43, 16)))
    assert int(rng.integers(0, 10**9)) == 300166284


def test_window_without_a_grid_point_is_a_domain_error():
    with pytest.raises(DomainError):
        random_point(make_rng(0), Euclidean(1), exact=True, window=(0.1, 0.12))


def test_window_too_wide_for_int64_numerators_is_a_domain_error(tmp_path, capsys):
    # numerators are int64 draws: at window 2**58 the largest, 2**58 * 32, is past them
    with pytest.raises(DomainError, match="too wide"):
        random_point(make_rng(0), Euclidean(2), exact=True, window=2.0**58)
    coords = random_point(make_rng(0), Euclidean(2), exact=True, window=2.0**57).coords
    assert all(abs(c) <= 2**57 for c in coords)
    # each rational trial fails with the typed error, and the command exits 1
    report = tmp_path / "report.txt"
    args = ["verify", "metric-axioms", "--mode", "rational", "--window", "1e200", "--trials", "2"]
    code = entry([*args, "--report", str(report), "--csv", str(tmp_path / "residuals.csv")])
    assert code == EXIT_INVARIANT
    assert "Traceback" not in capsys.readouterr().err
    trials = [line for line in report.read_text().splitlines() if line.startswith("trial ")]
    assert len(trials) == 2
    assert all("FAIL note=DomainError: window" in line and "too wide" in line for line in trials)
