"""The LP of ``kr_dual(independent=True)`` as HiGHS is handed it.

Its constraint matrix is one float64 array with a row f(i) - f(j) <= d(i, j)
per ordered pair of union points, in row-major order: +1 at column i, -1 at
column j, zeros elsewhere. A failed LP is a :class:`SolverStallError`.
"""

import types
from fractions import Fraction

import numpy as np
import pytest
import scipy.optimize

from otlab import (
    DiscreteMeasure,
    Euclidean,
    EuclideanPoint,
    Interval,
    IntervalPoint,
    Product,
    SolverStallError,
    kr_dual,
    make_rng,
    random_measure,
)


def _captured(monkeypatch, mu, nu):
    """The keyword arguments of the one ``linprog`` call, and the dual it gave."""
    calls = []
    real_linprog = scipy.optimize.linprog

    def recording_linprog(c, **kwargs):
        calls.append(kwargs)
        return real_linprog(c, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", recording_linprog)
    dual = kr_dual(mu, nu, independent=True)
    assert len(calls) == 1
    return calls[0], dual


def _pairs():
    rng = make_rng(307)
    for space in (Interval(1), Euclidean(2), Product(0.5, 2, Euclidean(2))):
        for exact in (False, True):
            for m, n in ((1, 2), (3, 3), (5, 2)):
                yield (
                    random_measure(rng, space, m, exact=exact),
                    random_measure(rng, space, n, exact=exact),
                )


@pytest.mark.parametrize("k", range(18))
def test_a_ub_is_a_float64_array_of_ordered_pairs(monkeypatch, k):
    mu, nu = list(_pairs())[k]
    kwargs, dual = _captured(monkeypatch, mu, nu)
    A = kwargs["A_ub"]
    N = len(dual.assignments)
    assert isinstance(A, np.ndarray) and A.dtype == np.float64
    assert A.shape == (N * (N - 1), N)
    pairs = [(i, j) for i in range(N) for j in range(N) if i != j]
    for row, (i, j) in zip(A, pairs):
        assert row[i] == 1.0 and row[j] == -1.0
        assert np.count_nonzero(row) == 2
    assert len(kwargs["b_ub"]) == len(pairs)


def test_a_shared_point_is_one_column(monkeypatch):
    # 0.5 and 1/2 are one union point; the LP has three columns, not four
    space = Interval(1)
    mu = DiscreteMeasure(space, ((IntervalPoint(0.5), 0.5), (IntervalPoint(0.0), 0.5)))
    nu = DiscreteMeasure(space, ((IntervalPoint(Fraction(1, 2)), 0.25), (IntervalPoint(1.0), 0.75)))
    kwargs, dual = _captured(monkeypatch, mu, nu)
    assert kwargs["A_ub"].shape == (6, 3)
    assert [p for p, _ in dual.assignments] == [IntervalPoint(0.0), IntervalPoint(0.5), IntervalPoint(1.0)]
    assert dual.value == pytest.approx(0.625)


def test_a_failed_lp_is_a_stall(monkeypatch):
    def failing_linprog(c, **kwargs):
        return types.SimpleNamespace(success=False, message="stub refuses", x=None)

    monkeypatch.setattr(scipy.optimize, "linprog", failing_linprog)
    space = Euclidean(1)
    mu = DiscreteMeasure(space, ((EuclideanPoint((0.0,)), 1.0),))
    nu = DiscreteMeasure(space, ((EuclideanPoint((1.0,)), 1.0),))
    with pytest.raises(SolverStallError) as info:
        kr_dual(mu, nu, independent=True)
    assert str(info.value) == "independent dual LP failed: stub refuses"
