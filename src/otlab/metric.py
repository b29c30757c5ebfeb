"""Metric spaces and points.

Four space kinds, all immutable:

* ``Interval(alpha)``: [0, 1] under the snowflaked metric |t - t'|^alpha.
* ``Euclidean(dim)``: R^dim with the Euclidean metric.
* ``Finite(matrix)``: an explicit finite metric, fully validated.
* ``Product(alpha, q, base)``: [0, 1] x X under
  ``(|t - t'|^(alpha*q) + d_X(x, x')^q) ** (1/q)``,
  the snowflake-interval product over a base space X.

Distances stay exact (int/Fraction in, Fraction out) whenever the exponent
arithmetic allows; q-th roots are deferred to ``distance`` so powered values
can be compared without ever taking roots in exact mode.

Every space kind also builds the whole m x n matrix of powered distances
between two point lists with ``cost_matrix``, from one formula per kind run
by an evaluator: ``_Floats`` in numpy on float coordinates, cell for cell
bit-identical to ``powered_distance``, or ``_Units`` in integer units when
every cell is exact, for the solver's exact path. An evaluator that cannot
build a matrix gives up, and ``_float_costs`` or ``_unit_costs`` returns None.
``cost_matrix`` broadcasts only a matrix of more than ``_PER_CELL_MAX`` (25)
cells: up to about that size, numpy's fixed cost per call exceeds the
per-cell code's.

A space method gives ``inf`` for a value beyond the float range, never an
``OverflowError``; only the root of an exact value beyond it is a
:class:`DomainError`. The entry points (``cost_matrix``, ``powered_distance``,
``triangle_defect``, ``metric_segment``) refuse ``inf`` with a DomainError.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Union

import numpy as np

from .errors import DomainError, InvalidSpaceError, ParseError, SpaceMismatchError
from ._numbers import (
    all_exact,
    denominator_lcm,
    format_number,
    integer_units,
    is_exact,
    parse_number,
    plain_sum,
    powered_abs,
    ratio,
    read_entries,
    root,
    tolerance,
)

__all__ = [
    "IntervalPoint",
    "EuclideanPoint",
    "FinitePoint",
    "ProductPoint",
    "Point",
    "Interval",
    "Euclidean",
    "Finite",
    "Product",
    "MetricSpace",
    "point_sort_key",
    "distance",
    "powered_distance",
    "triangle_defect",
    "metric_segment",
    "segment_is_trivial",
    "load_finite_space",
]

_MAX_FINITE_POINTS = 256
_MIN_NORMAL = sys.float_info.min  # the smallest normal float, about 2.2e-308
# it and the largest float (about 1.8e308) as exact numbers, for exact sums
_EXACT_MIN_NORMAL = Fraction(_MIN_NORMAL)
_MAX_FLOAT = int(sys.float_info.max)
# cost matrices of at most this many cells take the scalar code even on float
# coordinates: up to about it, numpy's fixed cost per call exceeds the
# per-cell code's on the slowest kind per cell, a Product at p != q (README)
_PER_CELL_MAX = 25


# ---------------------------------------------------------------------------
# points


@dataclass(frozen=True)
class IntervalPoint:
    t: Union[int, float, Fraction]

    def sort_key(self):
        return (self.t,)


@dataclass(frozen=True)
class EuclideanPoint:
    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))

    def sort_key(self):
        return self.coords


@dataclass(frozen=True)
class FinitePoint:
    index: int

    def sort_key(self):
        return (self.index,)


@dataclass(frozen=True)
class ProductPoint:
    t: Union[int, float, Fraction]
    x: Union[IntervalPoint, EuclideanPoint, FinitePoint]

    def sort_key(self):
        return (self.t,) + self.x.sort_key()


Point = Union[IntervalPoint, EuclideanPoint, FinitePoint, ProductPoint]


def point_sort_key(point):
    """Canonical lexicographic key used to order measure atoms."""
    return point.sort_key()


# ---------------------------------------------------------------------------
# cost matrices: one formula per space kind, two evaluators
#
# ``_costs(ev, rows, cols, p)`` of every space kind is its one formula for the
# matrix of ``powered_distance``, in the operations of an evaluator ``ev``.
# ``delta`` and ``power`` check their own exponent; a formula passes any other
# to ``ev.check`` first, so the units refuse a matrix (``_GiveUp``) before a cell.
# ``rescue`` is a float-only step: a formula calls it only after ``ev.check`` of
# a non-integral exponent (p / 2, or 1 / q at q != 1), which the units refuse.


class _GiveUp(Exception):
    """An evaluator cannot build the cost matrix asked of it."""


def _floats(values):
    """The list ``values`` as a float64 array when every one is a Python float, else None."""
    if all(type(v) is float for v in values):
        return np.array(values, dtype=float)
    return None


class _Floats:
    """The formulas on float64 arrays, when every coordinate (or ``Finite`` entry) is a float.

    Each operation repeats the scalar code's operations in the same order, so
    every cell comes out bit for bit the same. Differences, abs, products, sums
    and square roots are IEEE operations with one correctly rounded result in
    numpy and in Python alike. ``np.power`` is not: it differs from Python's
    float ``**`` (libm ``pow``) in the last digit, even at integer exponents,
    so every power other than 1 goes through Python's ``**`` one cell at a time.
    """

    def check(self, *exponents):
        pass  # every exponent has a float power

    def delta(self, ys, zs, e):
        """``powered_abs(y - z, e)`` over ys x zs."""
        s, t = _floats(ys), _floats(zs)
        if s is None or t is None:
            raise _GiveUp
        return self.power(np.abs(s[:, None] - t[None, :]), e)

    def mul(self, a, b):
        return a * b

    def add(self, a, b):
        return a + b

    def power(self, values, e):
        """``x ** e`` for every cell x by :func:`powered_abs`: inf where it is beyond the float range.

        The array is returned as it is at exponent 1, where powered_abs
        leaves a magnitude alone.
        """
        e = float(e)
        if e == 1.0:
            return values
        return np.array([[powered_abs(x, e) for x in row] for row in values.tolist()], dtype=float)

    def root(self, values, q):
        """:func:`root` over costs.

        ``root`` clamps negative rounding dust to zero first; a cost here is a
        sum of nonnegative terms, so there is none to clamp.
        """
        if q == 2:
            return np.sqrt(values)
        return self.power(values, 1.0 / float(q))  # the values as they are at q == 1

    def entries(self, space, rows, cols):
        """The cells ``abs(d(y, z))`` of a ``Finite`` space's float matrix."""
        matrix = space._float_matrix
        if matrix is None:
            raise _GiveUp
        r = np.array([y.index for y in rows], dtype=np.intp)
        c = np.array([z.index for z in cols], dtype=np.intp)
        return np.abs(matrix[np.ix_(r, c)])

    def rescue(self, space, costs, sums, rows, cols, p):
        """``costs``, the roots of the float ``sums``, redone where a sum may have lost its root.

        Each cell whose sum is inf or below the smallest normal float takes
        ``powered_distance``, which rescales it where :func:`_lost_root` says so.
        """
        for i, j in np.argwhere((sums < _MIN_NORMAL) | np.isinf(sums)).tolist():
            costs[i, j] = space.powered_distance(rows[i], cols[j], p)
        return costs


class _Units:
    """The formulas in exact integer units, when every cell is an int or a Fraction.

    A matrix is ``(C, S)``, a list of lists of ints with C[i][k] / S the
    cell. Coordinates are scaled once by the lcm of their denominators, so no
    Fraction is made per cell. An exponent must be integral, by the rule of
    ``powered_abs``.
    """

    def check(self, *exponents):
        if any(e != int(e) for e in exponents):
            raise _GiveUp

    def delta(self, ys, zs, e):
        self.check(e)
        if not all_exact(ys + zs):
            raise _GiveUp
        units, L = integer_units(ys + zs)
        rows, cols = units[: len(ys)], units[len(ys) :]
        if e == 1:
            return [[abs(y - z) for z in cols] for y in rows], L
        e = int(e)
        return [[abs(y - z) ** e for z in cols] for y in rows], L**e

    def mul(self, a, b):
        (A, sa), (B, sb) = a, b
        return [[x * y for x, y in zip(ra, rb)] for ra, rb in zip(A, B)], sa * sb

    def add(self, a, b):
        (A, sa), (B, sb) = a, b
        scale = math.lcm(sa, sb)
        ka, kb = scale // sa, scale // sb
        return [[x * ka + y * kb for x, y in zip(ra, rb)] for ra, rb in zip(A, B)], scale

    def power(self, units, e):
        if e == 1:
            return units
        self.check(e)
        e = int(e)
        C, S = units
        return [[c**e for c in row] for row in C], S**e

    def root(self, units, q):
        return units  # a formula checked 1 / q first, so q == 1

    def entries(self, space, rows, cols):
        matrix, L, has_float = space._unit_matrix
        picks = [z.index for z in cols]
        cells = [[matrix[y.index][k] for k in picks] for y in rows]
        # a mixed matrix can have all-exact blocks, so only the selected cells count
        if has_float and any(None in row for row in cells):
            raise _GiveUp
        return cells, L


# the evaluators hold no state, so one of each serves every matrix
_FLOATS = _Floats()
_UNITS = _Units()


# ---------------------------------------------------------------------------
# distances whose sum of q-th powers leaves the float range: ``Euclidean``
# (dim >= 2, q = 2) and ``Product`` (q > 1) take the scaled form where the sum
# has lost its root, and only there, since elsewhere the two may differ in the
# last digit


def _lost_root(total, a, b):
    """Whether ``total``, the sum of q-th powers of d(a, b), has lost its root.

    It has when it is beyond the float range (inf, or above the largest float
    when exact), or below the smallest normal float while a != b. An exact
    sum is compared with exact bounds, a float sum with float ones.
    """
    if isinstance(total, float):
        return total == math.inf or (total < _MIN_NORMAL and a != b)
    # an int sum is 0 (where a == b) or at least 1, so only a Fraction sum
    # pays the comparison with the smallest normal float
    small = type(total) is not int and total < _EXACT_MIN_NORMAL
    return total > _MAX_FLOAT or (small and a != b)


def _scaled_norm(magnitudes, q):
    """s * (sum((v / s) ** q)) ** (1/q) in floats, s the largest |v| (Blue, ACM TOMS 1978).

    Scaled by s, the largest term is 1, so no power overflows or loses the
    distance. A magnitude too large for a float makes the result inf; one
    below the normal floats keeps the few digits its float has.
    """
    try:
        floats = [abs(float(v)) for v in magnitudes]
    except OverflowError:  # an exact magnitude beyond the float range, or a float meeting one
        return math.inf
    s = max(floats)
    if s == 0.0 or s == math.inf:
        return s
    e = float(q)
    total = plain_sum(r * r if q == 2 else r**e for r in (v / s for v in floats))
    return s * root(total, q)


# ---------------------------------------------------------------------------
# spaces
#
# ``_int_cost(a, b)`` of every space kind says whether an exact
# ``powered_distance(a, b, p)`` is an int rather than a Fraction. The solver
# asks it on the cells of its final tree only, to give each potential the type
# the Fraction arithmetic along its tree path would give it.


def _no_fraction(values):
    """Whether no value is a Fraction.

    Each space kind's ``_int_cost`` applies it to the exact values a cell is
    built from: ints (bools among them) give an int cost, and any Fraction
    makes the cost a Fraction, also an integral one such as ``Fraction(1)``.
    """
    return not any(isinstance(v, Fraction) for v in values)


class _CostMatrix:
    """The cost matrix every space kind builds from its ``_costs`` formula."""

    _int_costs = False  # whether every exact cost is an int (in units of 1); see ``Finite``

    def cost_matrix(self, rows, cols, p):
        """The m x n list of lists of ``powered_distance(y, z, p)``, y in rows, z in cols.

        The points must already be valid points of the space and p >= 1. A
        matrix of more than ``_PER_CELL_MAX`` cells whose coordinates (matrix
        entries, for a ``Finite`` space) are all floats is broadcast in numpy,
        cell for cell bit-identical to the scalar code; any other is built
        cell by cell by the scalar code. A cell beyond the float range
        (``inf``) is a :class:`DomainError`: no solve runs on it.
        """
        return self._cost_matrix_and_array(rows, cols, p)[0]

    def _cost_matrix_and_array(self, rows, cols, p):
        """``cost_matrix``, and its float64 array where it was broadcast (else None) for the float solve."""
        costs = None if len(rows) * len(cols) <= _PER_CELL_MAX else self._float_costs(rows, cols, p)
        if costs is None:
            cell = self.powered_distance
            matrix = [[cell(y, z, p) for z in cols] for y in rows]
            finite = not any(math.inf in row for row in matrix)  # no cost is NaN or negative
        else:
            finite = bool(np.isfinite(costs).all())
            matrix = costs.tolist()
        if not finite:
            raise _cost_beyond_range(p)
        return matrix, costs

    def _float_costs(self, rows, cols, p):
        """The cost matrix as a float64 array, or None unless every coordinate is a float."""
        try:
            # a difference or a square can overflow; cost_matrix refuses the
            # inf cells, so numpy need not warn about them
            with np.errstate(over="ignore", invalid="ignore"):
                return self._costs(_FLOATS, rows, cols, p)
        except _GiveUp:
            return None

    def _unit_costs(self, rows, cols, p):
        """The cost matrix in integer units, or None unless every cell is exact."""
        try:
            return self._costs(_UNITS, rows, cols, p)
        except _GiveUp:
            return None


def _cost_beyond_range(p):
    """The error for a cost d**p beyond the float range, which a space gives as inf."""
    return DomainError(f"a cost d**p at p={format_number(p)} is beyond the float range")


def _distance_beyond_range():
    """The error for a distance beyond the float range, which a space gives as inf."""
    return DomainError("a distance is beyond the float range")


def _check_unit_range(t, what):
    # an exact Fraction on its ints: its denominator is positive
    inside = 0 <= t.numerator <= t.denominator if type(t) is Fraction else 0 <= t <= 1
    if not inside:
        raise SpaceMismatchError(f"{what} coordinate {t!r} outside [0, 1]")


def _check_cost_exponent(p):
    """The one rule for a cost exponent p: a finite number >= 1, not a bool, or a DomainError."""
    if isinstance(p, bool):
        raise DomainError(f"cost exponent p={p!r} is a bool, not a number")
    if not 1 <= p < math.inf:
        rule = "be finite" if p == math.inf else "be >= 1"
        raise DomainError(f"cost exponent p={p!r} must {rule}")


def _check_alpha(alpha):
    if isinstance(alpha, bool) or not (0 < alpha <= 1):
        raise InvalidSpaceError(f"snowflake exponent alpha={alpha!r} is not a number in (0, 1]")


@dataclass(frozen=True)
class Interval(_CostMatrix):
    """[0, 1] with d(t, t') = |t - t'| ** alpha."""

    alpha: Union[int, float, Fraction] = 1

    def __post_init__(self):
        _check_alpha(self.alpha)

    def validate_point(self, p):
        if not isinstance(p, IntervalPoint):
            raise SpaceMismatchError(f"expected IntervalPoint, got {type(p).__name__}")
        _check_unit_range(p.t, "interval")

    def distance(self, a, b):
        return powered_abs(a.t - b.t, self.alpha)

    def powered_distance(self, a, b, p):
        return powered_abs(a.t - b.t, _mul_exponents(self.alpha, p))

    def _int_cost(self, a, b):
        return _no_fraction((a.t, b.t))

    def _costs(self, ev, rows, cols, p):
        return ev.delta([y.t for y in rows], [z.t for z in cols], _mul_exponents(self.alpha, p))

    def describe(self):
        return f"interval:alpha={format_number(self.alpha)}"


@dataclass(frozen=True)
class Euclidean(_CostMatrix):
    """R^dim with the Euclidean metric. dim == 1 stays exact for exact inputs."""

    dim: int = 1

    def __post_init__(self):
        if isinstance(self.dim, bool) or not (isinstance(self.dim, int) and self.dim >= 1):
            raise InvalidSpaceError(f"dimension must be a positive integer, got {self.dim!r}")

    def validate_point(self, p):
        if not isinstance(p, EuclideanPoint):
            raise SpaceMismatchError(f"expected EuclideanPoint, got {type(p).__name__}")
        if len(p.coords) != self.dim:
            raise SpaceMismatchError(
                f"point has {len(p.coords)} coordinates, space has dimension {self.dim}"
            )
        for c in p.coords:
            if isinstance(c, float) and not math.isfinite(c):
                raise SpaceMismatchError(f"coordinate {c!r} is not finite")

    def _sq(self, a, b):
        try:
            return plain_sum(d * d for d in map(operator.sub, a.coords, b.coords))
        except OverflowError:  # a float met an exact value beyond the float range
            return math.inf

    def distance(self, a, b):
        if self.dim == 1:
            try:
                return abs(a.coords[0] - b.coords[0])
            except OverflowError:  # a float met an exact coordinate beyond the float range
                return math.inf
        sq = self._sq(a, b)
        # a normal float square is tested inline, without a call to the rule
        if (type(sq) is not float or not _MIN_NORMAL <= sq < math.inf) and _lost_root(sq, a, b):
            d = _scaled_norm(map(operator.sub, a.coords, b.coords), 2)
            # a distance beyond the float range too: inf from a float square,
            # a DomainError from an exact one
            return d if d < math.inf else root(sq, 2)
        return math.sqrt(sq)

    def powered_distance(self, a, b, p):
        if self.dim == 1:
            return powered_abs(self.distance(a, b), p)
        sq = self._sq(a, b)
        if p == int(p) and int(p) % 2 == 0:
            # the cost is a power of the square itself; where the square
            # underflows, so does the cost
            return powered_abs(sq, int(p) // 2)
        if _lost_root(sq, a, b):  # the distance may fit where its square does not
            d = _scaled_norm(map(operator.sub, a.coords, b.coords), 2)
            if d < math.inf:
                return powered_abs(d, p)
        return powered_abs(sq, p / 2)

    def _int_cost(self, a, b):
        return _no_fraction(a.coords + b.coords)

    def _costs(self, ev, rows, cols, p):
        if self.dim == 1:
            return ev.delta([y.coords[0] for y in rows], [z.coords[0] for z in cols], p)
        # _sq's running sum of d * d, raised to p / 2; the units of each dimension
        # merge to those of all coordinates: the lcm of squares is the lcm squared
        half = _mul_exponents(p, ratio(1, 2))
        ev.check(half)
        for k in range(self.dim):
            d = ev.delta([y.coords[k] for y in rows], [z.coords[k] for z in cols], 1)
            sq = ev.mul(d, d) if k == 0 else ev.add(sq, ev.mul(d, d))
        costs = ev.power(sq, half)
        return costs if half == int(half) else ev.rescue(self, costs, sq, rows, cols, p)

    def describe(self):
        return f"euclidean:dim={self.dim}"


@np.errstate(over="ignore")  # a float triangle sum beyond the float range is inf, above every entry
def _validate_finite_matrix(matrix):
    """Check that ``matrix`` is a finite metric.

    Returns the ``Finite._unit_matrix`` of an all-exact matrix, else None.
    """
    n = len(matrix)
    if n == 0:
        raise InvalidSpaceError("finite space needs at least one point")
    if n > _MAX_FINITE_POINTS:
        raise InvalidSpaceError(f"finite space capped at {_MAX_FINITE_POINTS} points, got {n}")
    for i, row in enumerate(matrix):
        if len(row) != n:
            raise InvalidSpaceError(f"row {i} has length {len(row)}, expected {n}")
    for i in range(n):
        if matrix[i][i] != 0:
            raise InvalidSpaceError(f"nonzero diagonal entry at ({i}, {i})")
        for j in range(i + 1, n):
            # an exact entry facing a float one would make a solve's arithmetic
            # depend on its direction
            if matrix[i][j] != matrix[j][i] or is_exact(matrix[i][j]) != is_exact(matrix[j][i]):
                raise InvalidSpaceError(f"asymmetric entries at ({i}, {j})")
            if not matrix[i][j] > 0:
                raise InvalidSpaceError(f"off-diagonal entry at ({i}, {j}) must be positive")
            if matrix[i][j] == math.inf:
                raise InvalidSpaceError(f"entry at ({i}, {j}) is not finite")
    # one triangle check per k for every matrix: an all-exact one is compared
    # exactly, on its integer units; a float or mixed one in float64, with a
    # slack of 1e-12 times its largest entry for decimal-to-binary round-off
    flat = [v for row in matrix for v in row]
    units = None
    if all_exact(flat):
        flat, L = integer_units(flat)  # the entries times L, as ints
        units = [flat[i : i + n] for i in range(0, n * n, n)], L, False
        D, slack = np.array(flat, dtype=object), 0
    else:
        values = []
        for k, v in enumerate(flat):
            try:
                values.append(float(v))
            except OverflowError:  # an exact entry too large for a float
                raise InvalidSpaceError(
                    f"entry at ({k // n}, {k % n}) is beyond the float range"
                ) from None
        D = np.array(values)
        slack = 1e-12 * D.max()
    D = D.reshape(n, n)
    for k in range(n):
        through_k = D[:, k, None] + D[None, k, :]
        if slack:  # skips n * n additions of int 0 on an exact matrix
            through_k += slack
        bad = D > through_k
        if bad.any():
            i, j = (int(x) for x in np.argwhere(bad)[0])
            raise InvalidSpaceError(
                f"triangle inequality fails: d({i},{j}) > d({i},{k}) + d({k},{j})"
            )
    return units


@dataclass(frozen=True)
class Finite(_CostMatrix):
    """Finite metric space given by its full distance matrix (indices 0..n-1)."""

    matrix: tuple = field()

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.matrix)
        object.__setattr__(self, "matrix", rows)
        units = _validate_finite_matrix(rows)
        if units is not None:
            # the check's integer units fill the cache the exact solves read
            object.__setattr__(self, "_unit_matrix", units)

    def __getstate__(self):
        # the cached arrays stay out of pickles, as they stay out of == and hash
        return {"matrix": self.matrix}

    @property
    def size(self):
        return len(self.matrix)

    def validate_point(self, p):
        if not isinstance(p, FinitePoint):
            raise SpaceMismatchError(f"expected FinitePoint, got {type(p).__name__}")
        if not (isinstance(p.index, int) and 0 <= p.index < self.size):
            raise SpaceMismatchError(f"index {p.index!r} outside 0..{self.size - 1}")

    def distance(self, a, b):
        return self.matrix[a.index][b.index]

    def powered_distance(self, a, b, p):
        return powered_abs(self.matrix[a.index][b.index], p)

    def _int_cost(self, a, b):
        return not isinstance(self.matrix[a.index][b.index], Fraction)

    @cached_property
    def _float_matrix(self):
        """The matrix as a float64 array when every entry is a float, else None."""
        flat = _floats([v for row in self.matrix for v in row])
        return None if flat is None else flat.reshape(self.size, self.size)

    def _costs(self, ev, rows, cols, p):
        return ev.power(ev.entries(self, rows, cols), p)

    @cached_property
    def _unit_matrix(self):
        """(M, L, has_float): each exact entry times L, the lcm of their denominators.

        A float entry is None in M, and has_float says whether there is one.
        """
        L = denominator_lcm([v for row in self.matrix for v in row if is_exact(v)])
        units = [
            [v.numerator * (L // v.denominator) if is_exact(v) else None for v in row]
            for row in self.matrix
        ]
        return units, L, any(None in row for row in units)

    @cached_property
    def _int_costs(self):  # true when no entry is a Fraction
        return _no_fraction(v for row in self.matrix for v in row)

    def describe(self):
        return f"finite:n={self.size}"


@dataclass(frozen=True)
class Product(_CostMatrix):
    """[0, 1] x base under the snowflake product metric.

    d((t, x), (t', x')) = (|t - t'| ** (alpha * q) + d_X(x, x') ** q) ** (1/q)
    """

    alpha: Union[int, float, Fraction]
    q: Union[int, float, Fraction]
    base: Union[Interval, Euclidean, Finite]

    def __post_init__(self):
        _check_alpha(self.alpha)
        if isinstance(self.q, bool) or not 1 <= self.q < math.inf:
            raise InvalidSpaceError(f"exponent q={self.q!r} is not a finite number >= 1")
        if isinstance(self.base, Product):
            raise InvalidSpaceError("nested product spaces are not supported")

    def validate_point(self, p):
        if not isinstance(p, ProductPoint):
            raise SpaceMismatchError(f"expected ProductPoint, got {type(p).__name__}")
        _check_unit_range(p.t, "product")
        self.base.validate_point(p.x)

    def powered_distance(self, a, b, p):
        if p == self.q:
            fiber = powered_abs(a.t - b.t, _mul_exponents(self.alpha, self.q))
            try:
                return fiber + self.base.powered_distance(a.x, b.x, self.q)
            except OverflowError:  # a float met an exact value beyond the float range
                return math.inf
        d = self.distance(a, b)
        return powered_abs(d, p)

    def _int_cost(self, a, b):
        # at p != q an exact cost is the p-th power of the one at q == 1
        return _no_fraction((a.t, b.t)) and self.base._int_cost(a.x, b.x)

    def _costs(self, ev, rows, cols, p):
        if p == self.q:
            e = _mul_exponents(self.alpha, self.q)
            ev.check(e)  # either part may refuse, before a fiber cell is built
            base = self.base._costs(ev, [y.x for y in rows], [z.x for z in cols], self.q)
            fiber = ev.delta([y.t for y in rows], [z.t for z in cols], e)
            return ev.add(fiber, base)
        # the p-th power of the q-th root, whose exponent 1 / q is integral only at q == 1
        ev.check(p, 1 / self.q)
        sums = self._costs(ev, rows, cols, self.q)
        costs = ev.power(ev.root(sums, self.q), p)
        return costs if self.q == 1 else ev.rescue(self, costs, sums, rows, cols, p)

    def distance(self, a, b):
        total = self.powered_distance(a, b, self.q)
        # a normal float sum is tested inline, as in Euclidean.distance
        off = type(total) is not float or not _MIN_NORMAL <= total < math.inf
        if self.q != 1 and off and _lost_root(total, a, b):
            d = self.base.distance(a.x, b.x)
            scaled = _scaled_norm((powered_abs(a.t - b.t, self.alpha), d), self.q)
            if scaled < math.inf:
                return scaled
        # a distance beyond the float range too: inf from float coordinates,
        # a DomainError from exact ones
        return root(total, self.q)

    def describe(self):
        return (
            f"product:alpha={format_number(self.alpha)}"
            f":q={format_number(self.q)}:{self.base.describe()}"
        )


MetricSpace = Union[Interval, Euclidean, Finite, Product]


def _mul_exponents(a, b):
    """Multiply two exponents; an integral product is an int."""
    prod = a * b
    return int(prod) if prod == int(prod) else prod


# ---------------------------------------------------------------------------
# operations


def distance(space, a, b):
    """Metric distance between two validated points of ``space``."""
    space.validate_point(a)
    space.validate_point(b)
    return space.distance(a, b)


def powered_distance(space, a, b, p):
    """d(a, b) ** p, computed without roots whenever the exponents allow; inf is a DomainError."""
    _check_cost_exponent(p)
    space.validate_point(a)
    space.validate_point(b)
    cost = space.powered_distance(a, b, p)
    if cost == math.inf:
        raise _cost_beyond_range(p)
    return cost


def triangle_defect(space, a, b, c):
    """d(a,b) + d(b,c) - d(a,c), clamped at zero.

    The clamp only absorbs rounding dust; a valid metric never produces a
    genuinely negative defect. A distance, or a sum of them, beyond the
    float range is a :class:`DomainError`.
    """
    space.validate_point(a)
    space.validate_point(b)
    space.validate_point(c)
    try:
        defect = space.distance(a, b) + space.distance(b, c) - space.distance(a, c)
    except OverflowError:  # an exact distance beyond the float range met a float one
        defect = math.inf
    if not -math.inf < defect < math.inf:  # inf, -inf, or NaN from inf - inf
        raise _distance_beyond_range()
    zero = defect - defect
    return defect if defect > zero else zero


def metric_segment(space, a, b, candidates):
    """Points among ``candidates`` lying on the metric segment [a, b].

    A candidate w qualifies when |d(a,w) + d(w,b) - d(a,b)| <= the tolerance
    of that gap: 0 for an exact gap, 1e-9 for a float one. The candidate list
    must be nonempty and contain both endpoints; the result therefore always
    contains a and b. Exact duplicates are returned once, in first-seen
    order. An inf d(a, b), or a gap adding an exact distance beyond the
    float range to a float one, is a :class:`DomainError`.
    """
    candidates = list(candidates)
    if not candidates:
        raise DomainError("metric_segment needs a nonempty candidate list")
    if a not in candidates or b not in candidates:
        raise DomainError("candidate list must contain both endpoints")
    space.validate_point(a)
    space.validate_point(b)
    d_ab = space.distance(a, b)
    if d_ab == math.inf:
        raise _distance_beyond_range()
    seen = []
    for w in candidates:
        if w in seen:
            continue
        space.validate_point(w)
        try:
            gap = space.distance(a, w) + space.distance(w, b) - d_ab
        except OverflowError:  # an exact distance beyond the float range met a float one
            raise _distance_beyond_range() from None
        if abs(gap) <= tolerance(gap):
            seen.append(w)
    return seen


def segment_is_trivial(space, a, b):
    """Analytic certificate that the metric segment [a, b] is just {a, b}.

    For a product space with alpha < 1 and q > 1 and distinct fiber
    coordinates t, strict concavity of s^alpha plus strict Minkowski
    inequality rule out intermediate points, so the answer is a certified
    True. Every other configuration returns False, meaning "not certified"
    (q == 1 genuinely admits intermediate points when the base has them,
    since the metric is then additively separable).
    """
    if not isinstance(space, Product):
        return False
    space.validate_point(a)
    space.validate_point(b)
    if a == b:
        return False
    return space.alpha < 1 and space.q > 1 and a.t != b.t


# ---------------------------------------------------------------------------
# file format: first line n, then n lines of n space-separated entries


def load_finite_space(path, exact=False):
    """Read a finite metric space from a text file.

    Format: first line holds n, then n lines of n space-separated distances.
    Numbers may be decimals or rationals ``p/q``; ``exact=True`` parses them
    as Fractions. Blank lines and ``#`` comments may appear anywhere; any
    other line after the n rows is a :class:`ParseError`.
    """
    count, entries = read_entries(path)
    rows = []
    n = None
    for lineno, text in entries:
        text = text.strip()
        if n is None:
            try:
                n = int(text)
            except ValueError:
                raise ParseError("expected point count", path=path, line=lineno, column=1) from None
            if n <= 0:
                raise ParseError("point count must be positive", path=path, line=lineno, column=1)
            continue
        if len(rows) == n:
            raise ParseError(
                f"unexpected line after the {n} rows of the matrix", path=path, line=lineno, column=1
            )
        tokens = text.split()
        if len(tokens) != n:
            raise ParseError(
                f"expected {n} entries, got {len(tokens)}", path=path, line=lineno, column=1
            )
        row = []
        for col, tok in enumerate(tokens, start=1):
            try:
                row.append(parse_number(tok, exact=exact))
            except ValueError as exc:
                raise ParseError(str(exc), path=path, line=lineno, column=col) from None
        rows.append(row)
    if n is None:
        raise ParseError("empty finite-space file", path=path, line=count or 1)
    if len(rows) != n:
        raise ParseError(f"expected {n} rows, got {len(rows)}", path=path, line=count)
    try:
        return Finite(tuple(tuple(r) for r in rows))
    except InvalidSpaceError as exc:
        raise ParseError(str(exc), path=path) from exc
