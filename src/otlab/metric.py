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
between two point lists with ``cost_matrix``; on float coordinates it
broadcasts in numpy, cell for cell bit-identical to ``powered_distance``.
When every cell is exact, ``_unit_costs`` builds the same matrix in integer
units straight from the coordinates, for the solver's exact path.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Union

import numpy as np

from .errors import DomainError, InvalidSpaceError, ParseError, SpaceMismatchError
from ._numbers import (
    DEFAULT_TOL,
    all_exact,
    denominator_lcm,
    format_number,
    integer_units,
    is_exact,
    parse_number,
    powered_abs,
    root,
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
# float cost matrices
#
# Each helper repeats, on float64 arrays, the operations of the scalar code it
# names, in the same order, so every cell comes out bit for bit the same.
# Differences, abs, products, sums and square roots are IEEE operations with
# one correctly rounded result in numpy and in Python alike. ``np.power`` is
# not: it differs from Python's float ``**`` (libm ``pow``) in the last digit,
# even at integer exponents, so every power other than 1 goes through
# Python's ``**`` one cell at a time.


def _floats(values):
    """The list ``values`` as a float64 array when every one is a Python float, else None."""
    if all(type(v) is float for v in values):
        return np.array(values, dtype=float)
    return None


def _power_cells(values, exponent):
    """``x ** exponent`` for every cell x of a 2-d float array, by Python's float ``**``.

    The array is returned as it is at exponent 1, where ``x ** 1.0 == x``.
    So ``_power_cells(np.abs(delta), e)`` is :func:`powered_abs` over an array:
    for a float magnitude, powered_abs raises it to float(e) in every branch,
    and leaves it alone at exponent 1.
    """
    e = float(exponent)
    if e == 1.0:
        return values
    return np.array([[x ** e for x in row] for row in values.tolist()], dtype=float)


def _t_costs(rows, cols, exponent):
    """``powered_abs(y.t - z.t, exponent)`` over rows x cols, or None unless every t is a float."""
    s = _floats([y.t for y in rows])
    t = _floats([z.t for z in cols])
    if s is None or t is None:
        return None
    return _power_cells(np.abs(s[:, None] - t[None, :]), exponent)


def _root_cells(values, q):
    """:func:`root` over a 2-d float array of costs.

    ``root`` clamps negative rounding dust to zero first; a broadcast cost is
    a sum of nonnegative terms, so there is none to clamp.
    """
    if q == 1:
        return values
    if q == 2:
        return np.sqrt(values)
    return _power_cells(values, 1.0 / float(q))


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
    except OverflowError:  # an exact magnitude beyond the float range
        return math.inf
    s = max(floats)
    if s == 0.0 or s == math.inf:
        return s
    e, total = float(q), 0.0
    for v in floats:
        r = v / s
        total = total + (r * r if q == 2 else r**e)
    return s * root(total, q)


# ---------------------------------------------------------------------------
# exact cost matrices in integer units
#
# ``_unit_costs(rows, cols, p)`` of every space kind returns (C, S), a list of
# lists of ints with C[i][k] / S == powered_distance(rows[i], cols[k], p), or
# None when some cell of that matrix is not an int or a Fraction. Coordinates
# are scaled once by the lcm of their denominators, so no Fraction is made per
# cell. An exponent is integral by the rule of ``powered_abs``.
#
# ``_int_cost(a, b)`` of every space kind says whether an exact
# ``powered_distance(a, b, p)`` is an int rather than a Fraction. The solver
# asks it on the cells of its final tree only, to give each potential the type
# the Fraction arithmetic along its tree path would give it.


def _integral(exponent):
    """``exponent`` as an int when it equals one, else None."""
    return int(exponent) if exponent == int(exponent) else None


def _no_fraction(values):
    """Whether no value is a Fraction.

    Each space kind's ``_int_cost`` applies it to the exact values a cell is
    built from: ints (bools among them) give an int cost, and any Fraction
    makes the cost a Fraction, also an integral one such as ``Fraction(1)``.
    """
    return not any(isinstance(v, Fraction) for v in values)


def _delta_units(ys, zs, exponent):
    """``powered_abs(y - z, exponent)`` over ys x zs in integer units, or None."""
    e = _integral(exponent)
    if e is None or not all_exact(ys + zs):
        return None
    units, L = integer_units(ys + zs)
    rows, cols = units[: len(ys)], units[len(ys) :]
    if e == 1:
        return [[abs(y - z) for z in cols] for y in rows], L
    return [[abs(y - z) ** e for z in cols] for y in rows], L**e


# ---------------------------------------------------------------------------
# spaces


class _CostMatrix:
    """The cost matrix every space kind builds from its ``powered_distance``."""

    _int_costs = False  # whether every exact cost is an int (in units of 1); see ``Finite``

    def cost_matrix(self, rows, cols, p):
        """The m x n list of lists of ``powered_distance(y, z, p)``, y in rows, z in cols.

        The points must already be valid points of the space and p >= 1.
        When every coordinate (every matrix entry, for a ``Finite`` space) is
        a float, the matrix is broadcast in numpy, cell for cell bit-identical
        to the scalar code. Any other input takes the scalar code cell by cell.
        A cell beyond the float range (``inf``, or a float power that
        overflows) is a :class:`DomainError`: no solve runs on it.
        """
        try:
            costs = self._float_costs(rows, cols, p)
            if costs is None:
                cell = self.powered_distance
                matrix = [[cell(y, z, p) for z in cols] for y in rows]
                finite = _all_finite(matrix)
            else:
                finite = bool(np.isfinite(costs).all())
                matrix = costs.tolist()
        except OverflowError:  # a float ** beyond the float range
            finite = False
        if not finite:
            raise DomainError(f"a cost d**p at p={format_number(p)} is beyond the float range")
        return matrix

    def _rescue_cells(self, costs, sums, rows, cols, p):
        """``costs``, the roots of the float ``sums``, redone where a sum may have lost its root.

        Each cell whose sum is inf or below the smallest normal float takes
        ``powered_distance``, which rescales it where :func:`_lost_root` says so.
        """
        for i, j in np.argwhere((sums < _MIN_NORMAL) | np.isinf(sums)).tolist():
            costs[i, j] = self.powered_distance(rows[i], cols[j], p)
        return costs


def _all_finite(matrix):
    """Whether no cell of the list of lists ``matrix`` is a float inf or NaN."""
    try:
        return all(all(map(math.isfinite, row)) for row in matrix)
    except OverflowError:
        # an exact cell too large to convert; exact cells are finite
        return all(is_exact(c) or math.isfinite(c) for row in matrix for c in row)


def _check_unit_range(t, what):
    if not (0 <= t <= 1):
        raise SpaceMismatchError(f"{what} coordinate {t!r} outside [0, 1]")


def _check_alpha(alpha):
    if not (0 < alpha <= 1):
        raise InvalidSpaceError(f"snowflake exponent alpha={alpha!r} outside (0, 1]")


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

    def _float_costs(self, rows, cols, p):
        return _t_costs(rows, cols, _mul_exponents(self.alpha, p))

    def _unit_costs(self, rows, cols, p):
        return _delta_units([y.t for y in rows], [z.t for z in cols], _mul_exponents(self.alpha, p))

    def describe(self):
        return f"interval:alpha={format_number(self.alpha)}"


@dataclass(frozen=True)
class Euclidean(_CostMatrix):
    """R^dim with the Euclidean metric. dim == 1 stays exact for exact inputs."""

    dim: int = 1

    def __post_init__(self):
        if not (isinstance(self.dim, int) and self.dim >= 1):
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
        # a plain running sum, the order cost_matrix repeats on arrays (the
        # builtin sum compensates float sums from Python 3.12 on)
        total = 0
        for u, v in zip(a.coords, b.coords):
            d = u - v
            total = total + d * d
        return total

    def distance(self, a, b):
        if self.dim == 1:
            return abs(a.coords[0] - b.coords[0])
        sq = self._sq(a, b)
        # a normal float square is tested inline, without a call to the rule
        if (type(sq) is not float or not _MIN_NORMAL <= sq < math.inf) and _lost_root(sq, a, b):
            d = _scaled_norm([u - v for u, v in zip(a.coords, b.coords)], 2)
            # a distance beyond the float range too: inf from float
            # coordinates, a DomainError from exact ones
            return d if d < math.inf else root(sq, 2)
        return math.sqrt(sq)

    def powered_distance(self, a, b, p):
        if self.dim == 1:
            return powered_abs(a.coords[0] - b.coords[0], p)
        if p == int(p) and int(p) % 2 == 0:
            # the cost is a power of the square itself; where the square
            # underflows, so does the cost
            return self._sq(a, b) ** (int(p) // 2)
        sq = self._sq(a, b)
        if _lost_root(sq, a, b):  # the distance may fit where its square does not
            d = _scaled_norm([u - v for u, v in zip(a.coords, b.coords)], 2)
            if d < math.inf:
                return d ** float(p)
        return float(sq) ** (float(p) / 2.0)

    def _int_cost(self, a, b):
        return _no_fraction(a.coords + b.coords)

    def _float_costs(self, rows, cols, p):
        ys = _floats([c for y in rows for c in y.coords])
        zs = _floats([c for z in cols for c in z.coords])
        if ys is None or zs is None:
            return None
        ys = ys.reshape(len(rows), self.dim)
        zs = zs.reshape(len(cols), self.dim)
        # the only broadcast whose arithmetic can overflow; cost_matrix
        # refuses the inf cells, so numpy need not warn about them
        with np.errstate(over="ignore", invalid="ignore"):
            if self.dim == 1:
                return _power_cells(np.abs(ys[:, :1] - zs[None, :, 0]), p)
            # _sq's running sum, dimension by dimension from the first square;
            # a finite float sq is raised to float(p) / 2 in every branch above
            sq = None
            for k in range(self.dim):
                d = ys[:, None, k] - zs[None, :, k]
                sq = d * d if sq is None else sq + d * d
            costs = _power_cells(sq, float(p) / 2.0)
            e = _integral(p)
            if e is not None and e % 2 == 0:
                return costs
            return self._rescue_cells(costs, sq, rows, cols, p)

    def _unit_costs(self, rows, cols, p):
        if self.dim == 1:
            return _delta_units([y.coords[0] for y in rows], [z.coords[0] for z in cols], p)
        # a squared norm is exact, and raised to p / 2 only at an even p
        e = _integral(p)
        coords = [c for y in rows for c in y.coords] + [c for z in cols for c in z.coords]
        if e is None or e % 2 or not all_exact(coords):
            return None
        units, L = integer_units(coords)
        dim = self.dim
        points = [units[k : k + dim] for k in range(0, len(units), dim)]
        half = e // 2
        costs = [
            [sum((a - b) * (a - b) for a, b in zip(y, z)) ** half for z in points[len(rows) :]]
            for y in points[: len(rows)]
        ]
        return costs, L**e

    def describe(self):
        return f"euclidean:dim={self.dim}"


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
        units = [flat[i : i + n] for i in range(0, n * n, n)], L
        D, slack = np.array(flat, dtype=object), 0
    else:
        D = np.array([float(v) for v in flat])
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

    def _float_costs(self, rows, cols, p):
        matrix = self._float_matrix
        if matrix is None:
            return None
        r = np.array([y.index for y in rows], dtype=np.intp)
        c = np.array([z.index for z in cols], dtype=np.intp)
        return _power_cells(np.abs(matrix[np.ix_(r, c)]), p)

    @cached_property
    def _unit_matrix(self):
        """(M, L): every exact entry times L, the lcm of their denominators, and None for a float."""
        L = denominator_lcm([v for row in self.matrix for v in row if is_exact(v)])
        units = [
            [v.numerator * (L // v.denominator) if is_exact(v) else None for v in row]
            for row in self.matrix
        ]
        return units, L

    @cached_property
    def _int_costs(self):  # true when no entry is a Fraction
        return _no_fraction(v for row in self.matrix for v in row)

    def _unit_costs(self, rows, cols, p):
        # a mixed matrix can have all-exact blocks, so only the selected cells count
        e = _integral(p)
        if e is None:
            return None
        matrix, L = self._unit_matrix
        picks = [z.index for z in cols]
        costs = []
        for y in rows:
            row = matrix[y.index]
            cells = [row[k] for k in picks]
            if None in cells:
                return None
            costs.append(cells if e == 1 else [c**e for c in cells])
        return costs, L**e

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
        if not self.q >= 1:
            raise InvalidSpaceError(f"exponent q={self.q!r} must be >= 1")
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
            return fiber + self.base.powered_distance(a.x, b.x, self.q)
        d = self.distance(a, b)
        return powered_abs(d, p)

    def _int_cost(self, a, b):
        # at p != q an exact cost is the p-th power of the one at q == 1
        return _no_fraction((a.t, b.t)) and self.base._int_cost(a.x, b.x)

    def _float_costs(self, rows, cols, p):
        if p == self.q:
            fiber = _t_costs(rows, cols, _mul_exponents(self.alpha, self.q))
            if fiber is None:
                return None
            base = self.base._float_costs([y.x for y in rows], [z.x for z in cols], self.q)
            return None if base is None else fiber + base
        try:
            sums = self._float_costs(rows, cols, self.q)
        except OverflowError:  # a float ** of the base beyond the float range
            return None  # the scalar code rescales it
        if sums is None:
            return None
        costs = _power_cells(np.abs(_root_cells(sums, self.q)), p)
        return costs if self.q == 1 else self._rescue_cells(costs, sums, rows, cols, p)

    def _unit_costs(self, rows, cols, p):
        if p == self.q:
            fiber = _delta_units(
                [y.t for y in rows], [z.t for z in cols], _mul_exponents(self.alpha, self.q)
            )
            if fiber is None:
                return None
            base = self.base._unit_costs([y.x for y in rows], [z.x for z in cols], self.q)
            if base is None:
                return None
            (F, fs), (B, bs) = fiber, base
            scale = math.lcm(fs, bs)
            kf, kb = scale // fs, scale // bs
            return [[f * kf + b * kb for f, b in zip(fr, br)] for fr, br in zip(F, B)], scale
        # the q-th root of an exact cost stays exact only at q == 1
        e = _integral(p)
        units = None if self.q != 1 or e is None else self._unit_costs(rows, cols, self.q)
        if units is None:
            return None
        costs, scale = units
        return [[c**e for c in row] for row in costs], scale**e

    def distance(self, a, b):
        try:
            total = self.powered_distance(a, b, self.q)
        except OverflowError:  # a float ** of the base beyond the float range
            total = math.inf
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
    """d(a, b) ** p, computed without roots whenever the exponents allow."""
    if not p >= 1:
        raise DomainError(f"cost exponent p={p!r} must be >= 1")
    space.validate_point(a)
    space.validate_point(b)
    return space.powered_distance(a, b, p)


def triangle_defect(space, a, b, c):
    """d(a,b) + d(b,c) - d(a,c), clamped at zero.

    The clamp only absorbs rounding dust; a valid metric never produces a
    genuinely negative defect.
    """
    space.validate_point(a)
    space.validate_point(b)
    space.validate_point(c)
    defect = space.distance(a, b) + space.distance(b, c) - space.distance(a, c)
    zero = defect - defect
    return defect if defect > zero else zero


def metric_segment(space, a, b, candidates, tol=DEFAULT_TOL):
    """Points among ``candidates`` lying on the metric segment [a, b].

    A candidate w qualifies when |d(a,w) + d(w,b) - d(a,b)| <= tol. The
    candidate list must be nonempty and contain both endpoints; the result
    therefore always contains a and b. Exact duplicates are returned once,
    in first-seen order.
    """
    candidates = list(candidates)
    if not candidates:
        raise DomainError("metric_segment needs a nonempty candidate list")
    if a not in candidates or b not in candidates:
        raise DomainError("candidate list must contain both endpoints")
    space.validate_point(a)
    space.validate_point(b)
    d_ab = space.distance(a, b)
    seen = []
    for w in candidates:
        if w in seen:
            continue
        space.validate_point(w)
        gap = space.distance(a, w) + space.distance(w, b) - d_ab
        if abs(gap) <= tol:
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
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rows = []
    n = None
    lineno = 0
    for raw in lines:
        lineno += 1
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        if n is None:
            try:
                n = int(text)
            except ValueError:
                raise ParseError("expected point count", path=path, line=lineno) from None
            if n <= 0:
                raise ParseError("point count must be positive", path=path, line=lineno)
            continue
        if len(rows) == n:
            raise ParseError(
                f"unexpected line after the {n} rows of the matrix", path=path, line=lineno
            )
        tokens = text.split()
        if len(tokens) != n:
            raise ParseError(
                f"expected {n} entries, got {len(tokens)}", path=path, line=lineno
            )
        row = []
        for col, tok in enumerate(tokens, start=1):
            try:
                row.append(parse_number(tok, exact=exact))
            except ValueError as exc:
                raise ParseError(str(exc), path=path, line=lineno, column=col) from None
        rows.append(row)
    if n is None:
        raise ParseError("empty finite-space file", path=path, line=lineno or 1)
    if len(rows) != n:
        raise ParseError(f"expected {n} rows, got {len(rows)}", path=path, line=lineno)
    try:
        return Finite(tuple(tuple(r) for r in rows))
    except InvalidSpaceError as exc:
        raise ParseError(str(exc), path=path) from exc
