"""Number handling shared by the float and exact-rational code paths.

Scalars flow through the library as plain Python numbers: ``float`` in float
mode, ``int``/``Fraction`` in exact mode. Exactness is a property of the
inputs, not a global switch; these helpers keep parsing, formatting, and
exponentiation consistent between the two modes.

One rule holds for every exponent here and in the metric layer: an exponent
equal to an integer is that integer, so ``2``, ``Fraction(4, 2)`` and ``2.0``
give the same value of the same type. Only a non-integral exponent such as
``3/2`` or ``1.5`` takes the float path.

One rule decides how a check compares: :func:`tolerance` allows 0 for an
exact value and ``tol`` for a float, so every check is one comparison such as
``abs(total - 1) > tolerance(total)``. A sum is exact exactly when all its
terms are, so exact values are compared exactly, even next to floats.

One rule decides how a total is summed: :func:`plain_sum` adds its terms one
at a time, left to right from 0, and ``itertools.accumulate`` does the same
where the running values are kept. So a float total has the same bits on
every Python version. The fold also owns the edge of the float range: a sum
in which an exact term too large for a float meets a float is ``inf``, the
value float overflow gives, so no caller catches ``OverflowError`` around it.

One rule decides how an exact ratio of two ints is made: :func:`ratio`, a
bounded cache in front of ``Fraction(n, d)``. Masses sit on a few grids
(k/8, k/64), so plans, costs, potentials, parsed ``n/d`` tokens and sampled
masses repeat the same few ratios, and a repeat is a lookup instead of a
``gcd`` and a new object. A Fraction is immutable, so a shared instance has
the value, type and ``repr`` a fresh one would have.

One reader, :func:`read_entries`, turns the text files whose numbers are
parsed here (measure, finite-space and config files) into numbered lines
with their ``#`` comments cut, and refuses a file that is not UTF-8.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction

from .errors import DomainError, ParseError

__all__ = [
    "DEFAULT_TOL",
    "tolerance",
    "is_exact",
    "all_exact",
    "parse_number",
    "format_number",
    "powered_abs",
    "root",
    "denominator_lcm",
    "integer_units",
    "plain_sum",
    "ratio",
    "read_entries",
]

DEFAULT_TOL = 1e-9

_EXACT_TYPES = (int, Fraction)


def is_exact(x) -> bool:
    return isinstance(x, _EXACT_TYPES)


def all_exact(values) -> bool:
    return all(isinstance(v, _EXACT_TYPES) for v in values)


def tolerance(value, tol=DEFAULT_TOL):
    """The allowance a check on ``value`` gets: 0 when it is exact, else ``tol``."""
    return 0 if isinstance(value, _EXACT_TYPES) else tol


@functools.lru_cache(maxsize=1024)
def ratio(n: int, d: int) -> Fraction:
    """``Fraction(n, d)`` of two ints; each of the 1024 most recently used pairs keeps one instance.

    A zero ``d`` raises ``ZeroDivisionError`` as ``Fraction`` does, and nothing is cached.
    """
    return Fraction(n, d)


# a plain ASCII integer with an optional sign, or one over an unsigned ASCII denominator
_RATIO = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_number(token: str, exact: bool = False):
    """Parse ``token`` as a number.

    Accepts plain decimals (``0.25``, ``1e-3``) and rationals (``3/10``).
    With ``exact=True`` the result is an ``int`` or ``Fraction`` (decimals are
    read exactly, so ``0.3`` becomes 3/10, not the nearest binary float);
    otherwise a ``float``, and a value beyond the float range is a
    ``ValueError``, never ``inf``.

    Every token means what ``Fraction(token)`` reads. A plain integer or
    ``n/d`` (``_RATIO``) is read directly, as ``int(n)`` or
    ``ratio(int(n), int(d))``, whose floats round as ``Fraction``'s do;
    every other token goes through ``Fraction``'s own grammar.
    """
    token = token.strip()
    if not token:
        raise ValueError("empty number token")
    try:
        match = _RATIO.fullmatch(token)
        if match is None:
            value = Fraction(token)
        else:
            num, den = match.groups()
            value = int(num) if den is None else ratio(int(num), int(den))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid number {token!r}") from exc
    if exact:
        return int(value) if value.denominator == 1 else value
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"number {token!r} is beyond the float range") from None


def format_number(x) -> str:
    """Format a number for text records.

    Integral values print bare (``0``, ``1``), Fractions as ``p/q``, floats
    via ``repr`` (shortest round-trip form).
    """
    if isinstance(x, bool):
        raise TypeError("bool is not a scalar value here")
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    xf = float(x)
    if xf == int(xf) and abs(xf) < 1e16:
        return str(int(xf))
    return repr(xf)


def powered_abs(delta, exponent):
    """Compute ``|delta| ** exponent`` staying exact when possible.

    Exact inputs stay exact when the exponent is a nonnegative integer; any
    other combination falls back to floats. A float power beyond the float
    range is ``inf``, and so is one of an exact magnitude too large for a float.
    """
    mag = abs(delta)
    if exponent == int(exponent):
        exponent = int(exponent)
        if exponent == 1:
            return mag
        if is_exact(mag):
            return mag**exponent
    try:
        return float(mag) ** float(exponent)
    except OverflowError:
        return math.inf


def root(value, q):
    """q-th root for reporting boundaries.

    Exact values survive only the trivial ``q == 1`` case; everything else
    is a float. Tiny negative float dust is clamped to zero. An exact value
    beyond the float range is a :class:`DomainError`.
    """
    if q == 1:
        return value
    try:
        v = float(value)
    except OverflowError:
        raise DomainError(
            f"cannot take a root of order {format_number(q)}: the value is beyond the float range"
        ) from None
    if v < 0.0:
        v = 0.0
    if q == 2:
        return math.sqrt(v)
    return v ** (1.0 / float(q))


def denominator_lcm(values) -> int:
    """lcm of the denominators of exact values (1 if the list is empty)."""
    return math.lcm(*{v.denominator for v in values})


def integer_units(values):
    """``(units, L)``: L is :func:`denominator_lcm` of the exact ``values``, units their ints times L."""
    L = denominator_lcm(values)
    return [v.numerator * (L // v.denominator) for v in values], L


def plain_sum(values):
    """``((0 + v0) + v1) + ...``: the terms of ``values`` added one at a time, in their order.

    From Python 3.12 on the builtin ``sum`` compensates float sums: a float
    total made with it could change in its last bits between Python versions,
    sum a plan's two marginals differently, and part from the float cost
    matrix, which adds a ``Euclidean`` distance's squares one dimension after
    another. An exact total is the same either way.

    A sum beyond the float range is ``inf``, sign not kept: an
    ``OverflowError`` met in the loop, or raised by a generator feeding it
    (a float meeting an exact value too large for a float), ends the fold
    there. An all-exact total never overflows and stays exact.
    """
    total = 0
    try:
        for v in values:
            total = total + v
    except OverflowError:
        return math.inf
    return total


def read_entries(path):
    """``(count, entries)`` of a UTF-8 text file: its number of lines, and its non-blank lines.

    Each entry is ``(lineno, text)``, numbered from 1, with ``text`` the line
    up to its first ``#``, unstripped; a line that holds only blanks and a
    comment is left out. An ``OSError`` from opening or reading the file
    passes through. A file that is not UTF-8 is a :class:`ParseError` at the
    line and column of its first bad byte.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        # the bytes before the bad one decode; the bad one sits at the end of their last line
        before = (data[: exc.start].decode("utf-8") + "x").splitlines()
        raise ParseError(
            f"not UTF-8 text: cannot decode byte 0x{data[exc.start]:02x}",
            path=path,
            line=len(before),
            column=len(before[-1]),
        ) from None
    entries = []
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0]
        if text.strip():
            entries.append((lineno, text))
    return len(lines), entries
