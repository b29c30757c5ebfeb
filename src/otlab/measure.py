"""Finitely supported probability measures and their decompositions.

Atoms are kept in a canonical lexicographic order and merged by exact point
equality only; there is no tolerance-based merging anywhere. One stable sort
by ``point_sort_key`` brings equal points together in input order, so a
merged atom keeps its first point's form and adds its masses in input
order. Masses must be strictly positive, and float masses below 1e-15 are
rejected outright (silently dropping them would corrupt marginal checks
downstream). A probability measure checks exact masses on their integer
units, which it keeps for the exact solves.

Measure files are read token by token with ``parse_number``: plain integers
and ``n/d`` ratios directly, every other number through ``Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter

from .errors import (
    DomainError,
    InvalidMeasureError,
    ParseError,
    SpaceMismatchError,
)
from ._numbers import (
    DEFAULT_TOL,
    all_exact,
    format_number,
    integer_units,
    is_exact,
    parse_number,
    plain_sum,
    ratio,
    read_entries,
    tolerance,
)
from .metric import (
    Euclidean,
    EuclideanPoint,
    Finite,
    FinitePoint,
    Interval,
    IntervalPoint,
    Product,
    ProductPoint,
    point_sort_key,
)

__all__ = [
    "DiscreteMeasure",
    "SubProbabilityMeasure",
    "Disintegration",
    "ResidualDecomposition",
    "MASS_FLOOR",
    "convex_combine",
    "push_forward",
    "disintegrate",
    "reassemble",
    "meet",
    "residual_decompose",
    "measures_close",
    "load_measure",
    "dump_measure",
]

MASS_FLOOR = 1e-15


def _canonical_atoms(space, atoms):
    """Validate, sort, merge exact-duplicate points, drop exact zeros.

    One stable sort by ``point_sort_key`` puts equal points next to each other
    in input order, so no point is hashed: a merged atom keeps its first
    point's form (``Fraction(1, 2)`` before ``0.5``) and adds its masses in
    input order. The masses are checked in the order their points first
    occur, so of several bad masses the first one is named.
    """
    for point, _ in atoms:
        space.validate_point(point)
    keys = [point_sort_key(point) for point, _ in atoms]
    merged = []  # [index of the first occurrence, point, mass], in key order
    for i in sorted(range(len(atoms)), key=keys.__getitem__):
        if merged and keys[merged[-1][0]] == keys[i]:
            merged[-1][2] = merged[-1][2] + atoms[i][1]
        else:
            merged.append([i, *atoms[i]])
    for _, point, mass in sorted(merged, key=itemgetter(0)):
        if mass < 0:
            raise InvalidMeasureError(f"negative mass {mass!r} at {point}")
        if isinstance(mass, float):
            if mass != mass:  # NaN fails every comparison above
                raise InvalidMeasureError(f"mass {mass!r} at {point} is not a number")
            if 0 < mass < MASS_FLOOR:
                raise InvalidMeasureError(
                    f"mass {mass!r} at {point} is below the 1e-15 floor; "
                    "refusing to drop it silently"
                )
    return tuple((point, mass) for _, point, mass in merged if mass != 0)


@dataclass(frozen=True)
class DiscreteMeasure:
    """Probability measure with finitely many atoms on a metric space.

    ``support``, ``masses`` and the solver's mass units are kept on the
    instance, outside the dataclass fields: equality, hashing, ``repr`` and
    pickling see ``space`` and ``atoms`` only. The total of exact masses is
    checked on their integer units, which fills the units' cache; a float
    total is checked within the tolerance.
    """

    space: object
    atoms: tuple

    def __post_init__(self):
        atoms = _canonical_atoms(self.space, self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if not atoms:
            raise InvalidMeasureError("probability measure needs at least one atom")
        units = self._mass_units
        if units is not None:
            units, L = units
            total = plain_sum(units)
            if total == L:
                return
            total = ratio(total, L)
        else:
            total = plain_sum(m for _, m in atoms)
            if not abs(total - 1) > tolerance(total):
                return
        raise InvalidMeasureError(f"masses sum to {total}, expected 1 within {tolerance(total)}")

    @cached_property
    def support(self):
        return tuple(p for p, _ in self.atoms)

    @cached_property
    def masses(self):
        return tuple(m for _, m in self.atoms)

    @cached_property
    def _mass_units(self):
        """``(units, L)`` of :func:`integer_units` over the masses, or None unless all are exact."""
        masses = self.masses
        if not all_exact(masses):
            return None
        units, L = integer_units(masses)
        return tuple(units), L

    def __getstate__(self):
        return {"space": self.space, "atoms": self.atoms}

    def mass_of(self, point):
        for p, m in self.atoms:
            if p == point:
                return m
        return 0

    def as_dict(self):
        return dict(self.atoms)

    def is_dirac(self):
        return len(self.atoms) == 1


@dataclass(frozen=True)
class SubProbabilityMeasure:
    """Nonnegative measure with total mass at most 1; may be empty.

    Deliberately a distinct type from :class:`DiscreteMeasure` so partial
    masses cannot leak into code expecting probability measures.
    """

    space: object
    atoms: tuple

    def __post_init__(self):
        atoms = _canonical_atoms(self.space, self.atoms)
        object.__setattr__(self, "atoms", atoms)
        total = plain_sum(m for _, m in atoms)
        if total > 1 + tolerance(total):
            raise InvalidMeasureError(f"sub-probability mass {total} exceeds 1 + {tolerance(total)}")

    @property
    def total_mass(self):
        return plain_sum(m for _, m in self.atoms)

    @property
    def support(self):
        return tuple(p for p, _ in self.atoms)

    def as_dict(self):
        return dict(self.atoms)

    def normalized(self):
        """Rescale to a probability measure; empty input is a domain error."""
        if not self.atoms:
            raise DomainError("cannot normalize the null measure")
        total = self.total_mass
        return DiscreteMeasure(self.space, tuple((p, m / total) for p, m in self.atoms))


# ---------------------------------------------------------------------------
# basic operations


def _require_same_space(mu, nu):
    # one space object, the common case, skips the dataclass ==
    if mu.space is not nu.space and mu.space != nu.space:
        raise SpaceMismatchError("measures live on different spaces")


def convex_combine(lam, mu, nu):
    """(1 - lam) * mu + lam * nu, with lam in [0, 1]."""
    _require_same_space(mu, nu)
    if not (0 <= lam <= 1):
        raise DomainError(f"mixture weight {lam!r} outside [0, 1]")
    if lam == 0:
        return mu
    if lam == 1:
        return nu
    atoms = [(p, (1 - lam) * m) for p, m in mu.atoms]
    atoms += [(p, lam * m) for p, m in nu.atoms]
    return DiscreteMeasure(mu.space, tuple(atoms))


def push_forward(mu, fn, target_space=None):
    """Image measure of ``mu`` under the point map ``fn``.

    Images landing at the same point merge; every image must belong to the
    target space (defaults to ``mu.space``).
    """
    target = mu.space if target_space is None else target_space
    atoms = []
    for p, m in mu.atoms:
        image = fn(p)
        try:
            target.validate_point(image)
        except SpaceMismatchError as exc:
            raise SpaceMismatchError(f"image {image!r} of {p!r} not in target space: {exc}") from exc
        atoms.append((image, m))
    return DiscreteMeasure(target, tuple(atoms))


# ---------------------------------------------------------------------------
# disintegration over the base of a product space


@dataclass(frozen=True)
class Disintegration:
    """A product-space measure split into base marginal and fiber conditionals.

    ``conditionals`` pairs each base support point with a probability measure
    on the fiber [0, 1] (carried on an Interval space with alpha = 1).
    """

    space: object
    marginal: DiscreteMeasure
    conditionals: tuple

    def conditional(self, x):
        for point, cond in self.conditionals:
            if point == x:
                return cond
        raise DomainError(f"base point {x!r} is not in the marginal support")


_FIBER = Interval(1)


def disintegrate(mu):
    """Split a product-space measure into base marginal and fiber conditionals."""
    if not isinstance(mu.space, Product):
        raise SpaceMismatchError("disintegration needs a product-space measure")
    by_base = {}
    for p, m in mu.atoms:
        by_base.setdefault(p.x, []).append((p.t, m))
    marginal_atoms = []
    conditionals = []
    for x, fiber_atoms in by_base.items():
        weight = plain_sum(m for _, m in fiber_atoms)
        marginal_atoms.append((x, weight))
        # an exact weight sums exact masses only; int / int would make a float
        cond_atoms = tuple(
            (IntervalPoint(t), Fraction(m, weight) if is_exact(weight) else m / weight)
            for t, m in fiber_atoms
        )
        conditionals.append((x, DiscreteMeasure(_FIBER, cond_atoms)))
    conditionals.sort(key=lambda item: point_sort_key(item[0]))
    marginal = DiscreteMeasure(mu.space.base, tuple(marginal_atoms))
    return Disintegration(mu.space, marginal, tuple(conditionals))


def reassemble(dis):
    """Inverse of :func:`disintegrate`."""
    atoms = []
    weights = dis.marginal.as_dict()
    for x, cond in dis.conditionals:
        w = weights[x]
        for fiber_point, m in cond.atoms:
            atoms.append((ProductPoint(fiber_point.t, x), w * m))
    return DiscreteMeasure(dis.space, tuple(atoms))


# ---------------------------------------------------------------------------
# meet and residual decomposition


def meet(mu, nu):
    """Atom-wise minimum of two measures; a sub-probability measure."""
    _require_same_space(mu, nu)
    nu_masses = nu.as_dict()
    atoms = []
    for p, m in mu.atoms:
        other = nu_masses.get(p)
        if other is not None:
            atoms.append((p, m if m <= other else other))
    return SubProbabilityMeasure(mu.space, tuple(atoms))


@dataclass(frozen=True)
class ResidualDecomposition:
    """mu = (1 - a) * common + a * mu_residual, and likewise for nu.

    ``a`` is the total residual mass shared by both sides. The residuals have
    disjoint supports. Degenerate case mu == nu: a == 0 and the residuals are
    None, with ``common`` equal to the shared measure. Fully disjoint case:
    a == 1 and ``common`` is None.
    """

    a: object
    common: object
    mu_residual: object
    nu_residual: object

    @property
    def degenerate(self):
        return self.mu_residual is None


def residual_decompose(mu, nu):
    """Split off the shared part of two measures and normalize the leftovers."""
    _require_same_space(mu, nu)
    if mu.atoms == nu.atoms:
        return ResidualDecomposition(0, mu, None, None)
    common_part = meet(mu, nu)
    common_masses = common_part.as_dict()

    def residual(side):
        rest = [(p, m - common_masses.get(p, 0)) for p, m in side.atoms]
        rest = [(p, r) for p, r in rest if r != 0]
        a = plain_sum(r for _, r in rest)
        return a, DiscreteMeasure(side.space, tuple((p, r / a) for p, r in rest))

    (a_mu, mu_res), (_, nu_res) = residual(mu), residual(nu)
    common = common_part.normalized() if common_part.atoms else None
    return ResidualDecomposition(a_mu, common, mu_res, nu_res)


def measures_close(mu, nu, tol=DEFAULT_TOL):
    """Same support (exact point equality) with masses within ``tolerance(m1 - m2, tol)``.

    Exact masses must be equal; a float difference may be up to ``tol``.
    """
    if mu.space != nu.space:
        return False
    if mu.support != nu.support:
        return False
    for m1, m2 in zip(mu.masses, nu.masses):
        d = m1 - m2
        if abs(d) > tolerance(d, tol):
            return False
    return True


# ---------------------------------------------------------------------------
# measure file format
#
# header line:  space <id>
# atom lines:   mass t            (interval)
#               mass x1 ... xk    (euclidean)
#               mass idx          (finite)
#               mass t <base...>  (product)


def _parse_point(space, tokens, exact, path, lineno, column=2):
    # ``column``: the point's first token on the line, where an atom of the wrong
    # shape is reported; a product base starts one token after the fiber's t
    def num(tok, col):
        try:
            return parse_number(tok, exact=exact)
        except ValueError as exc:
            raise ParseError(str(exc), path=path, line=lineno, column=col) from None

    def point_error(message):
        return ParseError(message, path=path, line=lineno, column=column)

    if isinstance(space, Interval):
        if len(tokens) != 1:
            raise point_error("interval atom needs: mass t")
        return IntervalPoint(num(tokens[0], column))
    if isinstance(space, Euclidean):
        if len(tokens) != space.dim:
            raise point_error(f"euclidean atom needs {space.dim} coordinates")
        return EuclideanPoint(tuple(num(t, column + i) for i, t in enumerate(tokens)))
    if isinstance(space, Finite):
        if len(tokens) != 1:
            raise point_error("finite atom needs: mass idx")
        try:
            return FinitePoint(int(tokens[0]))
        except ValueError:
            raise point_error(f"invalid point index {tokens[0]!r}") from None
    if isinstance(space, Product):
        if len(tokens) < 2:
            raise point_error("product atom needs: mass t x...")
        t = num(tokens[0], column)
        x = _parse_point(space.base, tokens[1:], exact, path, lineno, column + 1)
        return ProductPoint(t, x)
    raise ParseError("unsupported space kind", path=path, line=lineno)


def load_measure(path, space, exact=False):
    """Read a measure file for ``space``. Returns ``(measure, space_id)``."""
    count, entries = read_entries(path)
    space_id = None
    atoms = []
    for lineno, text in entries:
        tokens = text.split()
        if space_id is None:
            if tokens[0] != "space" or len(tokens) != 2:
                raise ParseError("expected header: space <id>", path=path, line=lineno, column=1)
            space_id = tokens[1]
            continue
        try:
            mass = parse_number(tokens[0], exact=exact)
        except ValueError:
            raise ParseError(
                f"invalid mass {tokens[0]!r}", path=path, line=lineno, column=1
            ) from None
        point = _parse_point(space, tokens[1:], exact, path, lineno)
        atoms.append((point, mass))
    if space_id is None:
        raise ParseError("missing header: space <id>", path=path, line=1, column=1)
    if not atoms:
        raise ParseError("measure file has no atoms", path=path, line=count or 1)
    try:
        measure = DiscreteMeasure(space, tuple(atoms))
    except (InvalidMeasureError, SpaceMismatchError) as exc:
        raise ParseError(str(exc), path=path) from exc
    return measure, space_id


def _point_tokens(point):
    if isinstance(point, IntervalPoint):
        return [format_number(point.t)]
    if isinstance(point, EuclideanPoint):
        return [format_number(c) for c in point.coords]
    if isinstance(point, FinitePoint):
        return [str(point.index)]
    if isinstance(point, ProductPoint):
        return [format_number(point.t)] + _point_tokens(point.x)
    raise TypeError(f"unknown point type {type(point).__name__}")


def dump_measure(mu, space_id):
    """Serialize a measure in the text format accepted by :func:`load_measure`."""
    lines = [f"space {space_id}"]
    for point, mass in mu.atoms:
        lines.append(" ".join([format_number(mass)] + _point_tokens(point)))
    return "\n".join(lines) + "\n"
