"""Seeded random generators for points, measures, and couplings.

Everything here is deterministic given the seed: the verification campaigns
derive one child seed per trial so runs are reproducible and individual
trials can be replayed in isolation. Exact mode draws masses and
coordinates as Fractions with bounded denominators so downstream solves
stay in rational arithmetic end to end.
"""

from __future__ import annotations

import math

import numpy as np

from ._numbers import ratio
from .errors import DomainError
from .measure import DiscreteMeasure
from .metric import (
    Euclidean,
    EuclideanPoint,
    Finite,
    FinitePoint,
    Interval,
    IntervalPoint,
    Product,
    ProductPoint,
)
from .solver import Coupling, _northwest_corner

__all__ = [
    "DEFAULT_WINDOW",
    "make_rng",
    "random_masses",
    "random_point",
    "random_measure",
    "random_coupling",
    "random_finite_space",
]

DEFAULT_WINDOW = 10.0
_DENOMINATOR = 32  # exact-mode coordinates are multiples of 1/_DENOMINATOR


def make_rng(seed):
    """numpy Generator from an int seed or a tuple of ints."""
    return np.random.default_rng(seed)


def random_masses(rng, count, exact=False, denominator=64):
    """``count`` positive masses summing to one.

    Exact mode returns Fractions with the given common denominator (a random
    composition, so every part is at least 1/denominator). Float mode
    normalizes uniforms drawn away from zero.
    """
    if count < 1:
        raise DomainError("need at least one mass")
    if exact:
        if denominator < count:
            raise DomainError(f"denominator {denominator} too small for {count} parts")
        cuts = sorted(int(c) for c in rng.choice(denominator - 1, size=count - 1, replace=False))
        bounds = [0] + [c + 1 for c in cuts] + [denominator]
        return [ratio(b - a, denominator) for a, b in zip(bounds, bounds[1:])]
    raw = rng.uniform(0.1, 1.0, count)
    return [float(w) for w in raw / raw.sum()]


def _scalar(rng, exact, window, denominator, exact_window=None):
    """One uniform draw from the pair ``window`` = (lo, hi), with one call to ``rng``.

    Exact mode draws a multiple of 1/denominator from ``exact_window``
    (default: ``window``). Numerators run from ceil(lo * denominator) to
    floor(hi * denominator); for a float bound and a power-of-two
    denominator that product is exact.
    """
    if not exact:
        return float(rng.uniform(*window))
    lo, hi = exact_window or window
    low = math.ceil(lo * denominator)
    high = math.floor(hi * denominator)
    if low > high:
        raise DomainError(f"window [{lo!r}, {hi!r}] holds no multiple of 1/{denominator}")
    if low < -(2**63) or high >= 2**63:  # the generator draws int64 numerators
        raise DomainError(
            f"window [{lo!r}, {hi!r}] is too wide to draw multiples of 1/{denominator}"
        )
    return ratio(int(rng.integers(low, high + 1)), denominator)


def _window_bounds(window):
    """A scalar w means [-w, w]; a pair is an explicit [lo, hi] of finite width."""
    if isinstance(window, tuple):
        lo, hi = window
    else:
        lo, hi = -window, window
    if not lo < hi:
        raise DomainError(f"empty sampling window [{lo!r}, {hi!r}]")
    if not hi - lo < math.inf:  # numpy draws from no wider range; ints and Fractions compare with inf exactly
        raise DomainError(f"sampling window [{lo!r}, {hi!r}] is not of finite width")
    return lo, hi


def random_point(rng, space, exact=False, window=DEFAULT_WINDOW):
    """One random point of ``space``; exact-mode coordinates are multiples of 1/32."""
    if isinstance(space, Interval):
        return IntervalPoint(_scalar(rng, exact, (0, 1), _DENOMINATOR))
    if isinstance(space, Euclidean):
        lo, hi = _window_bounds(window)
        if exact:
            coords = tuple(_scalar(rng, True, (lo, hi), _DENOMINATOR) for _ in range(space.dim))
        else:
            coords = tuple(float(c) for c in rng.uniform(lo, hi, space.dim))
        return EuclideanPoint(coords)
    if isinstance(space, Finite):
        return FinitePoint(int(rng.integers(0, space.size)))
    if isinstance(space, Product):
        t = _scalar(rng, exact, (0, 1), _DENOMINATOR)
        return ProductPoint(t, random_point(rng, space.base, exact=exact, window=window))
    raise DomainError(f"unsupported space {space!r}")


def _draw_points(rng, space, count, clashes, limit, failure, exact, window):
    """Draw from :func:`random_point` until ``count`` points are kept.

    A draw is dropped when ``clashes(point, kept)``; needing more than
    ``limit`` draws raises a DomainError with the ``failure`` message.
    """
    points = []
    attempts = 0
    while len(points) < count:
        attempts += 1
        if attempts > limit:
            raise DomainError(failure)
        p = random_point(rng, space, exact=exact, window=window)
        if not clashes(p, points):
            points.append(p)
    return points


def random_measure(
    rng,
    space,
    n_atoms,
    exact=False,
    window=DEFAULT_WINDOW,
    mass_denominator=64,
    distinct_fibers=False,
):
    """Random measure with ``n_atoms`` distinct support points.

    ``distinct_fibers`` additionally forces pairwise-distinct base points on
    a product space (no two atoms in the same fiber), which the fiberwise
    transforms and the coupling lift require.
    """
    if n_atoms < 1:
        raise DomainError("need at least one atom")
    if distinct_fibers and not isinstance(space, Product):
        raise DomainError("distinct fibers only make sense on a product space")

    def clashes(p, kept):
        if distinct_fibers:
            return any(p.x == k.x for k in kept)
        return p in kept

    points = _draw_points(
        rng, space, n_atoms, clashes, 200 * n_atoms,
        "could not sample enough distinct points", exact, window,
    )
    masses = random_masses(rng, n_atoms, exact=exact, denominator=mass_denominator)
    return DiscreteMeasure(space, tuple(zip(points, masses)))


def random_separated_points(rng, space, count, exact=False):
    """``count`` points of a product or interval space whose t coordinates lie pairwise apart.

    The gap is min(0.05, 1/(4 * count)): 0.05 up to five points, and small
    enough beyond that for the t's to fit in [0, 1] with room to spare.
    """
    gap = min(0.05, 1 / (4 * count))

    def clashes(p, kept):
        return any(abs(float(p.t) - float(k.t)) < gap for k in kept)

    return _draw_points(
        rng, space, count, clashes, 400 * count,
        "could not sample separated fiber coordinates", exact, DEFAULT_WINDOW,
    )


def random_coupling(rng, mu, nu):
    """A random vertex of the coupling polytope between mu and nu.

    Runs the northwest-corner rule on shuffled row and column orders and
    maps the flows back to canonical support order, so the marginals match
    exactly while the sparsity pattern varies with the seed.
    """
    m = len(mu.atoms)
    n = len(nu.atoms)
    row_order = [int(i) for i in rng.permutation(m)]
    col_order = [int(k) for k in rng.permutation(n)]
    a = [mu.masses[i] for i in row_order]
    b = [nu.masses[k] for k in col_order]
    flows = _northwest_corner(a, b, m, n)
    zero = 0 * (mu.masses[0] + nu.masses[0])
    weights = [[zero] * n for _ in range(m)]
    for (i, k), f in flows.items():
        weights[row_order[i]][col_order[k]] = f
    return Coupling(mu.space, mu.support, nu.support, tuple(tuple(r) for r in weights))


def random_finite_space(rng, size, exact=False):
    """Random finite metric space from city-block distances on the grid {0, ..., 6}^2.

    Distinct integer grid points guarantee symmetry, positivity, and the
    triangle inequality with no tolerance games; float mode just casts the
    same integers.
    """
    span = 6
    if size < 1:
        raise DomainError("need at least one point")
    if size > (span + 1) ** 2:
        raise DomainError(f"grid of span {span} cannot hold {size} distinct points")
    cells = rng.choice((span + 1) ** 2, size=size, replace=False)
    pts = [(int(c) // (span + 1), int(c) % (span + 1)) for c in cells]
    rows = []
    for x1, y1 in pts:
        row = [abs(x1 - x2) + abs(y1 - y2) for x2, y2 in pts]
        rows.append(tuple(row if exact else [float(v) for v in row]))
    return Finite(tuple(rows))
