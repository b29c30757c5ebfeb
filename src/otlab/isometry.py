"""Isometries of measures on the interval and their fiber-wise lifts.

The mass-splitting flip exchanges a measure's CDF with its generalized
inverse. On finitely supported measures it has a closed form: with atoms at
t_1 < ... < t_m carrying masses a_i and cumulative sums A_i,

    flip(mu) = t_1 * delta_0 + sum_i (t_{i+1} - t_i) * delta_{A_i}
               + (1 - t_m) * delta_1,

zero-mass boundary atoms dropped. The closed form is the production path;
the CDF/generalized-inverse route is kept alongside as an independent
oracle and must not be collapsed into it.

Together with the reflection t -> 1 - t the flip generates a Klein
four-group. ``fiberwise`` pushes any of these through the fibers of a
product-space measure, and ``flip_coupling`` lifts a transport plan between
fiber-injective measures to a plan between their fiber-flipped images with
exactly equal powered cost.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError, FiberCollisionError, InvalidMeasureError, SpaceMismatchError
from ._numbers import DEFAULT_TOL, all_exact, tolerance
from .measure import (
    DiscreteMeasure,
    Disintegration,
    disintegrate,
    push_forward,
    reassemble,
)
from .metric import Interval, IntervalPoint, Product, ProductPoint

__all__ = [
    "IntervalIsometry",
    "StepCDF",
    "cdf",
    "generalized_inverse",
    "flip",
    "flip_via_cdf",
    "reflect",
    "apply_interval_isometry",
    "fiberwise",
    "fiber_flip",
    "is_fiber_injective",
    "flip_coupling",
]


class IntervalIsometry(Enum):
    """The four metric symmetries of interval measures under 1-Wasserstein.

    Generated by the reflection pushforward and the flip; the composition
    table is the Klein four-group (abelian, every element its own inverse).
    FLIP_REFLECT means flip first, then reflect.
    """

    IDENTITY = (False, False)
    REFLECT = (False, True)
    FLIP = (True, False)
    FLIP_REFLECT = (True, True)

    @property
    def has_flip(self):
        return self.value[0]

    @property
    def has_reflect(self):
        return self.value[1]

    @classmethod
    def from_name(cls, name):
        try:
            return _ISOMETRY_NAMES[name]
        except KeyError:
            raise DomainError(f"unknown transform {name!r}") from None


_ISOMETRY_NAMES = {
    "id": IntervalIsometry.IDENTITY,
    "reflect": IntervalIsometry.REFLECT,
    "flip": IntervalIsometry.FLIP,
    "flip-reflect": IntervalIsometry.FLIP_REFLECT,
}


# ---------------------------------------------------------------------------
# step CDFs


@dataclass(frozen=True)
class StepCDF:
    """Right-continuous step function on [0, 1] ending at height 1.

    ``breakpoints`` are the jump locations (strictly increasing, in [0, 1]);
    ``values`` the heights right of each jump (strictly increasing, terminal
    value 1). In one-to-one correspondence with probability measures on the
    interval: jumps are atom masses.
    """

    breakpoints: tuple
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "breakpoints", tuple(self.breakpoints))
        object.__setattr__(self, "values", tuple(self.values))
        bp, vals = self.breakpoints, self.values
        if not bp or len(bp) != len(vals):
            raise DomainError("breakpoints and values must be nonempty and aligned")
        for t in bp:
            if not (0 <= t <= 1):
                raise DomainError(f"breakpoint {t!r} outside [0, 1]")
        if any(b >= c for b, c in zip(bp, bp[1:])):
            raise DomainError("breakpoints must be strictly increasing")
        prev = 0
        for v in vals:
            if not v > prev:
                raise DomainError("values must be strictly increasing from 0")
            prev = v
        last = vals[-1]
        if abs(last - 1) > tolerance(last):
            raise DomainError(f"terminal value {last} must be 1 within {tolerance(last)}")

    def __call__(self, t):
        """F(t): cumulative mass at or left of t."""
        idx = bisect.bisect_right(self.breakpoints, t)
        return self.values[idx - 1] if idx else 0

    def jumps(self):
        prev = 0
        out = []
        for t, v in zip(self.breakpoints, self.values):
            out.append((t, v - prev))
            prev = v
        return out

    def to_measure(self, space=None):
        space = Interval(1) if space is None else space
        return DiscreteMeasure(
            space, tuple((IntervalPoint(t), m) for t, m in self.jumps())
        )


def cdf(mu):
    """Cumulative distribution function of an interval measure."""
    if not isinstance(mu.space, Interval):
        raise SpaceMismatchError("cdf needs a measure on the interval")
    breakpoints = [point.t for point in mu.support]
    values = list(itertools.accumulate(mu.masses))
    # the terminal height of a probability CDF is 1 by definition; writing it
    # as such keeps float cumsum dust out of downstream breakpoints
    if abs(values[-1] - 1) <= DEFAULT_TOL:
        values[-1] = 1 if all_exact(values) else 1.0
    return StepCDF(tuple(breakpoints), tuple(values))


def generalized_inverse(F):
    """G(s) = inf{t : F(t) > s}, returned as a step CDF on [0, 1].

    For a step CDF this is again a step CDF; applying it twice recovers F.
    The construction realizes the CDF-inverse exchange behind the flip.
    """
    ts = F.breakpoints
    heights = F.values
    raw_breaks = [0] + list(heights[:-1])
    raw_values = list(ts)
    if ts[-1] != 1:
        raw_breaks.append(heights[-1])
        raw_values.append(1)
    breaks = []
    values = []
    prev = 0
    for b, v in zip(raw_breaks, raw_values):
        if v == prev:
            continue  # zero jump, no atom here
        breaks.append(b)
        values.append(v)
        prev = v
    return StepCDF(tuple(breaks), tuple(values))


# ---------------------------------------------------------------------------
# the flip and its relatives


def flip(mu):
    """Mass-splitting flip of an interval measure (closed form).

    Exchanges atom locations with cumulative masses: a Dirac at x becomes
    x * delta_0 + (1 - x) * delta_1, and in general locations t_i turn into
    gap masses at the cumulative sums. An involution, and a 1-Wasserstein
    isometry on the interval.
    """
    if not isinstance(mu.space, Interval):
        raise SpaceMismatchError("flip needs a measure on the interval")
    ts = [p.t for p, _ in mu.atoms]
    masses = [m for _, m in mu.atoms]
    # the ends of a float measure are floats too, so its costs stay all-float;
    # a measure with any exact t or mass keeps int ends
    zero, one = (0.0, 1.0) if all(isinstance(v, float) for v in ts + masses) else (0, 1)
    atoms = []
    if ts[0] != 0:
        atoms.append((IntervalPoint(zero), ts[0]))
    for acc, t, t_next in zip(itertools.accumulate(masses), ts, ts[1:]):
        atoms.append((IntervalPoint(acc), t_next - t))
    if ts[-1] != 1:
        atoms.append((IntervalPoint(one), 1 - ts[-1]))
    return DiscreteMeasure(mu.space, tuple(atoms))


def flip_via_cdf(mu):
    """Oracle route for the flip: build the CDF, invert it, read atoms back.

    Kept deliberately separate from :func:`flip`; tests compare the two.
    """
    return generalized_inverse(cdf(mu)).to_measure(mu.space)


def reflect(mu):
    """Pushforward of an interval measure under t -> 1 - t."""
    if not isinstance(mu.space, Interval):
        raise SpaceMismatchError("reflect needs a measure on the interval")
    return push_forward(mu, lambda p: IntervalPoint(1 - p.t))


def apply_interval_isometry(iso, mu):
    """Apply one of the four interval isometries to an interval measure."""
    out = mu
    if iso.has_flip:
        out = flip(out)
    if iso.has_reflect:
        out = reflect(out)
    return out


# ---------------------------------------------------------------------------
# fiber-wise application over a product space


def fiberwise(phi, mu):
    """Apply an interval isometry to every fiber conditional of ``mu``.

    ``mu`` lives on a product space; it is disintegrated over the base, the
    transform is applied to each conditional, and the pieces are reassembled
    with the base marginal untouched. Measures sharing fibers are fine.
    ``phi`` may be an :class:`IntervalIsometry` or any map from interval
    measures to interval measures.
    """
    dis = disintegrate(mu)
    if isinstance(phi, IntervalIsometry):
        transform = lambda cond: apply_interval_isometry(phi, cond)
    else:
        transform = phi
    new_conditionals = []
    for x, cond in dis.conditionals:
        image = transform(cond)
        if not isinstance(image, DiscreteMeasure) or not isinstance(image.space, Interval):
            raise InvalidMeasureError("fiber transform must return an interval measure")
        new_conditionals.append((x, image))
    return reassemble(Disintegration(dis.space, dis.marginal, tuple(new_conditionals)))


def fiber_flip(mu):
    """Fiber-wise flip, the lift of the interval flip to a product space."""
    return fiberwise(IntervalIsometry.FLIP, mu)


def _fiber_collisions(points):
    seen = {}
    collisions = []
    for pt in points:
        if pt.x in seen:
            collisions.append((seen[pt.x], pt))
        else:
            seen[pt.x] = pt
    return collisions


def is_fiber_injective(mu):
    """True when no two atoms share a base point."""
    if not isinstance(mu.space, Product):
        raise SpaceMismatchError("fiber injectivity concerns product-space measures")
    return not _fiber_collisions(mu.support)


# ---------------------------------------------------------------------------
# the four-corner coupling lift


def flip_coupling(pi):
    """Lift a plan between fiber-injective measures to their fiber flips.

    Every cell gamma at ((t, x), (t', x')) splits over the four corners
    ((0,x),(0,x')), ((0,x),(1,x')), ((1,x),(0,x')), ((1,x),(1,x')) with
    weights gamma * min(t, t'), gamma * (t - t')_+, gamma * (t' - t)_+, and
    gamma * (1 - max(t, t')). The result couples the fiber-flipped marginals
    and its powered cost under the product metric's own exponent equals the
    cost of ``pi`` exactly.

    Fiber injectivity of both supports is a hard precondition; colliding
    atoms are reported in the raised error.
    """
    space = pi.space
    if not isinstance(space, Product):
        raise SpaceMismatchError("flip_coupling needs a product-space plan")
    for side, points in (("row", pi.row_points), ("col", pi.col_points)):
        bad = _fiber_collisions(points)
        if bad:
            pairs = "; ".join(f"{a} and {b}" for a, b in bad)
            raise FiberCollisionError(
                f"{side} support is not fiber-injective: {pairs}",
                atoms=[p for ab in bad for p in ab],
            )

    mu = DiscreteMeasure(space, tuple(zip(pi.row_points, pi.row_sums())))
    nu = DiscreteMeasure(space, tuple(zip(pi.col_points, pi.col_sums())))
    mu_flip = fiber_flip(mu)
    nu_flip = fiber_flip(nu)
    row_index = {pt: i for i, pt in enumerate(mu_flip.support)}
    col_index = {pt: i for i, pt in enumerate(nu_flip.support)}

    weights = [[0] * len(col_index) for _ in row_index]
    for j, k, w in pi.cells():
        t = pi.row_points[j].t
        s = pi.col_points[k].t
        x = pi.row_points[j].x
        xp = pi.col_points[k].x
        corners = (
            (0, 0, t if t <= s else s),
            (0, 1, (t - s) if t > s else 0),
            (1, 0, (s - t) if s > t else 0),
            (1, 1, 1 - (t if t >= s else s)),
        )
        for tt, ss, frac in corners:
            if frac == 0:
                continue
            r = row_index[ProductPoint(tt, x)]
            c = col_index[ProductPoint(ss, xp)]
            weights[r][c] = weights[r][c] + w * frac
    from .solver import Coupling

    return Coupling(space, mu_flip.support, nu_flip.support, tuple(tuple(r) for r in weights))
