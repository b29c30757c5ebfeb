"""Probes for rigidity of 1-Wasserstein geometry.

The central object is the ratio set at lambda in (0, 1): the measures xi
with d(mu, xi) = lambda * d(mu, nu) and d(xi, nu) = (1 - lambda) * d(mu, nu).
The convex combination (1 - lambda) * mu + lambda * nu always belongs to it.
Over a snowflake product base the ratio set collapses to that single point
exactly when the pair has the shared-remainder form

    mu = (1 - c) * eta + c * delta_y,    nu = (1 - c) * eta + c * delta_y'

with a metrically trivial segment between y and y'. The probes here detect
that form, scan candidate families for ratio-set members, split transport
plans along support subsets (with an additivity postcondition), extend the
segment geodesic beyond its endpoint, and generate seeded measure families
with pairwise-distinct fiber coordinates for induction experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, InvariantError
from ._numbers import DEFAULT_TOL, tolerance
from .measure import (
    DiscreteMeasure,
    convex_combine,
    measures_close,
    residual_decompose,
)
from .metric import (
    Interval,
    IntervalPoint,
    Product,
    ProductPoint,
    distance,
    segment_is_trivial,
)
from .sampling import make_rng, random_masses, random_point
from .solver import restrict_and_renormalize, solve_wasserstein

__all__ = [
    "DiracPairForm",
    "RatioSetReport",
    "SplitTransport",
    "GeodesicExtension",
    "SpeedCheckReport",
    "detect_dirac_pair_form",
    "ratio_set_membership",
    "ratio_set_scan",
    "dirac_pair_mixture_candidates",
    "split_transport",
    "build_geodesic_extension",
    "extend_geodesic",
    "geodesic_speed_check",
    "induction_family_generator",
]


# ---------------------------------------------------------------------------
# shared-remainder Dirac pair form


@dataclass(frozen=True)
class DiracPairForm:
    """mu = (1-c) eta + c delta_y and nu = (1-c) eta + c delta_y'.

    ``eta`` is None exactly when c == 1 (a pure Dirac pair). ``segment_trivial``
    records the analytic certificate that the metric segment [y, y'] contains
    nothing but its endpoints, which is what forces the ratio set to collapse.
    """

    eta: object
    c: object
    y: object
    y_prime: object
    segment_trivial: bool


def detect_dirac_pair_form(mu, nu):
    """Recognize the shared-remainder Dirac pair form, if it applies.

    Uses the residual decomposition: the form holds exactly when both
    residuals are single atoms (they then automatically carry the same
    residual weight c). Returns None when the pair is not of this form;
    equal measures are a domain error since every lambda works trivially.
    """
    if mu.atoms == nu.atoms:
        raise DomainError("equal measures: the ratio set question is vacuous")
    dec = residual_decompose(mu, nu)
    if not (dec.mu_residual.is_dirac() and dec.nu_residual.is_dirac()):
        return None
    y = dec.mu_residual.support[0]
    y_prime = dec.nu_residual.support[0]
    return DiracPairForm(
        eta=dec.common,
        c=dec.a,
        y=y,
        y_prime=y_prime,
        segment_trivial=segment_is_trivial(mu.space, y, y_prime),
    )


# ---------------------------------------------------------------------------
# ratio-set membership and scanning


def ratio_set_membership(xi, mu, nu, lam, tol=DEFAULT_TOL, base_distance=None):
    """Solver-evaluated membership of xi in the ratio set at lambda.

    Returns ``(is_member, (r1, r2))`` where r1 = d(mu, xi) - lambda * d(mu, nu)
    and r2 = d(xi, nu) - (1 - lambda) * d(mu, nu).
    """
    if not (0 < lam < 1):
        raise DomainError(f"lambda {lam!r} must lie strictly between 0 and 1")
    if base_distance is None:
        base_distance = solve_wasserstein(mu, nu, p=1).cost
    r1 = solve_wasserstein(mu, xi, p=1).cost - lam * base_distance
    r2 = solve_wasserstein(xi, nu, p=1).cost - (1 - lam) * base_distance
    return (abs(r1) <= tol and abs(r2) <= tol), (r1, r2)


@dataclass(frozen=True)
class RatioSetReport:
    """Outcome of scanning a candidate family for ratio-set members.

    ``members`` holds (measure, (r1, r2), is_convex_combination) entries.
    """

    mu: DiscreteMeasure
    nu: DiscreteMeasure
    lam: object
    base_distance: object
    members: tuple
    candidates_checked: int
    convex_combination_included: bool
    has_non_convex_member: bool

    @property
    def is_singleton(self):
        return (
            len(self.members) == 1
            and self.convex_combination_included
            and not self.has_non_convex_member
        )


def ratio_set_scan(mu, nu, lam, candidates, tol=DEFAULT_TOL):
    """Test every candidate for ratio-set membership at lambda.

    The convex combination (1 - lambda) mu + lambda nu is always examined
    (appended when the family does not already contain it); duplicates are
    checked once. Membership residuals come from fresh transport solves.
    """
    if not (0 < lam < 1):
        raise DomainError(f"lambda {lam!r} must lie strictly between 0 and 1")
    combo = convex_combine(lam, mu, nu)
    base = solve_wasserstein(mu, nu, p=1).cost
    seen = set()
    pool = []
    for cand in candidates:
        if cand.atoms in seen:
            continue
        seen.add(cand.atoms)
        pool.append(cand)
    if combo.atoms not in seen:
        pool.append(combo)
    members = []
    convex_included = False
    non_convex = False
    for cand in pool:
        ok, residuals = ratio_set_membership(cand, mu, nu, lam, tol=tol, base_distance=base)
        if not ok:
            continue
        is_combo = measures_close(cand, combo, tol=max(tol, 1e-12))
        if is_combo:
            convex_included = True
        else:
            non_convex = True
        members.append((cand, residuals, is_combo))
    return RatioSetReport(
        mu=mu,
        nu=nu,
        lam=lam,
        base_distance=base,
        members=tuple(members),
        candidates_checked=len(pool),
        convex_combination_included=convex_included,
        has_non_convex_member=non_convex,
    )


def dirac_pair_mixture_candidates(form, space, step=0.05):
    """Grid family a * delta_y + b * delta_y' + (1 - a - b) * eta.

    Walks a and b over multiples of ``step`` with a + b <= 1, skipping
    combinations that would need eta when the form has none (c == 1).
    """
    if not 0 < step <= 1:
        raise DomainError(f"grid step {step!r} outside (0, 1]")
    n = int(round(1 / step))
    out = []
    for i in range(n + 1):
        for j in range(n + 1 - i):
            a = i * step
            b = j * step
            rest = 1 - a - b
            if form.eta is None and i + j != n:
                continue
            atoms = []
            if i:
                atoms.append((form.y, a))
            if j:
                atoms.append((form.y_prime, b))
            if i + j != n and form.eta is not None:
                atoms.extend((p, rest * m) for p, m in form.eta.atoms)
            if atoms:
                out.append(DiscreteMeasure(space, tuple(atoms)))
    return out


# ---------------------------------------------------------------------------
# transport plan splitting


@dataclass(frozen=True)
class SplitTransport:
    """A transport solve split along a row-support subset.

    d(mu, nu) = lam * d(mu1, nu1) + (1 - lam) * d(mu2, nu2), verified on
    construction (``residual`` is the checked difference).
    """

    lam: object
    mu1: DiscreteMeasure
    nu1: DiscreteMeasure
    mu2: DiscreteMeasure
    nu2: DiscreteMeasure
    total_cost: object
    part1_cost: object
    part2_cost: object
    residual: object


def split_transport(mu, nu, subset, tol=DEFAULT_TOL):
    """Split an optimal plan across ``subset`` of mu's support.

    Restricting an optimal plan to complementary row groups leaves two
    optimal plans, so the total distance decomposes additively; this is
    verified with fresh solves and enforced within ``tol``.
    """
    subset = list(subset)
    support = mu.support
    inside = [p for p in support if p in subset]
    if not inside or len(inside) == len(support):
        raise DomainError("subset must cut the support into two nonempty parts")
    outside = [p for p in support if p not in subset]
    res = solve_wasserstein(mu, nu, p=1, tol=tol)
    lam, pi1 = restrict_and_renormalize(res.coupling, inside, side="row")
    lam2, pi2 = restrict_and_renormalize(res.coupling, outside, side="row")
    mu_masses = mu.as_dict()
    mu1 = DiscreteMeasure(mu.space, tuple((p, mu_masses[p] / lam) for p in inside))
    mu2 = DiscreteMeasure(mu.space, tuple((p, mu_masses[p] / lam2) for p in outside))
    nu1 = DiscreteMeasure(mu.space, tuple(zip(pi1.col_points, pi1.col_sums())))
    nu2 = DiscreteMeasure(mu.space, tuple(zip(pi2.col_points, pi2.col_sums())))
    d1 = solve_wasserstein(mu1, nu1, p=1, tol=tol).cost
    d2 = solve_wasserstein(mu2, nu2, p=1, tol=tol).cost
    residual = res.cost - (lam * d1 + lam2 * d2)
    allowed = tolerance(residual, max(tol, 1e-8))
    if abs(residual) > allowed:
        raise InvariantError(f"split additivity failed: residual {residual} beyond {allowed}")
    return SplitTransport(
        lam=lam,
        mu1=mu1,
        nu1=nu1,
        mu2=mu2,
        nu2=nu2,
        total_cost=res.cost,
        part1_cost=d1,
        part2_cost=d2,
        residual=residual,
    )


# ---------------------------------------------------------------------------
# geodesic extension past an endpoint


@dataclass(frozen=True)
class GeodesicExtension:
    """Unit-speed-style geodesic through (1-c) eta + c delta_y toward delta_y'.

    Defined on [-r(1-c)/v, 1] with speed v = c * d(y, y') and
    r = d_W1(delta_y, eta). At s = 0 it passes through the mixed measure,
    at s = 1 it reaches (1-c) eta + c delta_y', and the negative side
    extends the segment all the way back to delta_y.
    """

    space: object
    eta: DiscreteMeasure
    y: object
    y_prime: object
    c: object
    v: object
    r: object

    def __post_init__(self):
        if not (0 < self.c < 1):
            raise DomainError(f"mixture weight c={self.c!r} must lie in (0, 1)")
        v_check = self.c * distance(self.space, self.y, self.y_prime)
        r_check = _dirac_distance(self.space, self.y, self.eta)
        if abs(self.v - v_check) > DEFAULT_TOL or abs(self.r - r_check) > DEFAULT_TOL:
            raise InvariantError("stored speed or radius disagrees with recomputation")
        if not self.r > 0:
            raise DomainError("eta must be at positive distance from delta_y")
        if not self.v > 0:
            raise DomainError("y and y' must be distinct")

    @property
    def domain_min(self):
        return -(self.r * (1 - self.c)) / self.v

    def domain(self):
        return (self.domain_min, 1)


def _dirac_distance(space, y, eta):
    """d_W1(delta_y, eta): the only coupling ships everything to y, a valid point of ``space``."""
    if eta.space != space:  # eta's atoms were validated on eta.space only
        for p in eta.support:
            space.validate_point(p)
    total = 0
    for p, m in eta.atoms:
        total = total + m * space.distance(y, p)
    return total


def build_geodesic_extension(space, eta, y, y_prime, c):
    """Construct the extension, deriving speed and radius from the data."""
    v = c * distance(space, y, y_prime)
    r = _dirac_distance(space, y, eta)
    return GeodesicExtension(space=space, eta=eta, y=y, y_prime=y_prime, c=c, v=v, r=r)


def extend_geodesic(ext, s):
    """Evaluate the extended geodesic at parameter s.

    Outside [-r(1-c)/v, 1] the curve is undefined and a domain error is
    raised. The left endpoint is returned exactly as delta_y (evaluating the
    mixture formula there would leave float crumbs below the mass floor).
    """
    smin = ext.domain_min
    if s < smin or s > 1:
        raise DomainError(f"parameter {s!r} outside [{smin!r}, 1]")
    if s == smin:
        return DiscreteMeasure(ext.space, ((ext.y, 1),))
    if s <= 0:
        beta = s * ext.v / (ext.r * (ext.c - 1))
        atoms = [(ext.y, beta + (1 - beta) * ext.c)]
        atoms += [(p, (1 - beta) * (1 - ext.c) * m) for p, m in ext.eta.atoms]
        return DiscreteMeasure(ext.space, tuple(atoms))
    atoms = [(p, (1 - ext.c) * m) for p, m in ext.eta.atoms]
    if s != 1:
        atoms.append((ext.y, ext.c * (1 - s)))
    atoms.append((ext.y_prime, ext.c * s))
    return DiscreteMeasure(ext.space, tuple(atoms))


@dataclass(frozen=True)
class SpeedCheckReport:
    ok: bool
    worst_residual: object
    details: tuple  # (s1, s2, wasserstein, expected, residual, dual_bound)


def geodesic_speed_check(ext, sample_pairs, tol=DEFAULT_TOL):
    """Verify d_W1(curve(s1), curve(s2)) == (s2 - s1) * v on sampled pairs.

    Each pair is solved with the transportation simplex; the report also
    carries the dual lower bound obtained from the 1-Lipschitz witness
    f(u) = d(y, u), which certifies the distance from below.
    """
    details = []
    worst = 0
    ok = True
    for s1, s2 in sample_pairs:
        if s2 < s1:
            raise DomainError(f"sample pair ({s1!r}, {s2!r}) is out of order")
        g1 = extend_geodesic(ext, s1)
        g2 = extend_geodesic(ext, s2)
        if s1 == s2:
            details.append((s1, s2, 0, 0, 0, 0))
            continue
        got = solve_wasserstein(g1, g2, p=1, tol=tol).cost
        expected = (s2 - s1) * ext.v
        residual = abs(got - expected)
        bound = 0
        g1_masses = g1.as_dict()
        # the curve's measures and ext.y are points of ext.space already
        for p, m in g2.atoms:
            bound = bound + ext.space.distance(ext.y, p) * m
        for p, m in g1_masses.items():
            bound = bound - ext.space.distance(ext.y, p) * m
        if bound > got + tol:
            raise InvariantError("dual lower bound exceeds the solved distance")
        if residual > tol:
            ok = False
        if residual > worst:
            worst = residual
        details.append((s1, s2, got, expected, residual, bound))
    return SpeedCheckReport(ok=ok, worst_residual=worst, details=tuple(details))


# ---------------------------------------------------------------------------
# seeded measure families


def _distinct_unit_values(rng, count, min_gap):
    while True:
        vals = sorted(float(t) for t in rng.uniform(0, 1, count))
        if all(b - a >= min_gap for a, b in zip(vals, vals[1:])):
            return vals


def induction_family_generator(space, n_atoms, seed, window=10.0):
    """Endless stream of seeded random measures with pairwise-distinct t's.

    On a product space the atoms get random base points in the sampling
    window; on an interval space the atoms are the t's themselves. Fiber
    coordinates keep a minimum gap so downstream strict-inequality probes
    are numerically meaningful.
    """
    if n_atoms < 1:
        raise DomainError("n_atoms must be positive")
    if not isinstance(space, (Product, Interval)):
        raise DomainError("induction families live on product or interval spaces")
    rng = make_rng(seed)
    min_gap = min(0.02, 1.0 / (4 * n_atoms))
    while True:
        ts = _distinct_unit_values(rng, n_atoms, min_gap)
        rng.shuffle(ts)
        masses = random_masses(rng, n_atoms)
        atoms = []
        for t, m in zip(ts, masses):
            if isinstance(space, Product):
                point = ProductPoint(t, random_point(rng, space.base, window=window))
            else:
                point = IntervalPoint(t)
            atoms.append((point, m))
        yield DiscreteMeasure(space, tuple(atoms))
