"""Seeded verification campaigns over the library's core identities.

Each suite runs ``trials`` independent probes. Trial ``k`` of a campaign
with master seed ``s`` draws all of its randomness from a generator seeded
with ``(s, k)``, so any single trial can be replayed without re-running the
campaign and the report is independent of execution order. Reports render
to deterministic text (the wall-time line is last so tooling can strip it)
and to a fixed-schema CSV of residuals.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass

from ._numbers import format_number, ratio
from .errors import CouplingError, DomainError, FiberCollisionError, InvariantError, SolverStallError, SpaceMismatchError
from .measure import DiscreteMeasure, convex_combine
from .metric import (
    Euclidean,
    EuclideanPoint,
    Finite,
    Interval,
    Product,
    ProductPoint,
    distance,
)
from .isometry import fiber_flip, flip, flip_coupling, flip_via_cdf
from .sampling import (
    DEFAULT_WINDOW,
    _scalar,
    _window_bounds,
    make_rng,
    random_coupling,
    random_masses,
    random_measure,
    random_point,
    random_separated_points,
)
from .solver import (
    check_cyclical_monotonicity,
    coupling_cost,
    kr_dual,
    solve_wasserstein,
    validate_coupling,
)
from .rigidity import (
    build_geodesic_extension,
    detect_dirac_pair_form,
    dirac_pair_mixture_candidates,
    geodesic_speed_check,
    ratio_set_scan,
    split_transport,
)

__all__ = [
    "SUITE_NAMES",
    "SCENARIO_NAMES",
    "TrialRecord",
    "CampaignReport",
    "run_suite",
    "run_scenario",
    "render_report",
    "render_csv",
    "alpha_form_pair",
    "collinear_witness_pair",
    "split_residual_witness_pair",
    "geodesic_instance",
    "five_point_tree_space",
]

_FAIL = float("inf")


@dataclass(frozen=True)
class TrialRecord:
    """One probe outcome: the residual and whether it clears the tolerance."""

    index: int
    seed_label: str
    residual: float
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class CampaignReport:
    suite: str
    space_label: str
    mode: str
    seed: int
    tol: float
    trials: tuple
    wall_time_s: float

    @property
    def passed(self):
        return all(t.passed for t in self.trials)

    @property
    def max_residual(self):
        return max((t.residual for t in self.trials), default=0.0)

    @property
    def failures(self):
        return len([t for t in self.trials if not t.passed])


# ---------------------------------------------------------------------------
# shared instance builders (also used directly by the test suite)


def _default_product(exact):
    alpha = ratio(1, 2) if exact else 0.5
    return Product(alpha, 2, Euclidean(2))


# fiber coordinates and mixing weights away from the ends of [0, 1]; exact
# draws in sixteenths take 1/16 .. 15/16
_UNIT_INTERIOR = (0.05, 0.95)


def _remainder(rng, space, exact, c_low):
    """A remainder eta of one to three atoms, two endpoints y and y', a weight c.

    All points carry pairwise-distinct t coordinates. c is uniform on
    [0.15, 0.85], or in exact mode a multiple of 1/16 in [c_low, 1 - c_low].
    """
    n_eta = int(rng.integers(1, 4))
    y, y_prime, *eta_pts = random_separated_points(rng, space, n_eta + 2, exact)
    eta = DiscreteMeasure(space, tuple(zip(eta_pts, random_masses(rng, n_eta, exact=exact))))
    c = _scalar(rng, exact, (0.15, 0.85), 16, exact_window=(c_low, 1 - c_low))
    return eta, y, y_prime, c


def five_point_tree_space():
    """Fixed 5-point tree metric with integer edge lengths.

    Path distances over edges 0-1 (2), 1-2 (1), 1-3 (3), 3-4 (2). Integer
    entries keep every solve over this base exact.
    """
    edges = {(0, 1): 2, (1, 2): 1, (1, 3): 3, (3, 4): 2}
    n = 5
    big = 10**6
    d = [[0 if i == j else big for j in range(n)] for i in range(n)]
    for (i, j), w in edges.items():
        d[i][j] = d[j][i] = w
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return Finite(tuple(tuple(row) for row in d))


def alpha_form_pair(rng, alpha, q=2, exact=False):
    """A shared-remainder Dirac pair with a metrically trivial segment.

    Returns ``(mu, nu, eta, y, y_prime, c)`` on ``Product(alpha, q, Euclidean(2))``
    with ``q > 1``. All support points carry pairwise-distinct
    t coordinates, so the segment between y and y' is certified trivial.
    """
    if not alpha < 1:
        raise DomainError("the trivial-segment certificate needs alpha < 1")
    if not q > 1:
        raise DomainError("the trivial-segment certificate needs q > 1")
    space = Product(alpha, q, Euclidean(2))
    eta, y, y_prime, c = _remainder(rng, space, exact, ratio(1, 16))
    mu = DiscreteMeasure(space, ((y, c),) + tuple((u, (1 - c) * m) for u, m in eta.atoms))
    nu = DiscreteMeasure(space, ((y_prime, c),) + tuple((u, (1 - c) * m) for u, m in eta.atoms))
    return mu, nu, eta, y, y_prime, c


def collinear_witness_pair(rng, exact=False):
    """Dirac pair sharing a t coordinate, plus an interior ratio-set member.

    With equal t's the product metric degenerates to the base metric, so a
    point on the base segment between the two fibers sits in the ratio set
    at lam = (its distance from y) / d(y, y'): a second member besides the
    convex combination.
    """
    space = _default_product(exact)
    t = _scalar(rng, exact, _UNIT_INTERIOR, 16)
    x0 = _scalar(rng, exact, (-4, 4), 2)
    x1 = _scalar(rng, exact, (-4, 4), 2)
    h = _scalar(rng, exact, (0.5, 2.0), 2)
    # lam's float draw is a choice among three values, not a uniform one
    lam = ratio(int(rng.integers(1, 4)), 4) if exact else float(rng.choice([0.25, 0.5, 0.75]))
    y = ProductPoint(t, EuclideanPoint((x0, x1)))
    y_prime = ProductPoint(t, EuclideanPoint((x0 + 2 * h, x1)))
    interior = ProductPoint(t, EuclideanPoint((x0 + 2 * h * lam, x1)))
    mu = DiscreteMeasure(space, ((y, 1),))
    nu = DiscreteMeasure(space, ((y_prime, 1),))
    xi = DiscreteMeasure(space, ((interior, 1),))
    return mu, nu, lam, xi


def split_residual_witness_pair(rng, exact=False):
    """Pair with two-atom residuals and a second ratio-set member at 1/2.

    Both residuals split into two transport lanes of equal length, far from
    each other and from the shared part. Shipping one lane and not the other
    yields a member distinct from the convex combination.
    """
    space = _default_product(exact)
    t = _scalar(rng, exact, _UNIT_INTERIOR, 16)
    base_x = _scalar(rng, exact, (-4, 4), 1)
    length = _scalar(rng, exact, (0.5, 1.5), 1, exact_window=(1, 2))
    a = _scalar(rng, exact, (0.25, 0.75), 8)
    sep = 6 * length
    far = 15 * length

    def pt(dx, dy):
        return ProductPoint(t, EuclideanPoint((base_x + dx, dy)))

    y1, z1 = pt(0, 0), pt(0, length)
    y2, z2 = pt(sep, 0), pt(sep, length)
    eta_pt = pt(far, 0)
    half = ratio(1, 2) if exact else 0.5
    common = ((eta_pt, 1 - a),)
    mu = DiscreteMeasure(space, common + ((y1, a * half), (y2, a * half)))
    nu = DiscreteMeasure(space, common + ((z1, a * half), (z2, a * half)))
    xi = DiscreteMeasure(space, common + ((z1, a * half), (y2, a * half)))
    return mu, nu, half, xi


def geodesic_instance(rng, exact=False):
    """Random extension data: a remainder, two endpoints, a mixing weight."""
    space = _default_product(exact)
    eta, y, y_prime, c = _remainder(rng, space, exact, ratio(1, 8))
    return build_geodesic_extension(space, eta, y, y_prime, c)


# ---------------------------------------------------------------------------
# the suites


def _suite_metric_axioms(rng, ctx):
    space = ctx["space"]
    a, b, c = (random_point(rng, space, exact=ctx["exact"], window=ctx["window"]) for _ in range(3))
    residual = float(abs(distance(space, a, a)))
    ab = distance(space, a, b)
    residual = max(residual, float(abs(ab - distance(space, b, a))))
    raw = ab + distance(space, b, c) - distance(space, a, c)
    if raw < 0:
        residual = max(residual, float(-raw))
    if a != b and not ab > 0:
        return _FAIL, "zero distance between distinct points"
    return residual, ""


def _suite_measure(rng, ctx, low, high, space=None, distinct_fibers=False):
    """A random measure of ``low`` to ``high - 1`` atoms in the trial's mode and window.

    It lives on ``space``, or on the campaign's space when that is None.
    """
    return random_measure(
        rng, ctx["space"] if space is None else space, int(rng.integers(low, high)),
        exact=ctx["exact"], window=ctx["window"], distinct_fibers=distinct_fibers,
    )


def _flip_residual(mu, nu, fmu, fnu, p, residual=0.0):
    """The larger of ``residual`` and |W_p(fmu, fnu) - W_p(mu, nu)|, as a trial outcome.

    Both solves must be certified.
    """
    before = solve_wasserstein(mu, nu, p=p)
    after = solve_wasserstein(fmu, fnu, p=p)
    if not (before.certified and after.certified):
        return _FAIL, "solver could not certify optimality"
    return max(residual, float(abs(after.cost - before.cost))), ""


def _suite_flip_isometry(rng, ctx):
    exact = ctx["exact"]
    mu = _suite_measure(rng, ctx, 1, 11, space=Interval(1))
    nu = _suite_measure(rng, ctx, 1, 11, space=Interval(1))
    fmu, fnu = flip(mu), flip(nu)
    if flip_via_cdf(mu).atoms != fmu.atoms:
        return _FAIL, "closed-form flip disagrees with the inverse-CDF route"
    back = flip(fmu)
    residual = 0.0
    if exact:
        if back.atoms != mu.atoms:
            return _FAIL, "flip is not an involution on this measure"
    else:
        # float cumsums round-trip only approximately; compare atom-wise
        if len(back.atoms) != len(mu.atoms):
            return _FAIL, "flip round trip changed the atom count"
        for (p1, m1), (p2, m2) in zip(back.atoms, mu.atoms):
            residual = max(residual, abs(p1.t - p2.t), abs(m1 - m2))
    return _flip_residual(mu, nu, fmu, fnu, 1, residual)


def _fiber_measure_pair(rng, ctx, max_atoms=8):
    space = ctx["space"]
    limit = max_atoms
    if isinstance(space.base, Finite):
        limit = min(limit, space.base.size)
    mu = _suite_measure(rng, ctx, 1, limit + 1, distinct_fibers=True)
    nu = _suite_measure(rng, ctx, 1, limit + 1, distinct_fibers=True)
    return mu, nu


def _suite_fiber_flip_isometry(rng, ctx):
    mu, nu = _fiber_measure_pair(rng, ctx)
    return _flip_residual(mu, nu, fiber_flip(mu), fiber_flip(nu), ctx["space"].q)


def _suite_coupling_lift_cost(rng, ctx):
    space = ctx["space"]
    mu, nu = _fiber_measure_pair(rng, ctx, max_atoms=15)
    pi = random_coupling(rng, mu, nu)
    lifted = flip_coupling(pi)
    q = space.q
    residual = float(abs(coupling_cost(lifted, q) - coupling_cost(pi, q)))
    try:
        validate_coupling(lifted, fiber_flip(mu), fiber_flip(nu), tol=max(ctx["tol"], 1e-12))
    except (CouplingError, SpaceMismatchError):
        return _FAIL, "lifted plan does not couple the flipped marginals"
    return residual, ""


def _suite_translation_invariance(rng, ctx):
    mu, nu, xi = (_suite_measure(rng, ctx, 1, 7) for _ in range(3))
    c = _scalar(rng, ctx["exact"], _UNIT_INTERIOR, 16)
    lhs = solve_wasserstein(
        convex_combine(c, xi, mu), convex_combine(c, xi, nu), p=1
    ).cost
    rhs = c * solve_wasserstein(mu, nu, p=1).cost
    return float(abs(lhs - rhs)), ""


def _suite_duality_gap(rng, ctx):
    mu = _suite_measure(rng, ctx, 1, 9)
    nu = _suite_measure(rng, ctx, 1, 9)
    primal = solve_wasserstein(mu, nu, p=1)
    dual = kr_dual(mu, nu, independent=True)
    return float(abs(float(primal.cost) - float(dual.value))), ""


def _ratio_verdict(report, witness):
    """The worst membership residual of a ratio-set scan, as a trial outcome.

    The set must hold the convex combination, and a member besides it
    exactly when the trial built a ``witness`` for one.
    """
    if not report.convex_combination_included:
        return _FAIL, "convex combination missing from the ratio set"
    if report.has_non_convex_member != witness:
        if witness:
            return _FAIL, "constructed witness is not a ratio-set member"
        return _FAIL, "unexpected extra ratio-set member"
    worst = 0.0
    for _, residuals, _ in report.members:
        worst = max(worst, float(abs(residuals[0])), float(abs(residuals[1])))
    return worst, ""


def _suite_ratio_singleton(rng, ctx):
    exact = ctx["exact"]
    alpha_choices = (ratio(1, 2), ratio(9, 10)) if exact else (0.5, 0.9)
    alpha = alpha_choices[int(rng.integers(0, 2))]
    mu, nu, eta, y, y_prime, c = alpha_form_pair(rng, alpha, q=2, exact=exact)
    form = detect_dirac_pair_form(mu, nu)
    if form is None or not form.segment_trivial:
        return _FAIL, "pair was not recognized in shared-remainder form"
    lam_choices = (ratio(1, 4), ratio(1, 2), ratio(3, 4)) if exact else (0.25, 0.5, 0.75)
    lam = lam_choices[int(rng.integers(0, 3))]
    candidates = dirac_pair_mixture_candidates(form, mu.space, step=0.25)
    return _ratio_verdict(ratio_set_scan(mu, nu, lam, candidates, tol=ctx["tol"]), witness=False)


def _suite_ratio_witness(rng, ctx):
    exact = ctx["exact"]
    if int(rng.integers(0, 2)):
        mu, nu, lam, xi = collinear_witness_pair(rng, exact=exact)
    else:
        mu, nu, lam, xi = split_residual_witness_pair(rng, exact=exact)
    return _ratio_verdict(ratio_set_scan(mu, nu, lam, [xi], tol=ctx["tol"]), witness=True)


def _suite_split_additivity(rng, ctx):
    mu = _suite_measure(rng, ctx, 2, 8)
    nu = _suite_measure(rng, ctx, 1, 8)
    cut = int(rng.integers(1, len(mu.support)))
    subset = list(mu.support)[:cut]
    try:
        piece = split_transport(mu, nu, subset, tol=ctx["tol"])
    except InvariantError:
        return _FAIL, "additivity postcondition failed"
    plan = solve_wasserstein(mu, nu, p=1)
    mono = check_cyclical_monotonicity(plan.coupling, p=1, max_cycle=3)
    if not mono.ok:
        return _FAIL, "optimal plan fails cyclical monotonicity"
    return float(abs(piece.residual)), ""


def _suite_geodesic_extension(rng, ctx):
    ext = geodesic_instance(rng, exact=ctx["exact"])
    smin = float(ext.domain_min)
    samples = []
    for _ in range(10):
        s1, s2 = sorted(float(v) for v in rng.uniform(smin, 1.0, 2))
        samples.append((s1, s2))
    report = geodesic_speed_check(ext, samples, tol=ctx["tol"])
    return float(report.worst_residual), ""


_SUITES = {
    "metric-axioms": _suite_metric_axioms,
    "flip-isometry": _suite_flip_isometry,
    "fiber-flip-isometry": _suite_fiber_flip_isometry,
    "pi-hat-cost": _suite_coupling_lift_cost,
    "translation-invariance": _suite_translation_invariance,
    "duality-gap": _suite_duality_gap,
    "ratio-singleton": _suite_ratio_singleton,
    "ratio-witness": _suite_ratio_witness,
    "lemma31-additivity": _suite_split_additivity,
    "geodesic-extension": _suite_geodesic_extension,
}

SUITE_NAMES = tuple(_SUITES)

# suites that exercise the isometry machinery on a caller-chosen space
_FLEXIBILITY_SUITES = ("fiber-flip-isometry", "pi-hat-cost")

# suites that build their own space and sampling windows: the space and the
# window a campaign is given reach none of their draws (flip-isometry draws
# on [0, 1], the others on products of their own)
_OWN_SPACE_SUITES = ("flip-isometry", "ratio-singleton", "ratio-witness", "geodesic-extension")


def _scenario_spaces(exact):
    half = ratio(1, 2) if exact else 0.5
    return {
        # plane base, squared combination
        "example-2-1": (Product(half, 2, Euclidean(2)), DEFAULT_WINDOW),
        # half-line base truncated to [0, 10]; the cap is the sampling window
        "example-2-2": (Product(half, 2, Euclidean(1)), (0.0, 10.0)),
        # city-block square: |dt| + |dx| on [0,1] x [0,1]
        "example-2-3": (Product(1, 1, Interval(1)), DEFAULT_WINDOW),
        # additive combination with a finite tree base
        "example-3-2": (Product(1, 1, five_point_tree_space()), DEFAULT_WINDOW),
    }


SCENARIO_NAMES = tuple(_scenario_spaces(exact=False))


# ---------------------------------------------------------------------------
# the runner


def _run_trials(suite, space, window, seed, trials, tol, mode, index_offset=0, note_prefix=""):
    runner = _SUITES[suite]
    ctx = {
        "space": space,
        "window": window,
        "tol": tol,
        "exact": mode == "rational",
    }
    records = []
    for k in range(trials):
        rng = make_rng((seed, index_offset + k))
        try:
            residual, note = runner(rng, ctx)
        except (SolverStallError, FiberCollisionError, DomainError, InvariantError) as exc:
            residual, note = _FAIL, f"{type(exc).__name__}: {exc}"
        passed = residual <= tol
        if note_prefix and note:
            note = f"{note_prefix}: {note}"
        elif note_prefix:
            note = note_prefix
        records.append(
            TrialRecord(
                index=index_offset + k,
                seed_label=f"{seed}:{index_offset + k}",
                residual=residual,
                passed=passed,
                note=note,
            )
        )
    return records


def _campaign_report(name, space, seed, trials, tol, mode, run):
    """Check the arguments every campaign shares, then time ``run()`` into a report."""
    if mode not in ("float", "rational"):
        raise DomainError(f"mode must be 'float' or 'rational', got {mode!r}")
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        # numpy's seed sequence takes non-negative integer entropy only
        raise DomainError(f"seed must be a non-negative integer, got {seed}")
    if isinstance(trials, bool) or not isinstance(trials, numbers.Integral):
        raise DomainError(f"trial count must be an integer, got {trials!r}")
    if trials < 1:
        raise DomainError("trial count must be at least 1")
    try:
        positive = tol > 0
    except TypeError:  # a str or None does not compare with a number
        positive = None
    if positive is None or isinstance(tol, bool):
        raise DomainError(f"tolerance must be a number, got {tol!r}")
    if not positive:
        raise DomainError("tolerance must be positive")
    if not math.isfinite(tol):
        # a failed trial's residual is _FAIL = inf, and inf <= inf would pass it
        raise DomainError(f"tolerance must be finite, got {tol!r}")
    start = time.perf_counter()
    records = run()
    elapsed = time.perf_counter() - start
    return CampaignReport(
        suite=name,
        space_label=space.describe(),
        mode=mode,
        seed=seed,
        tol=tol,
        trials=tuple(records),
        wall_time_s=elapsed,
    )


def run_suite(suite, seed=0, trials=100, tol=1e-8, mode="float", space=None, window=None):
    """Run one named verification suite and return its report."""
    if suite not in _SUITES:
        raise DomainError(f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)}")
    if space is None:
        space = _default_product(mode == "rational")
    elif suite in _FLEXIBILITY_SUITES and not isinstance(space, Product):
        raise DomainError(f"{suite} needs a product space, got {space.describe()}")
    if window is None:
        window = DEFAULT_WINDOW
    try:  # a window no trial can draw from is refused here, not per trial
        _window_bounds(window)
    except (TypeError, ValueError):
        raise DomainError(f"sampling window must be a number or a pair, got {window!r}") from None
    return _campaign_report(
        suite, space, seed, trials, tol, mode,
        lambda: _run_trials(suite, space, window, seed, trials, tol, mode),
    )


def run_scenario(name, seed=0, trials=50, tol=1e-8, mode="float"):
    """Instantiate a packaged example space and run the flexibility suites."""
    spaces = _scenario_spaces(mode == "rational")
    if name not in spaces:
        raise DomainError(f"unknown scenario {name!r}; choose from {', '.join(SCENARIO_NAMES)}")
    space, window = spaces[name]

    def run():
        records = []
        for pos, suite in enumerate(_FLEXIBILITY_SUITES):
            records.extend(
                _run_trials(
                    suite, space, window, seed, trials, tol, mode,
                    index_offset=pos * trials, note_prefix=suite,
                )
            )
        return records

    return _campaign_report(name, space, seed, trials, tol, mode, run)


# ---------------------------------------------------------------------------
# rendering


def _fmt_float(x):
    return repr(float(x)) if isinstance(x, float) else format_number(x)


def render_report(report):
    """Deterministic text form; the wall-time line comes last by contract."""
    lines = [
        f"suite = {report.suite}",
        f"space = {report.space_label}",
        f"mode = {report.mode}",
        f"seed = {report.seed}",
        f"trials = {len(report.trials)}",
        f"tol = {_fmt_float(report.tol)}",
    ]
    for t in report.trials:
        status = "pass" if t.passed else "FAIL"
        line = f"trial {t.index} seed={t.seed_label} residual={_fmt_float(t.residual)} {status}"
        if t.note:
            line += f" note={t.note}"
        lines.append(line)
    lines.append(f"aggregate = {'pass' if report.passed else 'FAIL'}")
    lines.append(f"max_residual = {_fmt_float(report.max_residual)}")
    lines.append(f"failures = {report.failures}")
    lines.append(f"wall_time_s = {report.wall_time_s:.3f}")
    return "\n".join(lines) + "\n"


def render_csv(report):
    """Residuals in the fixed ``trial,seed,residual,pass`` schema."""
    rows = ["trial,seed,residual,pass"]
    for t in report.trials:
        rows.append(f"{t.index},{t.seed_label},{_fmt_float(t.residual)},{1 if t.passed else 0}")
    return "\n".join(rows) + "\n"
