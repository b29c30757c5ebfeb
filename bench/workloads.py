"""The benchmark's four workloads: inputs, operations and the check of each.

A workload is built from a seed. Its operations come in rounds: round ``r``
draws its inputs from ``(seed, r)`` alone, so the same seed gives the same
inputs and a run can stop after any whole round. Every call into otlab goes
through a module attribute at call time (``otlab.solve_wasserstein``,
``otlab.cli.entry``), so a traced run sees the same calls as an untraced one.
Checks live in :mod:`checks` and share no code with the program.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import otlab
import otlab.campaign
import otlab.cli

import checks


@dataclass
class Op:
    """One operation: ``call`` runs the program, ``judge`` checks its output.

    ``judge`` returns ``(failure, problems)``: a one-line reason when the
    operation failed (it is then counted, not checked further), else a list
    of inconsistencies that make the run incorrect.
    """

    kind: str
    call: Callable[[], object]
    judge: Callable[[object], tuple]


def _rng(seed, r):
    return np.random.default_rng([seed, r])


def _certified_judge(certified, verdict):
    if bool(certified) != verdict.optimal:
        return f"certified={certified} but the reference finds optimal={verdict.optimal}", []
    return None, verdict.problems


# ---------------------------------------------------------------------------
# small-exact


def tree_profiles(points=5, units=8, max_support=4):
    """Every mass profile of criterion 12: multiples of 1/units on <= max_support points."""

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(1, total - parts + 2):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    out = []
    for size in range(1, max_support + 1):
        for sup in itertools.combinations(range(points), size):
            for comp in compositions(units, size):
                out.append(dict(zip(sup, comp)))
    return out


class SmallExact:
    """Exact p = 1 solves between criterion-12 profiles on the five-point tree.

    The kernel does under a tenth of the work here; per-solve fixed cost
    (cost matrix with per-cell point validation, Fraction certificate,
    Coupling construction) dominates.
    """

    name = "small-exact"
    round_size = 100
    trace_rounds = 30
    tail_quantile = 0.99

    def __init__(self, seed):
        self.seed = seed
        space = otlab.campaign.five_point_tree_space()
        self.profiles = tree_profiles()
        self.measures = [
            otlab.DiscreteMeasure(
                space, tuple((otlab.FinitePoint(k), Fraction(u, 8)) for k, u in prof.items())
            )
            for prof in self.profiles
        ]
        self.table = checks.tree_distance_table()

    def warm_up(self):
        self._op(0, len(self.profiles) - 1).call()

    def ops(self, r):
        pairs = _rng(self.seed, r).integers(0, len(self.profiles), size=(self.round_size, 2))
        return [self._op(int(i), int(j)) for i, j in pairs]

    def _op(self, i, j):
        mu, nu = self.measures[i], self.measures[j]

        def call():
            return otlab.solve_wasserstein(mu, nu, p=1)

        def judge(res):
            pi = res.coupling
            try:
                rows = [(p.index, self.profiles[i][p.index]) for p in pi.row_points]
                cols = [(q.index, self.profiles[j][q.index]) for q in pi.col_points]
            except KeyError as exc:
                return None, [f"plan support has point {exc} outside the measure"]
            if len(rows) != len(self.profiles[i]) or len(cols) != len(self.profiles[j]):
                return None, ["plan support differs from the measure supports"]
            u, v = res.dual_potentials
            verdict = checks.check_exact_tree(
                rows, cols, self.table, pi.weights, u, v, res.powered_cost, res.certified
            )
            return _certified_judge(res.certified, verdict)

        return Op("solve", call, judge)


# ---------------------------------------------------------------------------
# float measures (large-float and the scale slice of campaign-mix)


def float_measure(rng, space, n, window):
    """Random float measure; returns it with its own (coordinates -> mass) map."""
    xs = rng.uniform(-window, window, size=(n, 2))
    masses = rng.uniform(0.1, 1.0, n)
    masses = masses / masses.sum()
    if isinstance(space, otlab.Product):
        ts = rng.uniform(0.0, 1.0, n)
        keys = [(float(t), float(x0), float(x1)) for t, (x0, x1) in zip(ts, xs)]
        points = [otlab.ProductPoint(k[0], otlab.EuclideanPoint(k[1:])) for k in keys]
    else:
        keys = [(float(x0), float(x1)) for x0, x1 in xs]
        points = [otlab.EuclideanPoint(k) for k in keys]
    mu = otlab.DiscreteMeasure(space, tuple(zip(points, (float(m) for m in masses))))
    return mu, dict(zip(keys, (float(m) for m in masses)))


def _point_key(p):
    if isinstance(p, otlab.ProductPoint):
        return (p.t,) + tuple(p.x.coords)
    return tuple(p.coords)


def float_cost(rows, cols):
    """d**2 for p = 2: |dt| + |dx|^2 on Product(1/2, 2, E^2), |dx|^2 on E^2."""
    r = np.asarray(rows, dtype=float)
    c = np.asarray(cols, dtype=float)
    if r.shape[1] == 3:
        return np.abs(r[:, None, 0] - c[None, :, 0]) + ((r[:, None, 1:] - c[None, :, 1:]) ** 2).sum(-1)
    return ((r[:, None, :] - c[None, :, :]) ** 2).sum(-1)


def float_judge(mu_masses, nu_masses):
    def judge(res):
        pi = res.coupling
        rows = [_point_key(p) for p in pi.row_points]
        cols = [_point_key(q) for q in pi.col_points]
        if sorted(rows) != sorted(mu_masses) or sorted(cols) != sorted(nu_masses):
            return None, ["plan support differs from the measure supports"]
        u, v = res.dual_potentials
        verdict = checks.check_float(
            [mu_masses[k] for k in rows],
            [nu_masses[k] for k in cols],
            float_cost(rows, cols),
            pi.weights,
            u,
            v,
            res.powered_cost,
            res.certified,
        )
        return _certified_judge(res.certified, verdict)

    return judge


def float_solve_op(kind, space, rng, n, window):
    mu, mu_masses = float_measure(rng, space, n, window)
    nu, nu_masses = float_measure(rng, space, n, window)

    def call():
        return otlab.solve_wasserstein(mu, nu, p=2)

    return Op(kind, call, float_judge(mu_masses, nu_masses))


class LargeFloat:
    """Seeded float solves at m = n = 40 on Product(1/2, 2, E^2), p = 2, window 10.

    Pivoting takes over nine tenths of each solve (97% at m = n = 40): this
    is the pivot count x O(mn)-per-pivot kernel cost. At m = n = 60 a run
    holds too few solves for a steady median.
    """

    name = "large-float"
    size = 40
    window = 10.0
    trace_rounds = 20
    tail_quantile = 0.5

    def __init__(self, seed):
        self.seed = seed
        self.space = otlab.Product(0.5, 2, otlab.Euclidean(2))

    def warm_up(self):
        float_solve_op("warm-up", self.space, np.random.default_rng(0), 8, self.window).call()

    def ops(self, r):
        return [float_solve_op("solve", self.space, _rng(self.seed, r), self.size, self.window)]


# ---------------------------------------------------------------------------
# dist-rational

DIST_ARGS = (
    "--mode", "rational", "--order", "1", "--space", "product",
    "--alpha", "1", "--q", "1", "--base", "interval",
)


def exact_grid_atoms(rng, count, grid=32, mass_units=64):
    """``count`` distinct points of the (1/grid)-lattice of [0,1]^2 with masses k/mass_units."""
    cells = rng.choice((grid + 1) ** 2, size=count, replace=False)
    cuts = np.sort(rng.choice(np.arange(1, mass_units), size=count - 1, replace=False))
    bounds = [0] + [int(c) for c in cuts] + [mass_units]
    return {
        (Fraction(int(c) // (grid + 1), grid), Fraction(int(c) % (grid + 1), grid)): Fraction(hi - lo, mass_units)
        for c, lo, hi in zip(cells, bounds, bounds[1:])
    }


def write_measure_file(path, atoms):
    lines = ["space s"]
    for (t, x), mass in sorted(atoms.items()):
        lines.append(f"{mass} {t} {x}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


class DistRational:
    """``otlab dist`` on Product(1, 1, Interval(1)) in rational mode, in process.

    Covers the Fraction-cost kernel that float workloads bypass, measure-file
    parsing, printing, and the second full solve ``cmd_dist`` makes only to
    print ``dual_value``.
    """

    name = "dist-rational"
    atoms = 25
    trace_rounds = 6
    tail_quantile = 0.5

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)

    def warm_up(self):
        self._op(np.random.default_rng(0), 5).call()

    def ops(self, r):
        return [self._op(_rng(self.seed, r), self.atoms)]

    def _op(self, rng, atoms):
        mu_atoms = exact_grid_atoms(rng, atoms)
        nu_atoms = exact_grid_atoms(rng, atoms)
        mu_path = os.path.join(self.workdir, "mu.txt")
        nu_path = os.path.join(self.workdir, "nu.txt")
        write_measure_file(mu_path, mu_atoms)
        write_measure_file(nu_path, nu_atoms)
        argv = ["dist", mu_path, nu_path, *DIST_ARGS]

        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = otlab.cli.entry(argv)
            return code, out.getvalue(), err.getvalue()

        def judge(output):
            code, stdout, stderr = output
            if code != 0:
                return f"exit code {code}: {stderr.strip()}", []
            verdict = checks.check_dist_output(code, stdout, mu_atoms, nu_atoms)
            return _certified_judge("certified = True" in stdout.splitlines(), verdict)

        return Op("dist", call, judge)


# ---------------------------------------------------------------------------
# campaign-mix

# trials per round, sized so each suite takes a similar share of the time
FLOAT_MIX = (
    ("metric-axioms", 300),
    ("flip-isometry", 60),
    ("pi-hat-cost", 20),
    ("translation-invariance", 25),
    ("duality-gap", 12),
    ("ratio-singleton", 12),
    ("ratio-witness", 90),
    ("lemma31-additivity", 30),
    ("geodesic-extension", 15),
)
# only the suites whose solves stay exact on Product(1, 1, Interval(1))
RATIONAL_MIX = (
    ("metric-axioms", 150),
    ("flip-isometry", 15),
    ("pi-hat-cost", 6),
    ("translation-invariance", 6),
    ("duality-gap", 6),
    ("lemma31-additivity", 5),
)

# the scale slice does not depend on --seed: its failures are a fixed share
SLICE_SEED = 12
SLICE_ATOMS = 12
SLICE_PAIRS = 2


def campaign_judge(report):
    if len(report.trials) != 1:
        return None, [f"report holds {len(report.trials)} trials, expected 1"]
    trial = report.trials[0]
    if trial.seed_label != f"{report.seed}:0":
        return None, [f"trial seed label {trial.seed_label!r} does not match seed {report.seed}"]
    if not trial.passed:
        return f"trial {trial.seed_label} residual {trial.residual!r} {trial.note}".strip(), []
    return None, []


class CampaignMix:
    """``campaign.run_suite`` trials at seeds drawn per round, plus the scale slice.

    Float mode runs every suite but fiber-flip-isometry on the default
    product; rational mode runs on Product(1, 1, Interval(1)). One trial is
    one operation. The scale slice solves fixed 12-atom float pairs at
    coordinate window 1e-7 (on E^2) and 1e5 (on the default product).
    """

    name = "campaign-mix"
    trace_rounds = 5
    tail_quantile = 0.99

    def __init__(self, seed):
        self.seed = seed
        self.rational_space = otlab.Product(1, 1, otlab.Interval(1))
        slice_rng = np.random.default_rng(SLICE_SEED)
        self.slice_ops = [
            float_solve_op("scale-slice.euclidean-1e-7", otlab.Euclidean(2), slice_rng, SLICE_ATOMS, 1e-7)
            for _ in range(SLICE_PAIRS)
        ] + [
            float_solve_op(
                "scale-slice.product-1e5", otlab.Product(0.5, 2, otlab.Euclidean(2)), slice_rng, SLICE_ATOMS, 1e5
            )
            for _ in range(SLICE_PAIRS)
        ]

    def mix(self):
        return [(s, k, "float") for s, k in FLOAT_MIX] + [(s, k, "rational") for s, k in RATIONAL_MIX]

    def warm_up(self):
        for suite, _count, mode in self.mix():
            self._op(suite, mode, 0).call()
        for op in self.slice_ops[::SLICE_PAIRS]:
            op.call()

    def ops(self, r):
        mix = self.mix()
        seeds = iter(_rng(self.seed, r).integers(0, 2**31, size=sum(k for _, k, _ in mix)))
        out = []
        for suite, count, mode in mix:
            out.extend(self._op(suite, mode, int(next(seeds))) for _ in range(count))
        return out + self.slice_ops

    def _op(self, suite, mode, seed):
        space = self.rational_space if mode == "rational" else None

        def call():
            return otlab.campaign.run_suite(suite, seed=seed, trials=1, mode=mode, space=space)

        return Op(f"{suite}.{mode}", call, campaign_judge)


def build(name, seed, workdir):
    if name == "small-exact":
        return SmallExact(seed)
    if name == "large-float":
        return LargeFloat(seed)
    if name == "dist-rational":
        return DistRational(seed, workdir)
    if name == "campaign-mix":
        return CampaignMix(seed)
    raise ValueError(f"unknown workload {name!r}")
