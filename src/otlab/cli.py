"""Batch command line front end.

Four subcommands over the library:

``dist MU NU``
    solve the transport problem between two measure files and print the
    cost, the optimal coupling, and the dual potentials.
``transform NAME MU``
    print the image of a measure under one of the named maps
    (id, reflect, flip, flip-reflect, fiber-flip).
``verify SUITE``
    run a named invariant campaign and write a report plus a residual CSV.
``scenario NAME``
    instantiate a packaged example space and run the flexibility
    campaigns on it.

Configuration comes from flags or from a ``key = value`` text file given
with ``--config``; explicit flags win over the file, the file wins over
defaults.  Exit codes: 0 success / all trials passed, 1 invariant
failure, 2 usage or parse error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DomainError,
    FiberCollisionError,
    InvalidMeasureError,
    InvalidSpaceError,
    OTLabError,
    ParseError,
    SolverStallError,
    SpaceMismatchError,
)
from ._numbers import read_entries
from .metric import Euclidean, Interval, Product, format_number, parse_number
from .measure import _point_tokens, dump_measure, load_measure
from .isometry import _ISOMETRY_NAMES, IntervalIsometry, apply_interval_isometry, fiber_flip
from .solver import _kr_witness, solve_wasserstein
from . import campaign

EXIT_PASS = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

# the exit code of an error that ends a command; the first matching entry wins
_EXIT_CODES = (
    (SolverStallError, EXIT_NUMERICAL),
    ((ParseError, DomainError, InvalidSpaceError, InvalidMeasureError), EXIT_USAGE),
    ((SpaceMismatchError, FiberCollisionError, OSError), EXIT_USAGE),
    (OTLabError, EXIT_INVARIANT),
)

_TRANSFORMS = (*_ISOMETRY_NAMES, "fiber-flip")


@dataclass(frozen=True)
class RunConfig:
    """Resolved run parameters shared by every subcommand."""

    space_kind: str = "interval"
    alpha: object = None
    q: object = None
    base_kind: str = "euclidean"
    dim: int = 1
    mode: str = "float"
    tol: float = 1e-8
    seed: int = 0
    trials: int = 100
    order: object = 1
    window: object = None
    report: str = None
    csv: str = None

    def __post_init__(self):
        # choices were checked where their text was read: by argparse for a
        # flag, by parse_config for a file entry
        if not self.tol > 0:
            raise DomainError("tol must be positive")
        if not math.isfinite(self.tol):
            # an infinite tol would pass every trial, even one that raised
            raise DomainError(f"tol must be finite, got {self.tol!r}")
        if self.trials < 1:
            raise DomainError("trials must be at least 1")
        if self.dim < 1:
            raise DomainError("dim must be at least 1")
        if not self.order >= 1:
            raise DomainError("order must be at least 1")

    @property
    def exact(self):
        return self.mode == "rational"


# ---------------------------------------------------------------------------
# run options: each is a flag and a config key at once
#
# A reader turns the text of a flag or a config entry into its RunConfig value.
# Numbers are read in the final mode, which may itself come from the file.


def _text(key, token, exact):
    return token


def _integer(key, token, exact):
    try:
        return int(token)
    except ValueError:
        raise DomainError(f"{key} must be an integer, got {token!r}") from None


def _real(key, token, exact):
    try:
        return float(token)
    except ValueError:
        raise DomainError(f"{key} must be a number, got {token!r}") from None


def _number(key, token, exact):
    try:
        return parse_number(token, exact=exact)
    except ValueError as exc:
        raise DomainError(str(exc)) from None


def _window(key, token, exact):
    # a bare radius r means [-r, r]; "lo:hi" pins both ends
    if ":" in token:
        lo_tok, _, hi_tok = token.partition(":")
        lo = _number(key, lo_tok.strip(), exact)
        hi = _number(key, hi_tok.strip(), exact)
        if not lo < hi:
            raise DomainError(f"window {token!r} is empty")
        return (lo, hi)
    radius = _number(key, token, exact)
    if not radius > 0:
        raise DomainError("window radius must be positive")
    return radius


# key -> (RunConfig field, reader, argparse arguments of its flag), in --help
# order; a flag keeps its text, so flags and config entries share one reader
_OPTIONS = {
    "mode": ("mode", _text, {"choices": ("float", "rational")}),
    "seed": ("seed", _integer, {}),
    "trials": ("trials", _integer, {}),
    "tol": ("tol", _real, {}),
    "space": ("space_kind", _text, {"choices": ("interval", "product")}),
    "alpha": ("alpha", _number, {"help": "product snowflake exponent in (0, 1]"}),
    "q": ("q", _number, {"help": "product combining exponent, q >= 1"}),
    "base": (
        "base_kind", _text, {"choices": ("euclidean", "interval"), "help": "product base space"}
    ),
    "dim": ("dim", _integer, {"help": "euclidean base dimension"}),
    "order": ("order", _number, {"help": "transport order p (dist)"}),
    "window": (
        "window", _window, {"help": "sampling window: radius or lo:hi; write --window=lo:hi when lo is negative"}
    ),
    "report": ("report", _text, {"help": "report output path (verify/scenario)"}),
    "csv": ("csv", _text, {"help": "residual CSV output path (verify/scenario)"}),
}


def parse_config(path):
    """Read a ``key = value`` config file into a raw string mapping.

    Values stay unparsed here; numeric interpretation depends on the final
    mode, which may itself come from this file.
    """
    try:
        _, lines = read_entries(path)
    except OSError as exc:
        raise ParseError(f"cannot read config: {exc.strerror}", path=path) from exc
    entries = {}
    for lineno, text in lines:
        if "=" not in text:
            raise ParseError("expected 'key = value'", path=path, line=lineno, column=1)
        key_part, _, value_part = text.partition("=")
        key = key_part.strip()
        value = value_part.strip()
        key_col = 1 + len(key_part) - len(key_part.lstrip())
        if key not in _OPTIONS:
            raise ParseError(f"unknown config key {key!r}", path=path, line=lineno, column=key_col)
        if not value:
            value_col = 1 + len(text.rstrip())
            raise ParseError(f"missing value for {key!r}", path=path, line=lineno, column=value_col)
        choices = _OPTIONS[key][2].get("choices")
        if choices and value not in choices:
            value_col = 2 + len(key_part) + len(value_part) - len(value_part.lstrip())
            raise ParseError(
                f"{key} must be one of {', '.join(choices)}",
                path=path,
                line=lineno,
                column=value_col,
            )
        entries[key] = value
    return entries


# the settings that choose a campaign's space and its sampling window
_SPACE_SETTINGS = ("space", "alpha", "q", "base", "dim", "window")

# settings a subcommand would read and then drop, refused instead: for each
# command the keys, each with the one value refused (None: any value) and why
_UNREAD = {
    "dist": {
        "seed": (None, "it draws no random measures"),
        "trials": (None, "it runs no trials"),
        "window": (None, "it draws no random measures"),
        "report": (None, "it prints to stdout and writes no file"),
        "csv": (None, "it prints to stdout and writes no file"),
    },
    "verify": {
        "space": ("interval", "a suite runs on its own space unless the space is a product"),
        "order": (None, "each suite sets its own transport order"),
    },
    "scenario": {
        **dict.fromkeys(_SPACE_SETTINGS, (None, "a scenario runs on its packaged space")),
        "order": (None, "each suite sets its own transport order"),
    },
}
# transform reads neither what dist drops nor the solve's tolerance and order
_UNREAD["transform"] = {
    **_UNREAD["dist"],
    **dict.fromkeys(("tol", "order"), (None, "it solves no transport problem")),
}


# a space or a base of the interval leaves these product settings unread
_INTERVAL_DROPS = {
    "space": (("alpha", "q", "base", "dim"), "the space is the interval"),
    "base": (("dim",), "the base is the interval"),
}


def _settings(args):
    """A run's settings as text, CLI flags over config-file entries, and the keys the flags gave."""
    entries = parse_config(args.config) if args.config else {}
    flags = {key for key in _OPTIONS if getattr(args, key, None) is not None}
    entries.update((key, getattr(args, key)) for key in flags)
    return entries, flags


def _refuse_unread(command, entries, flags, suite=None):
    """A DomainError naming the first setting, in --help order, that ``command`` would drop.

    Besides the command's own ``_UNREAD`` settings, every command drops the
    product parts beside a space or a base of the interval, and ``verify``
    drops every space setting and the window for a ``suite`` that builds its
    own space. A flag is named as one, and so is a config entry that no flag
    overrides.
    """
    unread = _UNREAD[command]
    if suite in campaign._OWN_SPACE_SUITES:
        why = f"{suite} draws on its own space and window"
        unread = {**unread, **dict.fromkeys(_SPACE_SETTINGS, (None, why))}
    for key, (parts, why) in _INTERVAL_DROPS.items():
        if entries.get(key) == "interval":
            unread = {**dict.fromkeys(parts, (None, why)), **unread}
    for key in _OPTIONS:
        if key not in unread:
            continue
        refused, why = unread[key]
        text = entries.get(key)
        if text is not None and refused in (None, text):
            setting = f"--{key} {text}" if key in flags else f"config entry '{key} = {text}'"
            raise DomainError(f"{command} does not read {setting}: {why}")


def build_config(args):
    """Merge CLI flags over config-file entries over defaults."""
    return _run_config(_settings(args)[0])


def _run_config(entries):
    """The RunConfig of merged settings: each read by its reader, the rest left at the defaults."""
    exact = entries.get("mode") == "rational"
    values = {}
    for key, (field, read, _) in _OPTIONS.items():
        if key in entries:
            values[field] = read(key, entries[key], exact)

    if values.get("space_kind") == "product" or values.keys() & {"alpha", "q", "base_kind", "dim"}:
        values.setdefault("space_kind", "product")
        one = Fraction(1) if exact else 1.0
        values.setdefault("alpha", one / 2)
        values.setdefault("q", 2)
    return RunConfig(**values)


def build_space(cfg):
    """Construct the configured metric space."""
    if cfg.space_kind == "interval":
        return Interval(1)
    base = Euclidean(cfg.dim) if cfg.base_kind == "euclidean" else Interval(1)
    return Product(cfg.alpha, cfg.q, base)


# ---------------------------------------------------------------------------
# subcommands


def _point_label(tokens):
    return "(" + ", ".join(tokens) + ")" if len(tokens) > 1 else tokens[0]


def cmd_dist(cfg, mu_path, nu_path):
    """Solve between two measure files and print the full solve output.

    In rational mode a solve whose costs are not exact runs in float; a note
    on stderr says so.
    """
    space = build_space(cfg)
    mu, mu_id = load_measure(mu_path, space, exact=cfg.exact)
    nu, nu_id = load_measure(nu_path, space, exact=cfg.exact)
    if mu_id != nu_id:
        raise DomainError(f"measure files declare different spaces: {mu_id!r} vs {nu_id!r}")
    result = solve_wasserstein(mu, nu, p=cfg.order, tol=cfg.tol)
    print(f"space = {space.describe()}")
    print(f"order = {format_number(result.p)}")
    print(f"powered_cost = {format_number(result.powered_cost)}")
    print(f"distance = {format_number(result.cost)}")
    print(f"certified = {result.certified}")
    print(f"pivots = {result.pivots}")
    print("coupling:")
    plan = result.coupling
    rows = [_point_label(_point_tokens(y)) for y in plan.row_points]
    cols = [_point_label(_point_tokens(z)) for z in plan.col_points]
    for j, k, w in plan.cells():
        print(f"  {format_number(w)} : {rows[j]} -> {cols[k]}")
    u, v = result.dual_potentials
    print("potentials:")
    for label, value in zip(rows, u):
        print(f"  u {label} = {format_number(value)}")
    for label, value in zip(cols, v):
        print(f"  v {label} = {format_number(value)}")
    if cfg.order == 1:
        witness = _kr_witness(mu, nu, result)
        print(f"dual_value = {format_number(witness.value)}")
    if cfg.exact and result.arithmetic == "float":
        print(
            "otlab: note: this solve ran in float arithmetic (costs d**p are not exact here)",
            file=sys.stderr,
        )
    return EXIT_PASS


def cmd_transform(cfg, name, mu_path):
    """Apply a named transform to a measure file and print the image."""
    space = build_space(cfg)
    mu, space_id = load_measure(mu_path, space, exact=cfg.exact)
    if name == "fiber-flip":
        if not isinstance(space, Product):
            raise DomainError("fiber-flip needs a product space; pass --space product")
        image = fiber_flip(mu)
    elif name == "id":
        image = mu
    else:
        if isinstance(space, Product):
            raise DomainError(f"{name} acts on interval measures; use fiber-flip on products")
        image = apply_interval_isometry(IntervalIsometry.from_name(name), mu)
    sys.stdout.write(dump_measure(image, space_id))
    return EXIT_PASS


def _campaign_exit(report):
    if report.passed:
        return EXIT_PASS
    for record in report.trials:
        # a failed trial's note is "<error>: <text>"; a scenario puts its
        # suite first, as in "pi-hat-cost: <error>: <text>"
        if SolverStallError.__name__ in record.note.split(": ", 2)[:2]:
            return EXIT_NUMERICAL
    return EXIT_INVARIANT


def _emit_campaign(report, cfg, default_stem):
    text = campaign.render_report(report)
    sys.stdout.write(text)
    report_path = cfg.report or f"{default_stem}-report.txt"
    csv_path = cfg.csv or f"{default_stem}-residuals.csv"
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(campaign.render_csv(report))
    print(f"report written to {report_path}")
    print(f"csv written to {csv_path}")
    return _campaign_exit(report)


def cmd_verify(cfg, suite):
    """Run one invariant campaign; write its report and residual CSV."""
    space = None
    if cfg.space_kind == "product":
        space = build_space(cfg)
    report = campaign.run_suite(
        suite,
        seed=cfg.seed,
        trials=cfg.trials,
        tol=cfg.tol,
        mode=cfg.mode,
        space=space,
        window=cfg.window,
    )
    return _emit_campaign(report, cfg, suite)


def cmd_scenario(cfg, name):
    """Run the flexibility campaigns on a packaged example space."""
    report = campaign.run_scenario(
        name,
        seed=cfg.seed,
        trials=cfg.trials,
        tol=cfg.tol,
        mode=cfg.mode,
    )
    return _emit_campaign(report, cfg, name)


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _add_common(parser, trailing):
    # trailing parsers use SUPPRESS so an unset flag does not clobber a value
    # that was already given before the subcommand
    kw = {"default": argparse.SUPPRESS} if trailing else {}
    parser.add_argument("--config", help="key = value config file; flags override it", **kw)
    for key, (_, _, flag) in _OPTIONS.items():
        parser.add_argument(f"--{key}", **flag, **kw)


@functools.cache
def _build_parser():
    # built once per process: parse_args keeps no state between calls
    parser = argparse.ArgumentParser(
        prog="otlab",
        description="exact discrete optimal transport: distances, transforms, invariant campaigns",
    )
    _add_common(parser, trailing=False)
    sub = parser.add_subparsers(dest="command", required=True)
    p_dist = sub.add_parser("dist", help="distance between two measure files")
    p_dist.add_argument("mu_file")
    p_dist.add_argument("nu_file")
    _add_common(p_dist, trailing=True)
    p_tr = sub.add_parser("transform", help="apply a named map to a measure file")
    p_tr.add_argument("name", choices=_TRANSFORMS)
    p_tr.add_argument("mu_file")
    _add_common(p_tr, trailing=True)
    p_ver = sub.add_parser("verify", help="run an invariant campaign")
    p_ver.add_argument("suite", choices=campaign.SUITE_NAMES)
    _add_common(p_ver, trailing=True)
    p_sc = sub.add_parser("scenario", help="run flexibility campaigns on a packaged space")
    p_sc.add_argument("name", choices=campaign.SCENARIO_NAMES)
    _add_common(p_sc, trailing=True)
    return parser


def entry(argv=None):
    """Console entry point; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (None, 0):
            return EXIT_PASS
        return EXIT_USAGE
    try:
        entries, flags = _settings(args)
        cfg = _run_config(entries)
        _refuse_unread(args.command, entries, flags, getattr(args, "suite", None))
        if args.command == "dist":
            return cmd_dist(cfg, args.mu_file, args.nu_file)
        if args.command == "transform":
            return cmd_transform(cfg, args.name, args.mu_file)
        if args.command == "verify":
            return cmd_verify(cfg, args.suite)
        return cmd_scenario(cfg, args.name)
    except (OTLabError, OSError) as exc:
        print(f"otlab: {exc}", file=sys.stderr)
        return next(code for types, code in _EXIT_CODES if isinstance(exc, types))


if __name__ == "__main__":
    sys.exit(entry())
