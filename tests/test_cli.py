"""Command line behavior: output formats, exit codes, config handling."""

import pytest

import otlab.cli
import otlab.metric
import otlab.solver
from otlab.cli import (
    EXIT_INVARIANT,
    EXIT_NUMERICAL,
    EXIT_PASS,
    EXIT_USAGE,
    _build_parser,
    _campaign_exit,
    build_config,
    entry,
    parse_config,
)
from otlab.errors import ParseError
from otlab.campaign import CampaignReport, TrialRecord


# two overlapping 6-atom measures on Product(1, 1, Interval(1)) and the exact
# stdout of `otlab dist --order 1` on them, recorded from the code before the
# dist path was sped up; an exact solve writes nothing to stderr
PINNED_MU = (
    "space product\n"
    "1/6 0 0\n"
    "1/4 1/5 1/2\n"
    "1/12 1/3 1\n"
    "1/6 1/2 1/4\n"
    "1/6 3/4 0.3\n"
    "1/6 1 2/3\n"
)
PINNED_NU = (
    "space product\n"
    "1/5 0 1\n"
    "1/10 1/4 0\n"
    "3/10 1/2 1/4\n"
    "1/10 0.6 0.9\n"
    "1/5 1 2/3\n"
    "1/10 1 0\n"
)
PINNED_ARGS = ("--space", "product", "--base", "interval", "--alpha", "1", "--q", "1", "--order", "1")
PINNED_STDOUT = {
    "rational": (
        "space = product:alpha=1:q=1:interval:alpha=1\n"
        "order = 1\n"
        "powered_cost = 653/1800\n"
        "distance = 653/1800\n"
        "certified = True\n"
        "pivots = 5\n"
        "coupling:\n"
        "  1/10 : (0, 0) -> (1/4, 0)\n"
        "  1/15 : (0, 0) -> (1/2, 1/4)\n"
        "  1/5 : (1/5, 1/2) -> (0, 1)\n"
        "  1/30 : (1/5, 1/2) -> (1/2, 1/4)\n"
        "  1/60 : (1/5, 1/2) -> (3/5, 9/10)\n"
        "  1/12 : (1/3, 1) -> (3/5, 9/10)\n"
        "  1/6 : (1/2, 1/4) -> (1/2, 1/4)\n"
        "  1/30 : (3/4, 3/10) -> (1/2, 1/4)\n"
        "  1/10 : (3/4, 3/10) -> (1, 0)\n"
        "  1/30 : (3/4, 3/10) -> (1, 2/3)\n"
        "  1/6 : (1, 2/3) -> (1, 2/3)\n"
        "potentials:\n"
        "  u (0, 0) = 0\n"
        "  u (1/5, 1/2) = -1/5\n"
        "  u (1/3, 1) = -19/30\n"
        "  u (1/2, 1/4) = -3/4\n"
        "  u (3/4, 3/10) = -9/20\n"
        "  u (1, 2/3) = -16/15\n"
        "  v (0, 1) = 9/10\n"
        "  v (1/4, 0) = 1/4\n"
        "  v (1/2, 1/4) = 3/4\n"
        "  v (3/5, 9/10) = 1\n"
        "  v (1, 0) = 1\n"
        "  v (1, 2/3) = 16/15\n"
        "dual_value = 653/1800\n"
    ),
    "float": (
        "space = product:alpha=1:q=1:interval:alpha=1\n"
        "order = 1\n"
        "powered_cost = 0.3627777777777778\n"
        "distance = 0.3627777777777778\n"
        "certified = True\n"
        "pivots = 5\n"
        "coupling:\n"
        "  0.1 : (0, 0) -> (0.25, 0)\n"
        "  0.06666666666666665 : (0, 0) -> (0.5, 0.25)\n"
        "  0.2 : (0.2, 0.5) -> (0, 1)\n"
        "  0.03333333333333331 : (0.2, 0.5) -> (0.5, 0.25)\n"
        "  0.016666666666666677 : (0.2, 0.5) -> (0.6, 0.9)\n"
        "  0.08333333333333333 : (0.3333333333333333, 1) -> (0.6, 0.9)\n"
        "  0.16666666666666666 : (0.5, 0.25) -> (0.5, 0.25)\n"
        "  0.03333333333333337 : (0.75, 0.3) -> (0.5, 0.25)\n"
        "  0.1 : (0.75, 0.3) -> (1, 0)\n"
        "  0.0333333333333333 : (0.75, 0.3) -> (1, 0.6666666666666666)\n"
        "  0.16666666666666666 : (1, 0.6666666666666666) -> (1, 0.6666666666666666)\n"
        "potentials:\n"
        "  u (0, 0) = 0\n"
        "  u (0.2, 0.5) = -0.19999999999999996\n"
        "  u (0.3333333333333333, 1) = -0.6333333333333333\n"
        "  u (0.5, 0.25) = -0.75\n"
        "  u (0.75, 0.3) = -0.45\n"
        "  u (1, 0.6666666666666666) = -1.0666666666666667\n"
        "  v (0, 1) = 0.8999999999999999\n"
        "  v (0.25, 0) = 0.25\n"
        "  v (0.5, 0.25) = 0.75\n"
        "  v (0.6, 0.9) = 1\n"
        "  v (1, 0) = 1\n"
        "  v (1, 0.6666666666666666) = 1.0666666666666667\n"
        "dual_value = 0.36277777777777787\n"
    ),
}
FLOAT_NOTE = "otlab: note: this solve ran in float arithmetic (costs d**p are not exact here)\n"


def run(capsys, *argv):
    code = entry(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


@pytest.fixture
def interval_files(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("space interval\n1 0\n")
    b.write_text("space interval\n1 1\n")
    return str(a), str(b)


@pytest.fixture
def pinned_files(tmp_path):
    a = tmp_path / "mu.txt"
    b = tmp_path / "nu.txt"
    a.write_text(PINNED_MU)
    b.write_text(PINNED_NU)
    return str(a), str(b)


@pytest.fixture
def product_file(tmp_path):
    f = tmp_path / "p.txt"
    f.write_text("space product\n1 1/5 1/2\n")
    return str(f)


class TestDist:
    def test_endpoint_diracs(self, capsys, interval_files):
        a, b = interval_files
        code, out = run(capsys, "dist", a, b)
        assert code == EXIT_PASS
        lines = out.splitlines()
        assert "distance = 1" in lines
        assert "certified = True" in lines
        assert "  1 : 0 -> 1" in lines
        assert "dual_value = 1" in lines

    def test_rational_mode_prints_fractions(self, capsys, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("space interval\n1/2 0\n1/2 1\n")
        b.write_text("space interval\n1 1/2\n")
        code, out = run(capsys, "dist", str(a), str(b), "--mode", "rational")
        assert code == EXIT_PASS
        assert "distance = 1/2" in out.splitlines()

    def test_product_space_flag(self, capsys, tmp_path, product_file):
        other = tmp_path / "q.txt"
        other.write_text("space product\n1 4/5 1/2\n")
        code, out = run(
            capsys,
            "dist", product_file, str(other),
            "--space", "product", "--base", "interval",
            "--alpha", "1", "--q", "1", "--mode", "rational",
        )
        assert code == EXIT_PASS
        assert "distance = 3/5" in out.splitlines()

    def test_order_one_dual_value_reuses_the_solve(self, capsys, tmp_path, monkeypatch):
        calls = []
        solve = otlab.solver.solve_wasserstein

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(otlab.cli, "solve_wasserstein", counted)
        monkeypatch.setattr(otlab.solver, "solve_wasserstein", counted)
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("space product\n1/2 1/5 1/2\n1/4 3/5 1/10\n1/4 1 0\n")
        b.write_text("space product\n1/3 4/5 1/2\n2/3 0 9/10\n")
        code, out = run(
            capsys,
            "dist", str(a), str(b),
            "--space", "product", "--base", "interval",
            "--alpha", "1", "--q", "1", "--mode", "rational", "--order", "1",
        )
        assert code == EXIT_PASS
        values = dict(line.split(" = ") for line in out.splitlines() if " = " in line)
        assert values["dual_value"] == values["distance"]
        assert len(calls) == 1

    def test_exact_order_one_costs_only_the_final_tree(self, capsys, tmp_path, monkeypatch):
        # the exact solve, its potentials and its witness work in integer
        # units: the space is asked for no scalar distance at all
        counts = {}
        for cls in (otlab.metric.Product, otlab.metric.Interval):
            for name in ("distance", "powered_distance"):
                method = getattr(cls, name)

                def counted(self, *args, _key=(cls.__name__, name), _method=method):
                    counts[_key] = counts.get(_key, 0) + 1
                    return _method(self, *args)

                monkeypatch.setattr(cls, name, counted)
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("space product\n1/2 1/5 1/2\n1/4 3/5 1/10\n1/4 1 0\n")
        b.write_text("space product\n1/3 4/5 1/2\n1/3 1/5 1/2\n1/3 0 9/10\n")
        code, out = run(
            capsys,
            "dist", str(a), str(b),
            "--space", "product", "--base", "interval",
            "--alpha", "1", "--q", "1", "--mode", "rational", "--order", "1",
        )
        assert code == EXIT_PASS
        values = dict(line.split(" = ") for line in out.splitlines() if " = " in line)
        assert values["dual_value"] == values["distance"]
        assert counts.get(("Product", "distance"), 0) == 0
        assert counts.get(("Interval", "distance"), 0) == 0
        assert counts.get(("Product", "powered_distance"), 0) == 0
        assert counts.get(("Interval", "powered_distance"), 0) == 0
        # the counters do fire: the float witness asks for every distance
        code, _ = run(
            capsys,
            "dist", str(a), str(b),
            "--space", "product", "--base", "interval",
            "--alpha", "1", "--q", "1", "--mode", "float", "--order", "1",
        )
        assert code == EXIT_PASS
        assert counts[("Product", "distance")] > 0

    @pytest.mark.parametrize("mode", sorted(PINNED_STDOUT))
    def test_stdout_bytes_are_pinned(self, capsys, pinned_files, mode):
        code = entry(["dist", *pinned_files, *PINNED_ARGS, "--mode", mode])
        captured = capsys.readouterr()
        assert (code, captured.err) == (EXIT_PASS, "")
        assert captured.out == PINNED_STDOUT[mode]

    def test_rational_solve_in_float_says_so_on_stderr(self, capsys, pinned_files):
        # q = 2 with p = 1 takes a square root, so the costs are not exact
        argv = ["dist", *pinned_files, "--space", "product", "--base", "interval", "--order", "1"]
        code = entry([*argv, "--mode", "rational"])
        captured = capsys.readouterr()
        assert code == EXIT_PASS
        assert captured.err == FLOAT_NOTE
        values = dict(line.split(" = ") for line in captured.out.splitlines() if " = " in line)
        assert "/" not in values["distance"]
        assert values["certified"] == "True"
        assert entry([*argv, "--mode", "float"]) == EXIT_PASS
        assert capsys.readouterr().err == ""

    def test_missing_file_is_a_usage_error(self, capsys, tmp_path):
        ghost = str(tmp_path / "ghost.txt")
        code, _ = run(capsys, "dist", ghost, ghost)
        assert code == EXIT_USAGE


class TestParserReuse:
    """``entry`` builds its parser once per process; a reused one keeps no state."""

    def calls(self, tmp_path, pinned_files):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mode = rational\ntrials = 2\nseed = 3\n")
        report, csv = str(tmp_path / "r.txt"), str(tmp_path / "r.csv")
        return (
            ("dist", pinned_files[0]),
            ("--help",),
            ("dist", *pinned_files, *PINNED_ARGS[:2], "--mode", "rational", "--order", "2"),
            ("dist", *pinned_files, *PINNED_ARGS[:4]),
            ("verify", "duality-gap", "--config", str(cfg), "--report", report, "--csv", csv),
            ("verify", "no-such-suite"),
        )

    def outcome(self, capsys, argv):
        code = entry(list(argv))
        captured = capsys.readouterr()
        out = [line for line in captured.out.splitlines() if not line.startswith("wall_time_s")]
        return code, out, captured.err

    def test_a_reused_parser_answers_like_a_fresh_one(self, capsys, tmp_path, pinned_files):
        calls = self.calls(tmp_path, pinned_files)
        _build_parser.cache_clear()
        reused = [self.outcome(capsys, argv) for argv in calls]
        fresh = []
        for argv in calls:
            _build_parser.cache_clear()
            fresh.append(self.outcome(capsys, argv))
        assert reused == fresh
        codes = [EXIT_USAGE, EXIT_PASS, EXIT_PASS, EXIT_PASS, EXIT_PASS, EXIT_USAGE]
        assert [code for code, _, _ in reused] == codes
        assert all(err.startswith("usage: otlab") for _, _, err in (reused[0], reused[-1]))

    def test_the_parser_is_built_once(self, capsys, tmp_path, pinned_files):
        _build_parser.cache_clear()
        for argv in self.calls(tmp_path, pinned_files) * 2:
            entry(list(argv))
        capsys.readouterr()
        assert _build_parser.cache_info().misses == 1


class TestTransform:
    def test_flip_splits_an_interior_atom(self, capsys, tmp_path):
        f = tmp_path / "c.txt"
        f.write_text("space interval\n1 0.3\n")
        code, out = run(capsys, "transform", "flip", str(f))
        assert code == EXIT_PASS
        assert out.splitlines() == ["space interval", "0.3 0", "0.7 1"]
        code, out = run(capsys, "transform", "flip", str(f), "--mode", "rational")
        assert code == EXIT_PASS
        assert out.splitlines() == ["space interval", "3/10 0", "7/10 1"]

    def test_fiber_flip_needs_a_product_space(self, capsys, tmp_path, product_file):
        code, out = run(
            capsys,
            "transform", "fiber-flip", product_file,
            "--space", "product", "--base", "interval", "--mode", "rational",
        )
        assert code == EXIT_PASS
        assert out.splitlines() == ["space product", "1/5 0 1/2", "4/5 1 1/2"]
        f = tmp_path / "c.txt"
        f.write_text("space interval\n1 0.3\n")
        code, _ = run(capsys, "transform", "fiber-flip", str(f))
        assert code == EXIT_USAGE

    def test_interval_transform_rejects_product_input(self, capsys, product_file):
        code, _ = run(
            capsys,
            "transform", "flip", product_file,
            "--space", "product", "--base", "interval",
        )
        assert code == EXIT_USAGE

    def test_unknown_transform_is_a_usage_error(self, capsys, product_file):
        code, _ = run(capsys, "transform", "swirl", product_file)
        assert code == EXIT_USAGE


class TestVerify:
    def test_passing_suite_writes_report_and_csv(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out = run(capsys, "verify", "duality-gap", "--trials", "3", "--seed", "2")
        assert code == EXIT_PASS
        report = (tmp_path / "duality-gap-report.txt").read_text()
        csv = (tmp_path / "duality-gap-residuals.csv").read_text()
        assert report in out  # the report body is echoed to stdout
        assert "aggregate = pass" in report
        assert csv.splitlines()[0] == "trial,seed,residual,pass"
        assert len(csv.splitlines()) == 4

    def test_contraction_suite_exits_nonzero(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _ = run(capsys, "verify", "fiber-flip-isometry", "--trials", "5")
        assert code == EXIT_INVARIANT
        assert "aggregate = FAIL" in (tmp_path / "fiber-flip-isometry-report.txt").read_text()

    def test_reports_are_deterministic_up_to_wall_time(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run(capsys, "verify", "flip-isometry", "--trials", "4", "--seed", "11",
            "--report", "r1.txt", "--csv", "c1.csv")
        run(capsys, "verify", "flip-isometry", "--trials", "4", "--seed", "11",
            "--report", "r2.txt", "--csv", "c2.csv")

        def body(name):
            lines = (tmp_path / name).read_text().splitlines()
            return [l for l in lines if not l.startswith("wall_time_s")]

        assert body("r1.txt") == body("r2.txt")
        assert (tmp_path / "c1.csv").read_bytes() == (tmp_path / "c2.csv").read_bytes()

    def test_unknown_suite_is_a_usage_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _ = run(capsys, "verify", "no-such-suite")
        assert code == EXIT_USAGE


class TestScenario:
    def test_known_contraction_scenario(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _ = run(capsys, "scenario", "example-3-2", "--trials", "2")
        assert code == EXIT_INVARIANT
        report = (tmp_path / "example-3-2-report.txt").read_text()
        assert "suite = example-3-2" in report
        assert "note=pi-hat-cost" in report

    def test_unknown_scenario(self, capsys):
        code, _ = run(capsys, "scenario", "example-0-0")
        assert code == EXIT_USAGE


class TestConfigFile:
    def test_cli_flags_override_file_values(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("# campaign defaults\ntrials = 4\nseed = 9\nmode = rational\n")
        code, _ = run(capsys, "verify", "flip-isometry", "--config", str(cfg), "--trials", "2")
        assert code == EXIT_PASS
        report = (tmp_path / "flip-isometry-report.txt").read_text()
        assert "trials = 2" in report
        assert "seed = 9" in report
        assert "mode = rational" in report

    def test_parse_error_positions(self, tmp_path):
        cfg = tmp_path / "bad.txt"
        cfg.write_text("trials = 3\nwibble = 1\n")
        with pytest.raises(ParseError) as info:
            parse_config(str(cfg))
        assert info.value.line == 2
        cfg.write_text("trials =\n")
        with pytest.raises(ParseError) as info:
            parse_config(str(cfg))
        assert info.value.line == 1

    def test_bad_config_is_a_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "bad.txt"
        cfg.write_text("mode = symbolic\n")
        code, _ = run(capsys, "verify", "flip-isometry", "--config", str(cfg))
        assert code == EXIT_USAGE
        code, _ = run(capsys, "verify", "flip-isometry", "--config", str(tmp_path / "none.txt"))
        assert code == EXIT_USAGE

    def test_unreadable_tol_is_a_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "bad.txt"
        cfg.write_text("tol = abc\n")
        code = entry(["verify", "flip-isometry", "--config", str(cfg)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "otlab: tol must be a number, got 'abc'\n"


class TestTolerance:
    # a failed trial's residual is infinite, so an infinite tol would pass it
    def test_infinite_tol_flag_is_a_usage_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = entry(["verify", "fiber-flip-isometry", "--trials", "3", "--tol", "inf"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "otlab: tol must be finite, got inf\n"
        assert not list(tmp_path.iterdir())

    def test_infinite_tol_in_a_config_file_is_a_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "inf.txt"
        cfg.write_text("tol = inf\n")
        code = entry(["verify", "fiber-flip-isometry", "--trials", "3", "--config", str(cfg)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "otlab: tol must be finite, got inf\n"


# every option, with two valid values for it
OPTION_VALUES = {
    "mode": ("rational", "float"),
    "seed": ("9", "4"),
    "trials": ("3", "7"),
    "tol": ("1e-06", "0.25"),
    "space": ("product", "interval"),
    "alpha": ("1/3", "0.75"),
    "q": ("3/2", "3"),
    "base": ("interval", "euclidean"),
    "dim": ("3", "2"),
    "order": ("2", "3/2"),
    "window": ("2:5", "4"),
    "report": ("r.txt", "s.txt"),
    "csv": ("r.csv", "s.csv"),
}


class TestFlagsAndConfigKeys:
    def config(self, tmp_path, *argv, entries=None):
        if entries:
            path = tmp_path / "run.cfg"
            path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
            argv = ("--config", str(path), *argv)
        return build_config(_build_parser().parse_args(["verify", "duality-gap", *argv]))

    @pytest.mark.parametrize("key", sorted(OPTION_VALUES))
    def test_a_flag_and_its_config_key_agree(self, tmp_path, key):
        first, second = OPTION_VALUES[key]
        from_flag = self.config(tmp_path, f"--{key}", first)
        from_file = self.config(tmp_path, entries={key: first})
        assert from_flag == from_file
        assert from_flag != self.config(tmp_path)
        both = self.config(tmp_path, f"--{key}", second, entries={key: first})
        assert both == self.config(tmp_path, f"--{key}", second)

    def test_every_option_has_a_value_here(self):
        flags = {a.dest for a in _build_parser()._actions if a.option_strings and a.dest != "help"}
        assert flags - {"config"} == set(OPTION_VALUES)


class TestExitCodes:
    def test_no_arguments(self, capsys):
        code, _ = run(capsys)
        assert code == EXIT_USAGE

    def test_unknown_subcommand(self, capsys):
        code, _ = run(capsys, "frobnicate")
        assert code == EXIT_USAGE

    def make_report(self, note):
        trial = TrialRecord(index=0, seed_label="0:0", residual=1.0, passed=False, note=note)
        return CampaignReport(
            suite="s", space_label="x", mode="float", seed=0, tol=1e-8,
            trials=(trial,), wall_time_s=0.0,
        )

    def test_campaign_exit_classification(self):
        ok = CampaignReport(
            suite="s", space_label="x", mode="float", seed=0, tol=1e-8,
            trials=(TrialRecord(index=0, seed_label="0:0", residual=0.0, passed=True),),
            wall_time_s=0.0,
        )
        assert _campaign_exit(ok) == EXIT_PASS
        assert _campaign_exit(self.make_report("residual beyond tol")) == EXIT_INVARIANT
        stalled = self.make_report("SolverStallError: pivot budget exhausted")
        assert _campaign_exit(stalled) == EXIT_NUMERICAL
