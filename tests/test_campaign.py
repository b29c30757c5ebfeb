"""Verification campaign runner: suites, scenarios, reports."""

import pytest

from otlab import DomainError, Interval, Product
from otlab.campaign import (
    SCENARIO_NAMES,
    SUITE_NAMES,
    CampaignReport,
    TrialRecord,
    render_csv,
    render_report,
    run_scenario,
    run_suite,
)

PASSING_SUITES = [
    "metric-axioms",
    "flip-isometry",
    "pi-hat-cost",
    "translation-invariance",
    "duality-gap",
    "ratio-singleton",
    "ratio-witness",
    "lemma31-additivity",
    "geodesic-extension",
]


def strip_wall_time(text):
    lines = text.splitlines()
    assert lines[-1].startswith("wall_time_s = ")
    return "\n".join(lines[:-1])


class TestRunSuite:
    @pytest.mark.parametrize("suite", PASSING_SUITES)
    def test_suite_passes_at_probe_scale(self, suite):
        report = run_suite(suite, seed=2, trials=3, tol=1e-8)
        assert report.passed, render_report(report)
        assert report.failures == 0
        assert report.max_residual <= 1e-8
        assert len(report.trials) == 3

    def test_fiber_flip_suite_records_contractions(self):
        # the fiberwise flip can shrink distances, and the runner reports
        # that honestly instead of smoothing it over
        report = run_suite("fiber-flip-isometry", seed=0, trials=20)
        assert not report.passed
        assert report.failures > 0
        assert report.max_residual > 1e-8
        for t in report.trials:
            assert t.passed == (t.residual <= 1e-8)

    def test_suite_names_cover_the_registry(self):
        assert set(PASSING_SUITES) | {"fiber-flip-isometry"} == set(SUITE_NAMES)
        assert len(SUITE_NAMES) == 10

    def test_reports_are_deterministic_up_to_wall_time(self):
        a = run_suite("flip-isometry", seed=5, trials=5)
        b = run_suite("flip-isometry", seed=5, trials=5)
        assert strip_wall_time(render_report(a)) == strip_wall_time(render_report(b))
        assert render_csv(a) == render_csv(b)

    def test_seed_changes_the_trials(self):
        a = run_suite("duality-gap", seed=1, trials=4)
        b = run_suite("duality-gap", seed=2, trials=4)
        assert render_csv(a) != render_csv(b)

    def test_explicit_space_is_respected(self):
        space = Product(1, 1, Interval(1))
        report = run_suite("lemma31-additivity", seed=3, trials=4, mode="rational", space=space)
        assert report.passed
        # q = 1 with an interval base keeps every cost rational, so the
        # additivity residual is exactly zero, not merely small
        assert report.max_residual == 0
        assert report.space_label == space.describe()

    def test_invalid_arguments(self):
        with pytest.raises(DomainError):
            run_suite("no-such-suite")
        with pytest.raises(DomainError):
            run_suite("metric-axioms", mode="symbolic")
        with pytest.raises(DomainError):
            run_suite("metric-axioms", trials=0)
        with pytest.raises(DomainError):
            run_suite("metric-axioms", tol=0)

    def test_infinite_tolerance_is_rejected(self):
        # a failed trial's residual is inf, and inf <= inf would pass it
        with pytest.raises(DomainError, match="finite"):
            run_suite("fiber-flip-isometry", trials=3, tol=float("inf"))


class TestRunScenario:
    def test_scenario_runs_both_flexibility_suites(self):
        report = run_scenario("example-3-2", seed=4, trials=3)
        assert report.suite == "example-3-2"
        assert len(report.trials) == 6
        assert [t.index for t in report.trials] == list(range(6))
        first, second = report.trials[:3], report.trials[3:]
        assert all(t.note.startswith("fiber-flip-isometry") for t in first)
        assert all(t.note.startswith("pi-hat-cost") for t in second)
        # the coupling-lift cost identity holds on every packaged space
        assert all(t.passed for t in second)

    def test_city_block_scenario_shows_contractions(self):
        report = run_scenario("example-2-3", seed=0, trials=10)
        flip_half = report.trials[:10]
        assert any(not t.passed for t in flip_half)
        assert all(t.passed for t in report.trials[10:])

    def test_scenario_names(self):
        assert SCENARIO_NAMES == ("example-2-1", "example-2-2", "example-2-3", "example-3-2")
        with pytest.raises(DomainError):
            run_scenario("example-9-9")
        with pytest.raises(DomainError):
            run_scenario("example-2-1", trials=0)


class TestRendering:
    def sample_report(self):
        trials = (
            TrialRecord(index=0, seed_label="7:0", residual=0.0, passed=True),
            TrialRecord(index=1, seed_label="7:1", residual=0.5, passed=False, note="shrank"),
        )
        return CampaignReport(
            suite="demo",
            space_label="interval[0,1]",
            mode="float",
            seed=7,
            tol=1e-8,
            trials=trials,
            wall_time_s=0.25,
        )

    def test_report_layout(self):
        text = render_report(self.sample_report())
        lines = text.splitlines()
        assert lines[0] == "suite = demo"
        assert lines[4] == "trials = 2"
        assert "trial 0 seed=7:0 residual=0.0 pass" in lines
        assert "trial 1 seed=7:1 residual=0.5 FAIL note=shrank" in lines
        assert "aggregate = FAIL" in lines
        assert lines[-1] == "wall_time_s = 0.250"

    def test_csv_schema(self):
        text = render_csv(self.sample_report())
        lines = text.splitlines()
        assert lines[0] == "trial,seed,residual,pass"
        assert lines[1] == "0,7:0,0.0,1"
        assert lines[2] == "1,7:1,0.5,0"

    def test_aggregate_properties(self):
        report = self.sample_report()
        assert not report.passed
        assert report.failures == 1
        assert report.max_residual == 0.5
