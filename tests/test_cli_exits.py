"""Command line refusals and the exit code of a stalled campaign, end to end."""

import pytest

import otlab.campaign
from otlab.cli import EXIT_NUMERICAL, EXIT_USAGE, entry
from otlab.errors import SolverStallError


@pytest.fixture
def files(tmp_path):
    """Write each ``name: text`` pair under tmp_path; return name -> path."""

    def write(**texts):
        paths = {}
        for name, text in texts.items():
            path = tmp_path / name
            path.write_text(text, encoding="utf-8")
            paths[name] = str(path)
        return paths

    return write


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--tol", "0", "verify", "flip-isometry"], "tol must be positive"),
        (["--tol", "-1", "verify", "flip-isometry"], "tol must be positive"),
        (["verify", "flip-isometry", "--tol", "-1"], "tol must be positive"),
        (["--trials", "0", "verify", "flip-isometry"], "trials must be at least 1"),
        (["--dim", "0", "verify", "flip-isometry"], "dim must be at least 1"),
        (["--order", "1/2", "dist", "{a}", "{a}"], "order must be at least 1"),
        (["--order", "abc", "dist", "{a}", "{a}"], "invalid number 'abc'"),
        (["--window", "0", "verify", "flip-isometry"], "window radius must be positive"),
        (["--window", "2:1", "verify", "flip-isometry"], "window '2:1' is empty"),
        (["--config", "{seed}", "verify", "flip-isometry"], "seed must be an integer, got 'x'"),
        (["--config", "{noeq}", "verify", "flip-isometry"], "{noeq}:2:1: expected 'key = value'"),
        (
            ["dist", "{a}", "{b}"],
            "measure files declare different spaces: 'interval' vs 'other'",
        ),
    ],
)
def test_refused_flag_or_file_exits_2_with_its_message(capsys, files, argv, message):
    paths = files(
        a="space interval\n1 0\n",
        b="space other\n1 1\n",
        seed="seed = x\n",
        noeq="mode = float\njunk\n",
    )
    code = entry([arg.format(**paths) for arg in argv])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err == f"otlab: {message.format(**paths)}\n"


def stall(*args, **kwargs):
    raise SolverStallError("pivot budget exhausted")


@pytest.mark.parametrize(
    "argv, note",
    [
        (["verify", "fiber-flip-isometry"], "note=SolverStallError: pivot budget exhausted"),
        (
            ["scenario", "example-2-1"],
            "note=fiber-flip-isometry: SolverStallError: pivot budget exhausted",
        ),
    ],
)
def test_a_stalled_trial_exits_3_from_verify_and_scenario(
    capsys, tmp_path, monkeypatch, argv, note
):
    monkeypatch.setattr(otlab.campaign, "solve_wasserstein", stall)
    report = tmp_path / "r.txt"
    code = entry(argv + ["--trials", "1", "--report", str(report), "--csv", str(tmp_path / "r.csv")])
    capsys.readouterr()
    assert code == EXIT_NUMERICAL
    assert f"trial 0 seed=0:0 residual=inf FAIL {note}\n" in report.read_text()
