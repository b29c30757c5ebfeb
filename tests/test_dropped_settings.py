"""Every setting a subcommand never reads is refused: exit 2 and one stderr line.

``dist`` and ``transform`` draw no random measures, run no trials and write
no report or CSV; ``transform`` solves nothing, so it reads no tolerance and
no transport order either; each suite of ``verify`` and ``scenario`` sets its
own transport order. Each such setting is refused, by flag or by config
entry, before anything runs or is written.
"""

import pytest

from otlab.cli import EXIT_PASS, EXIT_USAGE, entry

NO_DRAWS = "it draws no random measures"
NO_TRIALS = "it runs no trials"
NO_FILES = "it prints to stdout and writes no file"
NO_SOLVE = "it solves no transport problem"
OWN_ORDER = "each suite sets its own transport order"

INTERVAL_FILE = "space interval\n1/2 0\n1/2 1/4\n"
COMMANDS = {
    "dist": ["dist", "m.txt", "m.txt"],
    "transform": ["transform", "flip", "m.txt"],
    "verify": ["verify", "metric-axioms", "--trials", "1"],
    "scenario": ["scenario", "example-2-3", "--trials", "1"],
}
UNREAD = [
    ("dist", "seed", "5", NO_DRAWS),
    ("dist", "trials", "9", NO_TRIALS),
    ("dist", "window", "4", NO_DRAWS),
    ("dist", "report", "x", NO_FILES),
    ("dist", "csv", "y", NO_FILES),
    ("transform", "seed", "5", NO_DRAWS),
    ("transform", "trials", "9", NO_TRIALS),
    ("transform", "tol", "1e-3", NO_SOLVE),
    ("transform", "order", "3", NO_SOLVE),
    ("transform", "window", "4", NO_DRAWS),
    ("transform", "report", "x", NO_FILES),
    ("transform", "csv", "y", NO_FILES),
    ("verify", "order", "2", OWN_ORDER),
    ("scenario", "order", "2", OWN_ORDER),
]


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.txt").write_text(INTERVAL_FILE)
    return tmp_path


def refusal(workdir, capsys, argv):
    """The one stderr line of a run of ``argv`` that must exit 2 and write nothing."""
    before = sorted(p.name for p in workdir.iterdir())
    assert entry(argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith("\n") and err.count("\n") == 1 and "Traceback" not in err
    assert sorted(p.name for p in workdir.iterdir()) == before
    return err


@pytest.mark.parametrize("command, key, value, why", UNREAD)
def test_an_unread_flag_is_refused(workdir, capsys, command, key, value, why):
    err = refusal(workdir, capsys, [*COMMANDS[command], f"--{key}", value])
    assert err == f"otlab: {command} does not read --{key} {value}: {why}\n"


@pytest.mark.parametrize("command, key, value, why", UNREAD)
def test_an_unread_config_entry_is_refused(workdir, capsys, command, key, value, why):
    (workdir / "run.cfg").write_text(f"{key} = {value}\n")
    err = refusal(workdir, capsys, [*COMMANDS[command], "--config", "run.cfg"])
    assert err == f"otlab: {command} does not read config entry '{key} = {value}': {why}\n"


@pytest.mark.parametrize(
    "argv, first",
    [
        (
            ["transform", "flip", "m.txt", "--order", "3", "--seed", "5", "--trials", "9",
             "--window", "4", "--tol", "1e-3", "--report", "x", "--csv", "y"],
            f"transform does not read --seed 5: {NO_DRAWS}",
        ),
        (
            ["dist", "m.txt", "m.txt", "--csv", "y", "--report", "x", "--window", "4", "--trials", "9"],
            f"dist does not read --trials 9: {NO_TRIALS}",
        ),
        (
            ["scenario", "example-2-3", "--window", "5", "--order", "2", "--dim", "3"],
            "scenario does not read --dim 3: a scenario runs on its packaged space",
        ),
        (
            ["scenario", "example-2-3", "--window", "5", "--order", "2"],
            f"scenario does not read --order 2: {OWN_ORDER}",
        ),
    ],
)
def test_the_first_unread_setting_in_help_order_is_named(workdir, capsys, argv, first):
    assert refusal(workdir, capsys, argv) == f"otlab: {first}\n"


def test_dist_reads_every_setting_of_a_rational_product_solve_and_no_seed(workdir, capsys):
    (workdir / "p.txt").write_text("space product\n1/2 0 0\n1/2 1/4 1\n")
    argv = ["dist", "p.txt", "p.txt", "--mode", "rational", "--order", "1", "--space", "product",
            "--alpha", "1", "--q", "1", "--base", "interval", "--tol", "1e-6"]
    assert entry(argv) == EXIT_PASS
    out, err = capsys.readouterr()
    assert err == ""
    assert "distance = 0" in out.splitlines()
    err = refusal(workdir, capsys, [*argv, "--seed", "5"])
    assert err == f"otlab: dist does not read --seed 5: {NO_DRAWS}\n"


def test_transform_reads_its_mode_and_space_and_no_order(workdir, capsys):
    argv = ["transform", "id", "m.txt", "--mode", "rational", "--space", "interval"]
    assert entry(argv) == EXIT_PASS
    assert capsys.readouterr() == (INTERVAL_FILE, "")
    err = refusal(workdir, capsys, [*argv, "--order", "1"])
    assert err == f"otlab: transform does not read --order 1: {NO_SOLVE}\n"
