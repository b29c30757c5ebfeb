"""Settings a subcommand would read and drop are refused: exit 2 and one stderr line.

``verify`` runs each suite on its own space unless the space is a product,
so ``space = interval`` would change nothing; ``scenario`` runs on its
packaged space, so no space setting and no window would. Each is refused,
by flag or by config entry, before anything runs or is written.
"""

import pytest

from otlab.cli import EXIT_PASS, EXIT_USAGE, entry

SUITE_SPACE = "a suite runs on its own space unless the space is a product"
PACKAGED_SPACE = "a scenario runs on its packaged space"
SCENARIO_SETTINGS = [
    ("space", "interval"),
    ("space", "product"),
    ("alpha", "1/3"),
    ("q", "1"),
    ("base", "interval"),
    ("dim", "3"),
    ("window", "5"),
]


def refusal(tmp_path, monkeypatch, capsys, argv):
    """The one stderr line of a run of ``argv`` that must exit 2 and write nothing."""
    monkeypatch.chdir(tmp_path)
    assert entry(argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith("\n") and err.count("\n") == 1 and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        a.rpartition("/")[2] for a in argv if a.endswith(".cfg")
    )
    return err


def config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def test_verify_refuses_an_interval_space_flag(tmp_path, monkeypatch, capsys):
    err = refusal(tmp_path, monkeypatch, capsys, ["verify", "metric-axioms", "--trials", "1", "--space", "interval"])
    assert err == f"otlab: verify does not read --space interval: {SUITE_SPACE}\n"


def test_verify_refuses_an_interval_space_config_entry(tmp_path, monkeypatch, capsys):
    path = config(tmp_path, "trials = 1\nspace = interval\n")
    err = refusal(tmp_path, monkeypatch, capsys, ["verify", "metric-axioms", "--config", path])
    assert err == f"otlab: verify does not read config entry 'space = interval': {SUITE_SPACE}\n"


def test_a_product_flag_overrides_an_interval_config_entry(tmp_path, monkeypatch, capsys):
    path = config(tmp_path, "space = interval\n")
    monkeypatch.chdir(tmp_path)
    argv = ["verify", "metric-axioms", "--trials", "1", "--config", path, "--space", "product"]
    assert entry(argv) == EXIT_PASS
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("key, value", SCENARIO_SETTINGS)
def test_scenario_refuses_a_space_or_window_flag(tmp_path, monkeypatch, capsys, key, value):
    argv = ["scenario", "example-2-3", "--trials", "1", f"--{key}", value]
    err = refusal(tmp_path, monkeypatch, capsys, argv)
    assert err == f"otlab: scenario does not read --{key} {value}: {PACKAGED_SPACE}\n"


@pytest.mark.parametrize("key, value", SCENARIO_SETTINGS)
def test_scenario_refuses_a_space_or_window_config_entry(tmp_path, monkeypatch, capsys, key, value):
    path = config(tmp_path, f"trials = 1\n{key} = {value}\n")
    err = refusal(tmp_path, monkeypatch, capsys, ["scenario", "example-2-3", "--config", path])
    assert err == f"otlab: scenario does not read config entry '{key} = {value}': {PACKAGED_SPACE}\n"


def test_scenario_names_the_first_setting_in_help_order(tmp_path, monkeypatch, capsys):
    # --alpha comes before --dim in ``otlab --help``, and a flag before a
    # config entry of a later key
    path = config(tmp_path, "window = 5\n")
    argv = ["scenario", "example-2-3", "--config", path, "--dim", "3", "--alpha", "1/3"]
    err = refusal(tmp_path, monkeypatch, capsys, argv)
    assert err == f"otlab: scenario does not read --alpha 1/3: {PACKAGED_SPACE}\n"


def test_dist_still_reads_an_interval_space(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.txt").write_text("space interval\n1 0\n")
    (tmp_path / "b.txt").write_text("space interval\n1 1/2\n")
    assert entry(["dist", "a.txt", "b.txt", "--space", "interval", "--mode", "rational"]) == EXIT_PASS
    assert "distance = 1/2" in capsys.readouterr().out.splitlines()
