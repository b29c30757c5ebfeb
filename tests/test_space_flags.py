"""Which flags and config keys make the space a product, and how numeric flags are read.

Every flag or key that names a part of a product space (``space product``,
``alpha``, ``q``, ``base``, ``dim``) makes the space a product; the parts not
named take the flags' defaults (alpha 1/2, q 2, a euclidean base of dim 1).
A flag's text goes through the same reader as a config entry, so a
malformed number gets the reader's one-line message.
"""

import pytest

from otlab.cli import EXIT_PASS, EXIT_USAGE, _build_parser, build_config, entry

DEFAULT_PRODUCT = "product:alpha=0.5:q=2:euclidean:dim=2"


def verify_space_line(tmp_path, monkeypatch, *argv):
    """The space line of a one-trial ``metric-axioms`` report run with ``argv``."""
    monkeypatch.chdir(tmp_path)
    assert entry(["verify", "metric-axioms", "--trials", "1", *argv]) == EXIT_PASS
    lines = (tmp_path / "metric-axioms-report.txt").read_text().splitlines()
    return lines[1]


@pytest.mark.parametrize(
    "argv, space",
    [
        (["--dim", "3"], "product:alpha=0.5:q=2:euclidean:dim=3"),
        (["--base", "interval"], "product:alpha=0.5:q=2:interval:alpha=1"),
        # the parts not named take the flags' defaults, a base of dim 1 among them
        (["--base", "euclidean"], "product:alpha=0.5:q=2:euclidean:dim=1"),
        (["--alpha", "1/4"], "product:alpha=0.25:q=2:euclidean:dim=1"),
        # an interval space is no campaign space: verify refuses it (None) and writes no report
        (["--space", "interval"], None),
        ([], DEFAULT_PRODUCT),
    ],
)
def test_verify_reports_the_space_its_flags_name(tmp_path, monkeypatch, capsys, argv, space):
    if space is None:
        monkeypatch.chdir(tmp_path)
        assert entry(["verify", "metric-axioms", "--trials", "1", *argv]) == EXIT_USAGE
        assert list(tmp_path.iterdir()) == []
    else:
        assert verify_space_line(tmp_path, monkeypatch, *argv) == f"space = {space}"


def test_a_dim_config_key_makes_the_space_a_product(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dim = 3\n")
    line = verify_space_line(tmp_path, monkeypatch, "--config", str(cfg))
    assert line == "space = product:alpha=0.5:q=2:euclidean:dim=3"


@pytest.mark.parametrize("flag", ["--dim", "--base"])
def test_a_product_part_flag_makes_dist_read_product_files(flag):
    value = "3" if flag == "--dim" else "interval"
    cfg = build_config(_build_parser().parse_args(["dist", "a", "b", flag, value]))
    assert (cfg.space_kind, cfg.alpha, cfg.q) == ("product", 0.5, 2)


@pytest.mark.parametrize(
    "flag, token, message",
    [
        ("--seed", "x", "seed must be an integer, got 'x'"),
        ("--trials", "2.5", "trials must be an integer, got '2.5'"),
        ("--dim", "two", "dim must be an integer, got 'two'"),
        ("--tol", "abc", "tol must be a number, got 'abc'"),
    ],
)
def test_a_malformed_numeric_flag_gets_the_readers_message(
    tmp_path, monkeypatch, capsys, flag, token, message
):
    monkeypatch.chdir(tmp_path)
    assert entry(["verify", "flip-isometry", flag, token]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"otlab: {message}\n")
    assert not list(tmp_path.iterdir())
