"""Three inputs that once ended in a traceback are refused with one line.

A negative seed is a :class:`DomainError` wherever a campaign starts. A file
that is not UTF-8 is a :class:`ParseError` at its first bad byte, from each of
the three readers (measure files, finite-space files, config files). A
product setting on the interval, or a dimension on an interval base, is
refused like every other setting a command would drop. Through the CLI each
exits 2 with one stderr line and writes nothing.
"""

import pytest

from otlab import DomainError, Interval, ParseError, load_finite_space, load_measure
from otlab import campaign
from otlab.cli import EXIT_USAGE, entry, parse_config

INTERVAL_FILE = "space interval\n1/2 0\n1/2 1/4\n"
PRODUCT_FILE = "space product\n1/2 0 0\n1/2 1/4 1/2\n"
# the first bad byte is 0xff, on line 3 after "1/2 "
NOT_UTF8 = b"space interval\n1/2 0\n1/2 \xff1/4\n"


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.txt").write_text(INTERVAL_FILE)
    (tmp_path / "p.txt").write_text(PRODUCT_FILE)
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


# ---------------------------------------------------------------------------
# negative seeds


@pytest.mark.parametrize("seed", (-1, -2**40))
def test_run_suite_refuses_a_negative_seed(seed):
    with pytest.raises(DomainError) as info:
        campaign.run_suite("flip-isometry", seed=seed, trials=1)
    assert str(info.value) == f"seed must be a non-negative integer, got {seed}"


def test_run_scenario_refuses_a_negative_seed():
    with pytest.raises(DomainError, match=r"^seed must be a non-negative integer, got -2$"):
        campaign.run_scenario("example-2-1", seed=-2, trials=1)


@pytest.mark.parametrize(
    "argv, seed",
    [
        (["verify", "flip-isometry", "--seed", "-1"], -1),
        (["scenario", "example-2-1", "--seed", "-2"], -2),
        (["--seed", "-7", "verify", "metric-axioms", "--trials", "1"], -7),
    ],
)
def test_a_negative_seed_flag_is_refused(workdir, capsys, argv, seed):
    err = refusal(workdir, capsys, argv)
    assert err == f"otlab: seed must be a non-negative integer, got {seed}\n"


@pytest.mark.parametrize("command", (["verify", "flip-isometry"], ["scenario", "example-2-1"]))
def test_a_negative_seed_config_entry_is_refused(workdir, capsys, command):
    (workdir / "run.cfg").write_text("seed = -3\n")
    err = refusal(workdir, capsys, [*command, "--trials", "1", "--config", "run.cfg"])
    assert err == "otlab: seed must be a non-negative integer, got -3\n"


# ---------------------------------------------------------------------------
# files that are not UTF-8


def test_load_measure_names_the_first_bad_byte(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(NOT_UTF8)
    with pytest.raises(ParseError) as info:
        load_measure(str(path), Interval(1))
    assert (info.value.path, info.value.line, info.value.column) == (str(path), 3, 5)
    assert str(info.value) == f"{path}:3:5: not UTF-8 text: cannot decode byte 0xff"


@pytest.mark.parametrize(
    "data, line, column, byte",
    [
        (b"\xff3\n", 1, 1, "0xff"),
        (b"2\n0 1\n1 0\xc3(\n", 3, 4, "0xc3"),
        # a carriage return ends a line too
        (b"2\r0 1\r\n1 0 \x80\n", 3, 5, "0x80"),
        (b"2\n0 1\n1 0\n\xfe", 4, 1, "0xfe"),
    ],
)
def test_load_finite_space_names_the_first_bad_byte(tmp_path, data, line, column, byte):
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    with pytest.raises(ParseError) as info:
        load_finite_space(str(path))
    assert str(info.value) == f"{path}:{line}:{column}: not UTF-8 text: cannot decode byte {byte}"


def test_parse_config_names_the_first_bad_byte(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"mode = float\n# caf\xe9\n")
    with pytest.raises(ParseError) as info:
        parse_config(str(path))
    assert str(info.value) == f"{path}:2:6: not UTF-8 text: cannot decode byte 0xe9"


def test_a_missing_file_is_still_reported_as_before(tmp_path):
    # load_measure lets the OSError through; parse_config wraps it
    with pytest.raises(FileNotFoundError):
        load_measure(str(tmp_path / "absent.txt"), Interval(1))
    path = tmp_path / "absent.cfg"
    with pytest.raises(ParseError) as info:
        parse_config(str(path))
    assert str(info.value) == f"{path}: cannot read config: No such file or directory"


def test_every_line_ending_reads_alike(tmp_path):
    # universal newlines: \n, \r\n and \r all end a line, and errors keep their line numbers
    for ending in ("\n", "\r\n", "\r"):
        path = tmp_path / "m.txt"
        path.write_bytes(ending.join(["space s", "# note", "1/2 0", "", "1/2 1/4"]).encode() + b"\n")
        mu, space_id = load_measure(str(path), Interval(1), exact=True)
        assert space_id == "s" and repr(mu.masses) == "(Fraction(1, 2), Fraction(1, 2))"
        path.write_bytes(ending.join(["3", "0 1 1", "", "1 0 1"]).encode())
        with pytest.raises(ParseError, match=r":4: expected 3 rows, got 2$"):
            load_finite_space(str(path))


def test_a_measure_file_that_is_not_utf8_is_refused(workdir, capsys):
    (workdir / "bad.txt").write_bytes(NOT_UTF8)
    err = refusal(workdir, capsys, ["dist", "bad.txt", "m.txt"])
    assert err == "otlab: bad.txt:3:5: not UTF-8 text: cannot decode byte 0xff\n"


def test_a_config_file_that_is_not_utf8_is_refused(workdir, capsys):
    (workdir / "run.cfg").write_bytes(b"\xffmode = float\n")
    err = refusal(workdir, capsys, ["dist", "m.txt", "m.txt", "--config", "run.cfg"])
    assert err == "otlab: run.cfg:1:1: not UTF-8 text: cannot decode byte 0xff\n"


# ---------------------------------------------------------------------------
# product settings on the interval

SPACE = "the space is the interval"
BASE = "the base is the interval"
DIST = ["dist", "m.txt", "m.txt"]
FLIP = ["transform", "flip", "m.txt"]
ON_INTERVAL = [
    (DIST, ["--space", "interval", "--alpha", "0.5"], "dist", "alpha", "0.5", SPACE),
    (DIST, ["--space", "interval", "--q", "2"], "dist", "q", "2", SPACE),
    (DIST, ["--space", "interval", "--dim", "3"], "dist", "dim", "3", SPACE),
    (DIST, ["--space", "interval", "--base", "euclidean"], "dist", "base", "euclidean", SPACE),
    (FLIP, ["--space", "interval", "--q", "2"], "transform", "q", "2", SPACE),
    (DIST, ["--base", "interval", "--dim", "3"], "dist", "dim", "3", BASE),
    (
        ["transform", "fiber-flip", "p.txt"], ["--base", "interval", "--dim", "3"],
        "transform", "dim", "3", BASE,
    ),
    (
        ["verify", "metric-axioms", "--trials", "1"], ["--base", "interval", "--dim", "3"],
        "verify", "dim", "3", BASE,
    ),
]


@pytest.mark.parametrize("command, settings, name, key, value, why", ON_INTERVAL)
def test_a_dropped_product_flag_is_refused(workdir, capsys, command, settings, name, key, value, why):
    err = refusal(workdir, capsys, [*command, *settings])
    assert err == f"otlab: {name} does not read --{key} {value}: {why}\n"


@pytest.mark.parametrize("command, settings, name, key, value, why", ON_INTERVAL)
def test_a_dropped_product_config_entry_is_refused(
    workdir, capsys, command, settings, name, key, value, why
):
    # the space or base comes from the file as well
    entries = dict(zip(settings[::2], settings[1::2]))
    (workdir / "run.cfg").write_text("".join(f"{k[2:]} = {v}\n" for k, v in entries.items()))
    err = refusal(workdir, capsys, [*command, "--config", "run.cfg"])
    assert err == f"otlab: {name} does not read config entry '{key} = {value}': {why}\n"


def test_a_config_space_drops_a_product_flag(workdir, capsys):
    (workdir / "run.cfg").write_text("space = interval\n")
    err = refusal(workdir, capsys, [*DIST, "--config", "run.cfg", "--alpha", "1/2"])
    assert err == f"otlab: dist does not read --alpha 1/2: {SPACE}\n"


@pytest.mark.parametrize(
    "settings, first",
    [
        (["--space", "interval", "--dim", "2", "--q", "3", "--alpha", "1"], "--alpha 1"),
        (["--space", "interval", "--base", "interval", "--dim", "2"], "--base interval"),
        (["--dim", "2", "--base", "interval", "--q", "3"], "--dim 2"),
    ],
)
def test_the_first_dropped_product_setting_in_help_order_is_named(workdir, capsys, settings, first):
    why = BASE if "--space" not in settings else SPACE
    err = refusal(workdir, capsys, [*DIST, *settings])
    assert err == f"otlab: dist does not read {first}: {why}\n"
