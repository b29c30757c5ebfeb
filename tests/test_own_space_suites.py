"""Suites that build their own space read no space setting and no window.

``flip-isometry`` draws on [0, 1]; ``ratio-singleton``, ``ratio-witness``
and ``geodesic-extension`` build their own products with fixed windows.
``verify`` refuses every space setting and the window for them, by flag or
by config entry, before anything runs or is written. The library's
``run_suite`` still takes a space for them and leaves it unread; a recording
space shows which suites never touch the space they are given, and that set
must be the campaign's own list.
"""

import pytest

import otlab.campaign as campaign
from otlab import Euclidean, Product

from test_unread_settings import config, refusal

OWN_SPACE = ("flip-isometry", "ratio-singleton", "ratio-witness", "geodesic-extension")
SETTINGS = [
    ("space", "product"),
    ("space", "interval"),
    ("alpha", "0.3"),
    ("q", "3"),
    ("base", "euclidean"),
    ("dim", "2"),
    ("window", "5"),
]


def own_space(suite):
    return f"{suite} draws on its own space and window"


@pytest.mark.parametrize("suite", OWN_SPACE)
@pytest.mark.parametrize("key, value", SETTINGS)
def test_verify_refuses_a_space_or_window_flag(tmp_path, monkeypatch, capsys, suite, key, value):
    argv = ["verify", suite, "--trials", "1", f"--{key}", value]
    err = refusal(tmp_path, monkeypatch, capsys, argv)
    assert err == f"otlab: verify does not read --{key} {value}: {own_space(suite)}\n"


@pytest.mark.parametrize("suite", OWN_SPACE)
@pytest.mark.parametrize("key, value", SETTINGS)
def test_verify_refuses_a_space_or_window_config_entry(tmp_path, monkeypatch, capsys, suite, key, value):
    path = config(tmp_path, f"trials = 1\n{key} = {value}\n")
    err = refusal(tmp_path, monkeypatch, capsys, ["verify", suite, "--config", path])
    assert err == f"otlab: verify does not read config entry '{key} = {value}': {own_space(suite)}\n"


def test_the_first_setting_in_help_order_is_named(tmp_path, monkeypatch, capsys):
    argv = ["verify", "flip-isometry", "--q", "3", "--alpha", "0.3", "--space", "product"]
    err = refusal(tmp_path, monkeypatch, capsys, argv)
    assert err == f"otlab: verify does not read --space product: {own_space('flip-isometry')}\n"


def recording_product(exact):
    """The default product as a subclass that logs its point checks and distances."""
    log = []

    class Recording(Product):
        def validate_point(self, p):
            log.append("validate_point")
            return super().validate_point(p)

        def distance(self, a, b):
            log.append("distance")
            return super().distance(a, b)

    default = campaign._default_product(exact)
    return Recording(default.alpha, default.q, default.base), log


@pytest.mark.parametrize("mode", ["float", "rational"])
def test_the_own_space_list_is_the_suites_that_never_touch_their_space(mode):
    untouched = set()
    for suite in campaign.SUITE_NAMES:
        space, log = recording_product(mode == "rational")
        report = campaign.run_suite(suite, seed=0, trials=1, mode=mode, space=space)
        assert report.space_label == space.describe()
        if not log:
            untouched.add(suite)
    assert untouched == set(campaign._OWN_SPACE_SUITES) == set(OWN_SPACE)


def test_run_suite_still_takes_a_space_for_an_own_space_suite():
    space = Product(1, 1, Euclidean(1))
    report = campaign.run_suite("flip-isometry", seed=4, trials=3, mode="rational", space=space)
    assert report.passed and report.space_label == space.describe()
