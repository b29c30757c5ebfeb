"""A campaign writes a numpy float as the Python float it equals, and lets defects out.

The report's ``tol`` line reads the same for ``1e-08`` given as a Python
float or as a numpy float64. The pi-hat-cost suite turns only the errors of
``validate_coupling`` (``CouplingError``, ``SpaceMismatchError``) into a
failed trial; any other error raised there is a defect and leaves
``run_suite``.
"""

import numpy as np
import pytest

import otlab.campaign as campaign


def _without_wall_time(text):
    return [line for line in text.splitlines() if not line.startswith("wall_time_s = ")]


def test_a_numpy_tolerance_writes_the_report_of_the_python_float():
    numpy_tol = campaign.run_suite("metric-axioms", trials=2, tol=np.float64(1e-8))
    python_tol = campaign.run_suite("metric-axioms", trials=2, tol=1e-8)
    text = _without_wall_time(campaign.render_report(numpy_tol))
    assert "tol = 1e-08" in text
    assert text == _without_wall_time(campaign.render_report(python_tol))
    assert campaign.render_csv(numpy_tol) == campaign.render_csv(python_tol)


def test_an_unexpected_error_in_the_lift_check_leaves_run_suite(monkeypatch):
    def stand_in(*args, **kwargs):
        raise ZeroDivisionError("defect")

    monkeypatch.setattr(campaign, "validate_coupling", stand_in)
    with pytest.raises(ZeroDivisionError, match="defect"):
        campaign.run_suite("pi-hat-cost", seed=3, trials=1)
