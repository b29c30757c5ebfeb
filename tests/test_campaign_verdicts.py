"""Every failing verdict a campaign suite can return, forced one at a time.

Each case replaces one name that ``otlab.campaign`` imports with a stand-in
that makes a suite's check fail, then runs one trial. The trial must fail
with the suite's exact note, its CSV row must read ``inf`` and 0, and the
command line must exit with the invariant-failure code.
"""

from fractions import Fraction
from types import SimpleNamespace

import pytest

import otlab.campaign as campaign
from otlab import DiscreteMeasure, Interval, IntervalPoint
from otlab.cli import EXIT_INVARIANT, _campaign_exit
from otlab.errors import CouplingError, InvariantError

SEED = 3

# an 11-atom interval measure: no sampled measure of the flip suite (1 to 10
# atoms) equals it or has as many atoms
ELEVEN = DiscreteMeasure(
    Interval(1), tuple((IntervalPoint(Fraction(k, 10)), Fraction(1, 11)) for k in range(11))
)


def constant(value):
    def stand_in(*args, **kwargs):
        return value

    return stand_in


def raising(error):
    def stand_in(*args, **kwargs):
        raise error

    return stand_in


def scan(included, extra):
    report = SimpleNamespace(convex_combination_included=included, has_non_convex_member=extra)
    return constant(report)


# (suite, mode, {name in otlab.campaign: stand-in}, the failed trial's note)
CASES = {
    "zero-distance": (
        "metric-axioms", "float", {"distance": constant(0.0)},
        "zero distance between distinct points",
    ),
    "uncertified": (
        "fiber-flip-isometry", "float",
        {"solve_wasserstein": constant(SimpleNamespace(certified=False))},
        "solver could not certify optimality",
    ),
    "cdf-disagrees": (
        "flip-isometry", "float", {"flip_via_cdf": constant(ELEVEN)},
        "closed-form flip disagrees with the inverse-CDF route",
    ),
    "not-involution": (
        "flip-isometry", "rational", {"flip": constant(ELEVEN), "flip_via_cdf": constant(ELEVEN)},
        "flip is not an involution on this measure",
    ),
    "atom-count": (
        "flip-isometry", "float", {"flip": constant(ELEVEN), "flip_via_cdf": constant(ELEVEN)},
        "flip round trip changed the atom count",
    ),
    "lifted-marginals": (
        "pi-hat-cost", "float", {"validate_coupling": raising(CouplingError("marginal"))},
        "lifted plan does not couple the flipped marginals",
    ),
    "convex-missing": (
        "ratio-witness", "float", {"ratio_set_scan": scan(included=False, extra=True)},
        "convex combination missing from the ratio set",
    ),
    "witness-not-member": (
        "ratio-witness", "float", {"ratio_set_scan": scan(included=True, extra=False)},
        "constructed witness is not a ratio-set member",
    ),
    "extra-member": (
        "ratio-singleton", "float", {"ratio_set_scan": scan(included=True, extra=True)},
        "unexpected extra ratio-set member",
    ),
    "not-recognized": (
        "ratio-singleton", "float", {"detect_dirac_pair_form": constant(None)},
        "pair was not recognized in shared-remainder form",
    ),
    "additivity": (
        "lemma31-additivity", "float", {"split_transport": raising(InvariantError("split"))},
        "additivity postcondition failed",
    ),
    "monotonicity": (
        "lemma31-additivity", "float",
        {"check_cyclical_monotonicity": constant(SimpleNamespace(ok=False))},
        "optimal plan fails cyclical monotonicity",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_forced_verdict_fails_its_trial_with_its_note(monkeypatch, case):
    suite, mode, stand_ins, note = CASES[case]
    for name, stand_in in stand_ins.items():
        assert hasattr(campaign, name)
        monkeypatch.setattr(campaign, name, stand_in)
    report = campaign.run_suite(suite, seed=SEED, trials=1, mode=mode)
    assert report.passed is False
    assert report.trials[0].note == note
    assert campaign.render_csv(report).splitlines()[1] == f"0,{SEED}:0,inf,0"
    assert _campaign_exit(report) == EXIT_INVARIANT
