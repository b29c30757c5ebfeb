"""Reading and canonicalizing measures: the same values, order and errors
as the plain reference forms below.

* ``parse_number`` against the ``Fraction(token)`` reading it shortcuts,
  over a grid of tokens, in both modes, by type and value or by error text.
* ``_canonical_atoms``, ``DiscreteMeasure`` and ``SubProbabilityMeasure``
  against a dict merge: duplicates keep the first point's form, masses add in
  input order, and of several bad masses the first to occur is named.
* An exact measure's mass units are those of ``integer_units``, and neither
  ``==``, ``hash``, ``repr`` nor a pickle sees them.
"""

import pickle
import random
from fractions import Fraction

import pytest

from otlab import (
    DiscreteMeasure,
    Euclidean,
    EuclideanPoint,
    Finite,
    FinitePoint,
    Interval,
    IntervalPoint,
    Product,
    ProductPoint,
    SubProbabilityMeasure,
    parse_number,
)
from otlab._numbers import format_number, integer_units
from otlab.errors import InvalidMeasureError, OTLabError
from otlab.measure import MASS_FLOOR, _canonical_atoms
from otlab.metric import point_sort_key


# ---------------------------------------------------------------------------
# parse_number


def reference_parse(token, exact=False):
    """Every token through ``Fraction(token)``."""
    token = token.strip()
    if not token:
        raise ValueError("empty number token")
    try:
        value = Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid number {token!r}") from exc
    if exact:
        return int(value) if value.denominator == 1 else value
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"number {token!r} is beyond the float range") from None


BIG = "1" + "0" * 400
TOKENS = [
    "0", "1", "7", "-1", "+1", "-0", "+0", "007", "-007", "+007", "00",
    "123456789012345678901234567890", BIG, "-" + BIG, "9" * 5000,
    "3/4", "-3/4", "+3/4", "6/4", "4/2", "-4/2", "0/5", "-0/5", "007/010",
    "3/0", "0/0", "-3/0", "1/-2", "1/+2", "-1/-2", "1/2/3", "/2", "2/", "/", "1 / 2",
    BIG + "/3", "-" + BIG + "/7", "1/" + BIG, "1/3" + "0" * 400, "9" * 5000 + "/2",
    "0.25", "-0.25", ".5", "5.", "-0.0", "1e-3", "1E3", "-2.5e2", "1e400", "-1e400",
    "1e-400", "0.1", "1.5/2", "3/0.5",
    "1_000", "1_000/3", "3/1_0", "1__0",
    "٣", "٣/٤", "-١٢", "３", "\U0001d7d9", "1²", "½",
    " 7 ", "\t-3/8\n", " 5 ", "", "   ", "abc", "-", "+", "--1", "+-1",
    "nan", "inf", "-inf", "0x10", "1j", "1,5", "١٢/٣",
]


def outcome(parse, token, exact):
    try:
        value = parse(token, exact=exact)
    except Exception as exc:  # the error text is part of what must match
        return ("error", type(exc).__name__, str(exc))
    return ("value", type(value).__name__, repr(value))


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_parse_number_matches_the_fraction_reading(exact):
    for token in TOKENS:
        assert outcome(parse_number, token, exact) == outcome(reference_parse, token, exact), token


def test_parse_number_reads_plain_integers_and_ratios_exactly():
    assert type(parse_number("-007", exact=True)) is int
    assert parse_number("6/4", exact=True) == Fraction(3, 2)
    assert type(parse_number("4/2", exact=True)) is int
    assert repr(parse_number("-0/5")) == "0.0"
    with pytest.raises(ValueError, match="beyond the float range"):
        parse_number(BIG)


# ---------------------------------------------------------------------------
# canonical atoms


def reference_canonical(space, atoms):
    """Validate in input order, merge in a dict, check masses in first-occurrence order, sort."""
    merged = {}
    for point, mass in atoms:
        space.validate_point(point)
        if point in merged:
            merged[point] = merged[point] + mass
        else:
            merged[point] = mass
    cleaned = []
    for point, mass in merged.items():
        if mass == 0:
            continue
        if mass < 0:
            raise InvalidMeasureError(f"negative mass {mass!r} at {point}")
        if isinstance(mass, float):
            if mass != mass:
                raise InvalidMeasureError(f"mass {mass!r} at {point} is not a number")
            if mass < MASS_FLOOR:
                raise InvalidMeasureError(
                    f"mass {mass!r} at {point} is below the 1e-15 floor; "
                    "refusing to drop it silently"
                )
        cleaned.append((point, mass))
    cleaned.sort(key=lambda item: point_sort_key(item[0]))
    return tuple(cleaned)


def reference_total(atoms):
    total = 0
    for _, mass in atoms:
        total = total + mass
    return total


def reference_measure(cls, space, atoms):
    """The atoms, or the error, that ``cls(space, atoms)`` gives by the reference forms."""
    atoms = reference_canonical(space, atoms)
    total = reference_total(atoms)
    allowed = 0 if isinstance(total, (int, Fraction)) else 1e-9
    if cls is DiscreteMeasure:
        if not atoms:
            raise InvalidMeasureError("probability measure needs at least one atom")
        if abs(total - 1) > allowed:
            raise InvalidMeasureError(f"masses sum to {total}, expected 1 within {allowed}")
    elif total > 1 + allowed:
        raise InvalidMeasureError(f"sub-probability mass {total} exceeds 1 + {allowed}")
    return atoms


def result_of(build):
    try:
        return ("atoms", repr(build()))
    except OTLabError as exc:
        return ("error", type(exc).__name__, str(exc))


SPACES = {
    "interval": Interval(1),
    "euclidean": Euclidean(2),
    "finite": Finite(((0, 1, 2), (1, 0, 1), (2, 1, 0))),
    "product": Product(Fraction(1, 2), 2, Interval(1)),
}

# each value in several forms that compare equal: int, Fraction, float
FORMS = [(0, Fraction(0), 0.0, -0.0), (Fraction(1, 2), 0.5), (1, Fraction(1), 1.0),
         (Fraction(1, 4), 0.25), (Fraction(3, 4), 0.75)]


def random_point(rng, kind):
    value = lambda: rng.choice(rng.choice(FORMS))  # noqa: E731
    if kind == "interval":
        return IntervalPoint(value())
    if kind == "euclidean":
        return EuclideanPoint((value(), value()))
    if kind == "finite":
        return FinitePoint(rng.randrange(3))
    return ProductPoint(value(), IntervalPoint(value()))


def random_mass(rng, bad):
    pick = rng.random()
    if bad and pick < 0.3:
        return rng.choice([Fraction(-1, 8), -0.125, float("nan"), 1e-17, Fraction(-1, 3)])
    if pick < 0.15:
        return rng.choice([0, Fraction(0), 0.0])
    if pick < 0.6:
        return Fraction(rng.randrange(1, 9), rng.choice([8, 16, 24]))
    if pick < 0.8:
        return rng.randrange(1, 9) / 16
    return rng.choice([1, Fraction(1, 2)])


def random_atoms(rng, kind, bad):
    return tuple(
        (random_point(rng, kind), random_mass(rng, bad)) for _ in range(rng.randrange(1, 12))
    )


@pytest.mark.parametrize("kind", sorted(SPACES))
def test_canonical_atoms_match_the_dict_merge(kind):
    space = SPACES[kind]
    rng = random.Random(f"canonical-{kind}")
    for case in range(400):
        atoms = random_atoms(rng, kind, bad=case % 2 == 1)
        want = result_of(lambda: reference_canonical(space, atoms))
        assert result_of(lambda: _canonical_atoms(space, atoms)) == want, atoms


@pytest.mark.parametrize("cls", [DiscreteMeasure, SubProbabilityMeasure])
@pytest.mark.parametrize("kind", sorted(SPACES))
def test_measures_match_the_dict_merge(kind, cls):
    space = SPACES[kind]
    rng = random.Random(f"{cls.__name__}-{kind}")
    for case in range(300):
        atoms = random_atoms(rng, kind, bad=case % 3 == 0)
        if case % 2:
            # scale the masses so the exact ones sum to 1, the float ones nearly
            total = reference_total(atoms) or 1
            atoms = tuple(
                (p, m / total if isinstance(m, float) or isinstance(total, float)
                 else Fraction(m) / total)
                for p, m in atoms
            )
        want = result_of(lambda: reference_measure(cls, space, atoms))
        got = result_of(lambda: cls(space, atoms).atoms)
        assert got == want, atoms


def test_duplicates_keep_the_first_form_and_add_in_input_order():
    space = Interval(1)
    atoms = (
        (IntervalPoint(1), 0.1),
        (IntervalPoint(Fraction(1, 2)), Fraction(1, 4)),
        (IntervalPoint(0.5), 0.2),
        (IntervalPoint(1.0), 0.2),
        (IntervalPoint(Fraction(1, 2)), 0.25),
    )
    merged = _canonical_atoms(space, atoms)
    assert [type(p.t) for p, _ in merged] == [Fraction, int]
    assert merged[0][1] == (Fraction(1, 4) + 0.2) + 0.25
    assert merged[1][1] == 0.1 + 0.2


def test_of_several_bad_masses_the_first_to_occur_is_named():
    space = Interval(1)
    atoms = (
        (IntervalPoint(Fraction(3, 4)), Fraction(1, 2)),
        (IntervalPoint(Fraction(1, 2)), 1e-17),  # sorts before 3/4, occurs after
        (IntervalPoint(Fraction(3, 4)), Fraction(-1)),
        (IntervalPoint(0), float("nan")),
    )
    with pytest.raises(InvalidMeasureError, match=r"negative mass Fraction\(-1, 2\) at .*3, 4"):
        _canonical_atoms(space, atoms)
    # an invalid point anywhere is reported before any mass
    with pytest.raises(OTLabError, match="outside"):
        _canonical_atoms(space, atoms + ((IntervalPoint(2), 1),))


# ---------------------------------------------------------------------------
# mass units


def test_exact_mass_units_are_integer_units_and_stay_out_of_identity():
    rng = random.Random(5)
    space = Product(1, 1, Interval(1))
    for _ in range(50):
        cuts = sorted(rng.sample(range(1, 96), 6))
        masses = [Fraction(b - a, 96) for a, b in zip([0] + cuts, cuts + [96])]
        points = rng.sample([(s, t) for s in range(9) for t in range(9)], len(masses))
        atoms = tuple(
            (ProductPoint(Fraction(s, 8), IntervalPoint(Fraction(t, 8))), m)
            for (s, t), m in zip(points, masses)
        )
        mu = DiscreteMeasure(space, atoms)
        units, L = integer_units(mu.masses)
        assert mu._mass_units == (tuple(units), L)
        twin = pickle.loads(pickle.dumps(mu))
        assert "_mass_units" not in twin.__dict__
        assert twin == mu and hash(twin) == hash(mu) and repr(twin) == repr(mu)
        assert pickle.dumps(twin) == pickle.dumps(mu)
        assert twin._mass_units == mu._mass_units
    mixed = DiscreteMeasure(
        Interval(1), ((IntervalPoint(0), Fraction(1, 2)), (IntervalPoint(1), 0.5))
    )
    assert mixed._mass_units is None


def test_an_exact_total_off_one_names_its_exact_sum():
    space = Interval(1)
    for masses, text in [
        ((Fraction(1, 3), Fraction(1, 3)), "2/3"),
        ((Fraction(3, 4), Fraction(3, 4)), "3/2"),
        ((1, 1), "2"),
        ((Fraction(1, 2), Fraction(3, 2)), "2"),
    ]:
        atoms = tuple((IntervalPoint(Fraction(k, 4)), m) for k, m in enumerate(masses))
        with pytest.raises(InvalidMeasureError) as info:
            DiscreteMeasure(space, atoms)
        assert str(info.value) == f"masses sum to {text}, expected 1 within 0"


def test_format_number_forms():
    class Half(Fraction):
        pass

    assert [format_number(x) for x in (3, -0, Fraction(6, 4), Fraction(4, 2), 2.0, 0.1, -0.0)] == [
        "3", "0", "3/2", "2", "2", "0.1", "0"
    ]
    assert format_number(Half(1, 2)) == "1/2"
    assert format_number(1e16) == "1e+16"
    with pytest.raises(TypeError):
        format_number(True)
