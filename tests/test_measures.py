"""Measure layer: canonical form, algebra, disintegration, residuals, files."""

from fractions import Fraction

import pytest

from otlab import (
    DiscreteMeasure,
    DomainError,
    IntervalPoint,
    InvalidMeasureError,
    ParseError,
    Product,
    ProductPoint,
    convex_combine,
    disintegrate,
    dump_measure,
    load_measure,
    measures_close,
    meet,
    push_forward,
    reassemble,
    residual_decompose,
)


def half():
    return Fraction(1, 2)


def test_atoms_merge_and_sort(unit_interval):
    mu = DiscreteMeasure(
        unit_interval,
        (
            (IntervalPoint(half()), Fraction(1, 4)),
            (IntervalPoint(half()), Fraction(1, 4)),
            (IntervalPoint(Fraction(0)), half()),
        ),
    )
    assert mu.atoms == (
        (IntervalPoint(Fraction(0)), half()),
        (IntervalPoint(half()), half()),
    )
    assert mu.mass_of(IntervalPoint(half())) == half()
    assert not mu.is_dirac()


def test_mass_validation(unit_interval):
    with pytest.raises(InvalidMeasureError):
        DiscreteMeasure(unit_interval, ((IntervalPoint(0), half()),))
    with pytest.raises(InvalidMeasureError):
        DiscreteMeasure(
            unit_interval,
            ((IntervalPoint(0), Fraction(3, 2)), (IntervalPoint(1), Fraction(-1, 2))),
        )


def test_convex_combine_weights(unit_interval):
    mu = DiscreteMeasure(unit_interval, ((IntervalPoint(0), 1),))
    nu = DiscreteMeasure(unit_interval, ((IntervalPoint(1), 1),))
    mix = convex_combine(Fraction(1, 4), mu, nu)
    assert mix.mass_of(IntervalPoint(0)) == Fraction(3, 4)
    assert mix.mass_of(IntervalPoint(1)) == Fraction(1, 4)
    assert convex_combine(0, mu, nu) is mu
    assert convex_combine(1, mu, nu) is nu
    with pytest.raises(DomainError):
        convex_combine(2, mu, nu)


def test_push_forward_merges_images(unit_interval):
    mu = DiscreteMeasure(
        unit_interval,
        ((IntervalPoint(Fraction(1, 4)), half()), (IntervalPoint(Fraction(3, 4)), half())),
    )
    image = push_forward(mu, lambda p: IntervalPoint(half()))
    assert image.atoms == ((IntervalPoint(half()), Fraction(1)),)
    assert image.is_dirac()


def test_disintegrate_reassemble_round_trip(city_block_square):
    x0, x1 = IntervalPoint(Fraction(1, 4)), IntervalPoint(Fraction(3, 4))
    mu = DiscreteMeasure(
        city_block_square,
        (
            (ProductPoint(Fraction(1, 8), x0), Fraction(1, 4)),
            (ProductPoint(Fraction(5, 8), x0), Fraction(1, 4)),
            (ProductPoint(Fraction(1, 2), x1), half()),
        ),
    )
    dis = disintegrate(mu)
    assert dis.marginal.mass_of(x0) == half()
    conds = dict(dis.conditionals)
    assert conds[x0].mass_of(IntervalPoint(Fraction(1, 8))) == half()
    assert conds[x1].is_dirac()
    assert reassemble(dis).atoms == mu.atoms


def test_conditionals_of_exact_measures_are_exact(city_block_square):
    third = Fraction(1, 3)
    dirac = DiscreteMeasure(city_block_square, ((ProductPoint(half(), IntervalPoint(third)), 1),))
    shared = DiscreteMeasure(
        city_block_square,
        (
            (ProductPoint(0, IntervalPoint(third)), Fraction(1, 6)),
            (ProductPoint(1, IntervalPoint(third)), Fraction(1, 3)),
            (ProductPoint(half(), IntervalPoint(1)), half()),
        ),
    )
    for mu in (dirac, shared):
        dis = disintegrate(mu)
        masses = [m for _, cond in dis.conditionals for m in cond.masses]
        assert all(isinstance(m, (int, Fraction)) for m in masses), masses
        assert reassemble(dis).atoms == mu.atoms
    assert dict(disintegrate(shared).conditionals)[IntervalPoint(third)].masses == (third, 2 * third)
    floats = DiscreteMeasure(
        city_block_square,
        (
            (ProductPoint(0.5, IntervalPoint(0.25)), 0.25),
            (ProductPoint(0.75, IntervalPoint(0.25)), 0.75),
        ),
    )
    dis = disintegrate(floats)
    assert [type(m) for _, cond in dis.conditionals for m in cond.masses] == [float, float]
    assert reassemble(dis).atoms == floats.atoms


def test_meet_and_residuals(unit_interval):
    a = IntervalPoint(Fraction(0))
    b = IntervalPoint(half())
    c = IntervalPoint(Fraction(1))
    mu = DiscreteMeasure(unit_interval, ((a, half()), (b, half())))
    nu = DiscreteMeasure(unit_interval, ((a, half()), (c, half())))
    common = meet(mu, nu)
    assert common.as_dict() == {a: half()}
    dec = residual_decompose(mu, nu)
    assert dec.a == half()
    assert dec.common.is_dirac()
    assert dec.mu_residual.atoms == ((b, Fraction(1)),)
    assert dec.nu_residual.atoms == ((c, Fraction(1)),)
    rebuilt = convex_combine(dec.a, dec.common, dec.mu_residual)
    assert rebuilt.atoms == mu.atoms


def test_residual_decompose_degenerate_and_disjoint(unit_interval):
    mu = DiscreteMeasure(unit_interval, ((IntervalPoint(0), 1),))
    same = residual_decompose(mu, mu)
    assert same.degenerate and same.a == 0 and same.common is mu
    nu = DiscreteMeasure(unit_interval, ((IntervalPoint(1), 1),))
    apart = residual_decompose(mu, nu)
    assert apart.a == 1 and apart.common is None
    assert apart.mu_residual.atoms == mu.atoms


def test_measures_close_tolerance(unit_interval):
    mu = DiscreteMeasure(unit_interval, ((IntervalPoint(0.0), 0.5), (IntervalPoint(1.0), 0.5)))
    nu = DiscreteMeasure(
        unit_interval, ((IntervalPoint(0.0), 0.5 + 1e-12), (IntervalPoint(1.0), 0.5 - 1e-12))
    )
    assert measures_close(mu, nu, tol=1e-9)
    assert not measures_close(mu, nu, tol=1e-15)
    shifted = DiscreteMeasure(unit_interval, ((IntervalPoint(0.5), 1.0),))
    assert not measures_close(mu, shifted, tol=1.0)


def test_measure_file_round_trip(tmp_path, city_block_square):
    mu = DiscreteMeasure(
        city_block_square,
        (
            (ProductPoint(Fraction(1, 3), IntervalPoint(Fraction(1, 7))), Fraction(2, 5)),
            (ProductPoint(Fraction(2, 3), IntervalPoint(Fraction(6, 7))), Fraction(3, 5)),
        ),
    )
    text = dump_measure(mu, "sq")
    path = tmp_path / "m.txt"
    path.write_text(text, encoding="utf-8")
    loaded, space_id = load_measure(str(path), city_block_square, exact=True)
    assert space_id == "sq"
    assert loaded.atoms == mu.atoms


def test_measure_file_reports_position(measure_file, unit_interval, snowflake_plane, small_tree):
    path = measure_file(["0.5 0", "0.5 nan?"])
    with pytest.raises(ParseError) as err:
        load_measure(path, unit_interval)
    assert err.value.line == 3
    assert err.value.column is not None
    # product lines read: mass t base-coordinates...
    tree_product = Product(1, 1, small_tree)
    for space, line, column in (
        (snowflake_plane, "1 0.5 1 y?", 4),
        (tree_product, "1 0.5 i?", 3),
        (tree_product, "1 t? 2", 2),
    ):
        with pytest.raises(ParseError) as err:
            load_measure(measure_file([line]), space)
        assert (err.value.line, err.value.column) == (2, column)


def test_measure_file_requires_header(tmp_path, unit_interval):
    path = tmp_path / "nohdr.txt"
    path.write_text("1 0.5\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_measure(str(path), unit_interval)
    assert err.value.line == 1
