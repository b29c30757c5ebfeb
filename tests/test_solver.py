"""Transportation solver: frozen values, certificates, oracles, duals."""

import dataclasses
from fractions import Fraction

import pytest

from otlab import (
    Coupling,
    CouplingError,
    DiscreteMeasure,
    Euclidean,
    EuclideanPoint,
    Finite,
    FinitePoint,
    Interval,
    IntervalPoint,
    Product,
    ProductPoint,
    SolverStallError,
    check_cyclical_monotonicity,
    coupling_cost,
    kr_dual,
    make_rng,
    powered_distance,
    random_coupling,
    random_measure,
    result_to_json,
    solve_wasserstein,
    validate_coupling,
)

from otlab.solver import _kr_witness, _union_support

from oracles import exhaustive_min_cost, linprog_transport_cost


def interval_measure(space, pairs):
    return DiscreteMeasure(space, tuple((IntervalPoint(t), m) for t, m in pairs))


def test_two_atom_crossing_hand_value(unit_interval):
    # quantile integral: |0 - 1/2| on [0, 1/4), |1/4 - 1/2| on [1/4, 1/2),
    # |1/4 - 1| on [1/2, 1) gives 9/16
    mu = interval_measure(
        unit_interval, ((Fraction(0), Fraction(1, 4)), (Fraction(1, 4), Fraction(3, 4)))
    )
    nu = interval_measure(
        unit_interval, ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1), Fraction(1, 2)))
    )
    result = solve_wasserstein(mu, nu, p=1)
    assert result.powered_cost == Fraction(9, 16)
    assert isinstance(result.powered_cost, Fraction)
    assert result.certified


def test_identical_measures_cost_zero(unit_interval):
    mu = interval_measure(unit_interval, ((Fraction(1, 3), Fraction(1, 2)), (Fraction(2, 3), Fraction(1, 2))))
    result = solve_wasserstein(mu, mu, p=1)
    assert result.powered_cost == 0
    assert result.certified


def test_dual_potentials_are_feasible_and_anchored(unit_interval):
    rng = make_rng(3)
    mu = random_measure(rng, unit_interval, 6, exact=True)
    nu = random_measure(rng, unit_interval, 5, exact=True)
    result = solve_wasserstein(mu, nu, p=1)
    u, v = result.dual_potentials
    assert u[0] == 0
    rows = result.coupling.row_points
    cols = result.coupling.col_points
    total = 0
    for j, rp in enumerate(rows):
        for k, cp in enumerate(cols):
            cost = powered_distance(unit_interval, rp, cp, 1)
            assert u[j] + v[k] <= cost
    for j, m in enumerate(mu.masses):
        total += u[j] * m
    for k, m in enumerate(nu.masses):
        total += v[k] * m
    assert total == result.powered_cost


def test_exact_solves_match_exhaustive_oracle(small_tree):
    rng = make_rng(17)
    for _ in range(25):
        mu = random_measure(rng, small_tree, int(rng.integers(1, 5)), exact=True, mass_denominator=8)
        nu = random_measure(rng, small_tree, int(rng.integers(1, 5)), exact=True, mass_denominator=8)
        result = solve_wasserstein(mu, nu, p=1)
        denom = 8
        supply = tuple(int(m * denom) for m in mu.masses)
        demand = tuple(int(m * denom) for m in nu.masses)
        costs = [
            [small_tree.distance(a, b) for b in nu.support] for a in mu.support
        ]
        expected = Fraction(exhaustive_min_cost(supply, demand, costs), denom)
        assert result.powered_cost == expected
        assert result.certified


def test_float_solves_match_reference_lp(snowflake_plane):
    rng = make_rng(29)
    for _ in range(20):
        mu = random_measure(rng, snowflake_plane, int(rng.integers(2, 7)))
        nu = random_measure(rng, snowflake_plane, int(rng.integers(2, 7)))
        result = solve_wasserstein(mu, nu, p=2)
        costs = [
            [powered_distance(snowflake_plane, a, b, 2) for b in nu.support]
            for a in mu.support
        ]
        ref = linprog_transport_cost(mu.masses, nu.masses, costs)
        assert float(result.powered_cost) == pytest.approx(ref, abs=1e-8)


def test_powered_cost_compares_powers_not_roots():
    space = Product(Fraction(1, 2), 2, Euclidean(1))
    a = ProductPoint(Fraction(0), EuclideanPoint((Fraction(0),)))
    b = ProductPoint(Fraction(1, 2), EuclideanPoint((Fraction(2),)))
    mu = DiscreteMeasure(space, ((a, 1),))
    nu = DiscreteMeasure(space, ((b, 1),))
    result = solve_wasserstein(mu, nu, p=2)
    assert result.powered_cost == Fraction(1, 2) + 4
    assert isinstance(result.powered_cost, Fraction)
    assert isinstance(result.cost, float)


def test_kr_dual_routes_agree(snowflake_plane):
    rng = make_rng(41)
    for _ in range(10):
        mu = random_measure(rng, snowflake_plane, int(rng.integers(1, 6)))
        nu = random_measure(rng, snowflake_plane, int(rng.integers(1, 6)))
        primal = solve_wasserstein(mu, nu, p=1)
        reused = kr_dual(mu, nu)
        fresh = kr_dual(mu, nu, independent=True)
        assert reused.method != fresh.method
        assert float(reused.value) == pytest.approx(float(primal.powered_cost), abs=1e-9)
        assert float(fresh.value) == pytest.approx(float(primal.powered_cost), abs=1e-8)


def test_validate_coupling_rejects_wrong_marginals(unit_interval):
    mu = interval_measure(unit_interval, ((Fraction(0), Fraction(1, 2)), (Fraction(1), Fraction(1, 2))))
    nu = interval_measure(unit_interval, ((Fraction(1, 2), Fraction(1),),))
    plan = Coupling(
        unit_interval,
        tuple(mu.support),
        tuple(nu.support),
        ((Fraction(1, 4),), (Fraction(3, 4),)),
    )
    with pytest.raises(CouplingError):
        validate_coupling(plan, mu, nu)


def test_random_coupling_is_feasible(snowflake_plane):
    rng = make_rng(53)
    for _ in range(20):
        mu = random_measure(rng, snowflake_plane, int(rng.integers(1, 8)))
        nu = random_measure(rng, snowflake_plane, int(rng.integers(1, 8)))
        pi = random_coupling(rng, mu, nu)
        validate_coupling(pi, mu, nu)


def test_cyclical_monotonicity_flags_a_swapped_plan():
    line = Finite(((0, 1, 10, 11), (1, 0, 9, 10), (10, 9, 0, 1), (11, 10, 1, 0)))
    mu = DiscreteMeasure(line, ((FinitePoint(0), Fraction(1, 2)), (FinitePoint(2), Fraction(1, 2))))
    nu = DiscreteMeasure(line, ((FinitePoint(1), Fraction(1, 2)), (FinitePoint(3), Fraction(1, 2))))
    good = solve_wasserstein(mu, nu, p=1).coupling
    assert check_cyclical_monotonicity(good, p=1).ok
    crossed = Coupling(
        line,
        good.row_points,
        good.col_points,
        ((0, Fraction(1, 2)), (Fraction(1, 2), 0)),
    )
    report = check_cyclical_monotonicity(crossed, p=1)
    assert not report.ok


def test_pivot_budget_trips_stall_error():
    # identity pairing from the northwest corner is far from optimal here
    line = Finite(((0, 10, 11, 1), (10, 0, 1, 9), (11, 1, 0, 10), (1, 9, 10, 0)))
    mu = DiscreteMeasure(line, ((FinitePoint(0), Fraction(1, 2)), (FinitePoint(1), Fraction(1, 2))))
    nu = DiscreteMeasure(line, ((FinitePoint(2), Fraction(1, 2)), (FinitePoint(3), Fraction(1, 2))))
    full = solve_wasserstein(mu, nu, p=1)
    assert full.powered_cost == 1
    with pytest.raises(SolverStallError):
        solve_wasserstein(mu, nu, p=1, pivot_budget=0)


def test_coupling_cost_exponent(unit_interval):
    mu = interval_measure(unit_interval, ((Fraction(0), 1),))
    nu = interval_measure(unit_interval, ((Fraction(1, 2), 1),))
    pi = Coupling(unit_interval, tuple(mu.support), tuple(nu.support), ((Fraction(1),),))
    assert coupling_cost(pi, 1) == Fraction(1, 2)
    assert coupling_cost(pi, 2) == Fraction(1, 4)


def test_row_and_column_sums_are_the_same_running_sum(unit_interval):
    # 0.5 + 2**-54 rounds back to 0.5, twice; a compensated sum (the builtin
    # sum of floats from Python 3.12 on) gives 0.5 + 2**-53 on this row
    tiny = 2.0**-54
    points = tuple(IntervalPoint(t) for t in (0.0, 0.5, 1.0))
    rows = ((0.5, tiny, tiny), (0.5 - 2 * tiny, 0.0, 0.0))
    plan = Coupling(unit_interval, points[:2], points, rows)
    flipped = Coupling(unit_interval, points, points[:2], tuple(zip(*rows)))
    assert plan.row_sums() == flipped.col_sums() == (0.5, 0.5 - 2 * tiny)
    assert plan.col_sums() == flipped.row_sums() == (1.0 - 2 * tiny, tiny, tiny)


def test_result_record_round_trips_through_json(unit_interval):
    import json

    from otlab.solver import result_to_json

    mu = interval_measure(unit_interval, ((Fraction(0), Fraction(1, 2)), (Fraction(1), Fraction(1, 2))))
    nu = interval_measure(unit_interval, ((Fraction(1, 2), 1),))
    result = solve_wasserstein(mu, nu, p=1)
    record = json.loads(result_to_json(result))
    assert record["certified"] is True
    assert record["cost"] == "1/2"
    assert record["p"] == "1"
    assert record["row_support"] == ["0", "1"]
    assert record["col_support"] == ["1/2"]
    # triplets are (row index, col index, mass)
    assert record["coupling"] == [[0, 0, "1/2"], [1, 0, "1/2"]]
    assert len(record["dual_u"]) == 2 and len(record["dual_v"]) == 1


def test_stall_reports_the_starting_plan_cost_in_real_units():
    line = Finite(((0, 10, 11, 1), (10, 0, 1, 9), (11, 1, 0, 10), (1, 9, 10, 0)))
    for half in (Fraction(1, 2), 0.5):
        mu = DiscreteMeasure(line, ((FinitePoint(0), half), (FinitePoint(1), half)))
        nu = DiscreteMeasure(line, ((FinitePoint(2), half), (FinitePoint(3), half)))
        northwest = Coupling(line, mu.support, nu.support, ((half, 0), (0, half)))
        with pytest.raises(SolverStallError) as info:
            solve_wasserstein(mu, nu, p=1, pivot_budget=0)
        assert info.value.pivots == 0
        assert info.value.current_cost == coupling_cost(northwest, 1) == 10


# the bench/scaling.py pairs; the counts pin the pivot rule, not just the optimum
@pytest.mark.parametrize(
    "n, exact, pivots, powered",
    [
        (10, False, 24, None),
        (20, False, 101, None),
        (10, True, 25, Fraction(2753205, 65536)),
        (20, True, 100, Fraction(721681, 32768)),
    ],
)
def test_pivot_sequence_is_pinned(n, exact, pivots, powered):
    space = Product(Fraction(1, 2) if exact else 0.5, 2, Euclidean(2))
    rng = make_rng((1, n))
    mu = random_measure(rng, space, n, exact=exact)
    nu = random_measure(rng, space, n, exact=exact)
    result = solve_wasserstein(mu, nu, p=2)
    assert result.pivots == pivots
    assert result.certified
    if exact:
        assert result.powered_cost == powered
    with pytest.raises(SolverStallError) as info:
        solve_wasserstein(mu, nu, p=2, pivot_budget=pivots - 1)
    assert info.value.pivots == pivots - 1


def tied_pair(kind, k):
    """Masses 1/k on k points each side, where most costs tie and the optimum has many plans.

    "all-ones": two overlapping windows of a 2k-point Finite space whose
    points are all 1 apart. "interval-grid": the same windows of the grid
    j / (2k) on [0, 1], where the northwest-corner start is already optimal.
    "city-block-grid": a column-major and a row-major window of the 7 x 7
    grid on the l1 square, which pivots through ties.
    """
    if kind == "all-ones":
        space = Finite(tuple(tuple(int(a != b) for b in range(2 * k)) for a in range(2 * k)))
        points = [FinitePoint(j) for j in range(2 * k)]
        rows = points[:k]
    elif kind == "interval-grid":
        space = Interval(1)
        points = [IntervalPoint(Fraction(j, 2 * k)) for j in range(2 * k)]
        rows = points[:k]
    else:
        space = Product(1, 1, Interval(1))
        points = [
            ProductPoint(Fraction(a, 6), IntervalPoint(Fraction(b, 6)))
            for a in range(7)
            for b in range(7)
        ]
        rows = [points[(j % 7) * 7 + j // 7] for j in range(k)]
    mass = Fraction(1, k)
    mu = DiscreteMeasure(space, tuple((q, mass) for q in rows))
    nu = DiscreteMeasure(space, tuple((q, mass) for q in points[k // 2 : k // 2 + k]))
    return mu, nu


@pytest.mark.parametrize("k", (2, 7, 16, 24))
@pytest.mark.parametrize("kind", ("all-ones", "interval-grid", "city-block-grid"))
def test_degenerate_equal_masses_solve_within_budget_and_repeat(kind, k):
    mu, nu = tied_pair(kind, k)
    result = solve_wasserstein(mu, nu, p=1)
    assert result.pivots < 10 * k * k  # the default budget
    assert result.certified
    validate_coupling(result.coupling, mu, nu)
    costs = [[mu.space.powered_distance(y, z, 1) for z in nu.support] for y in mu.support]
    if k <= 8:
        ones = (1,) * k
        assert result.powered_cost == Fraction(exhaustive_min_cost(ones, ones, costs), k)
    else:
        ref = linprog_transport_cost(mu.masses, nu.masses, costs)
        assert float(result.powered_cost) == pytest.approx(ref, abs=1e-9)
    # a solve of another pair in between leaves nothing behind for the next
    solve_wasserstein(nu, mu, p=1)
    assert result_to_json(solve_wasserstein(mu, nu, p=1)) == result_to_json(result)


@pytest.mark.parametrize("kind", ("all-ones", "city-block-grid"))
def test_final_tree_is_strongly_feasible(kind):
    # rooted at row 0, every basic cell whose column end is the child carries
    # positive flow: the invariant that keeps degenerate pivots from cycling
    from otlab.solver import _transport_simplex

    for k in range(2, 25):
        mu, nu = tied_pair(kind, k)
        cost = [[mu.space.powered_distance(y, z, 1) for z in nu.support] for y in mu.support]
        flows, _pivots, _u, _v, adj = _transport_simplex([1] * k, [1] * k, cost, k, k, 1, 10 * k * k)
        seen = {0}
        stack = [0]
        while stack:
            node = stack.pop()
            for nb in adj[node]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
                    if nb >= k:
                        assert flows[(node, nb - k)] > 0, (k, node, nb)
        assert len(seen) == 2 * k


def test_arithmetic_says_how_the_solve_ran():
    from otlab import result_record

    half = Fraction(1, 2)
    plane = Product(half, 2, Euclidean(2))
    mu = DiscreteMeasure(plane, ((ProductPoint(0, EuclideanPoint((0, 0))), 1),))
    nu = DiscreteMeasure(
        plane,
        (
            (ProductPoint(half, EuclideanPoint((1, 0))), half),
            (ProductPoint(1, EuclideanPoint((0, half))), half),
        ),
    )
    # p != q takes a square root: Fraction inputs, float costs
    assert solve_wasserstein(mu, nu, p=1).arithmetic == "float"
    assert solve_wasserstein(mu, nu, p=2).arithmetic == "exact"
    city = Product(1, 1, Interval(1))
    mu = DiscreteMeasure(city, ((ProductPoint(0, IntervalPoint(half)), 1),))
    nu = DiscreteMeasure(city, ((ProductPoint(half, IntervalPoint(1)), 1),))
    result = solve_wasserstein(mu, nu, p=1)
    assert (result.arithmetic, result.powered_cost) == ("exact", 1)
    floats = DiscreteMeasure(city, ((ProductPoint(0.5, IntervalPoint(1.0)), 1.0),))
    assert solve_wasserstein(mu, floats, p=1).arithmetic == "float"
    assert "arithmetic" not in result_record(result)


def _c_transform(mu, nu, u):
    """f(z) = min_j (d(z, y_j) - u_j) over supp(mu) | supp(nu), and its dual value."""
    space = mu.space
    points = list(mu.support) + [z for z in nu.support if z not in mu.support]
    values = [min(space.distance(z, y) - uj for y, uj in zip(mu.support, u)) for z in points]
    value = sum(f * (nu.mass_of(z) - mu.mass_of(z)) for z, f in zip(points, values))
    return points, values, value


def _shared_measures(rng, space, candidates):
    """Two exact measures on overlapping random subsets of ``candidates``."""
    picks = []
    for _ in range(2):
        size = int(rng.integers(1, len(candidates) + 1))
        chosen = rng.choice(len(candidates), size=size, replace=False)
        weights = [int(w) for w in rng.integers(1, 6, size=size)]
        picks.append(
            DiscreteMeasure(
                space,
                tuple((candidates[int(c)], Fraction(w, sum(weights))) for c, w in zip(chosen, weights)),
            )
        )
    return picks


def test_exact_kr_witness_is_the_c_transform_of_the_potentials():
    third = Fraction(1, 3)
    line = [Fraction(k, 6) for k in range(6)]
    finite = Finite(tuple(tuple(abs(a - b) for b in line) for a in line))
    cases = {
        "finite": (finite, [FinitePoint(k) for k in range(6)]),
        "interval": (Interval(1), [IntervalPoint(t) for t in line]),
        "E1": (Euclidean(1), [EuclideanPoint((3 * t - 1,)) for t in line]),
        "product-interval": (
            Product(1, 1, Interval(1)),
            [ProductPoint(t, IntervalPoint(x)) for t in (0, third) for x in line[:3]],
        ),
        "product-E1": (
            Product(1, 1, Euclidean(1)),
            [ProductPoint(t, EuclideanPoint((x,))) for t in (third, 1) for x in (-2, 0, third)],
        ),
        "product-finite": (
            Product(1, 1, finite),
            [ProductPoint(t, FinitePoint(k)) for t in (0, third) for k in (1, 3, 4)],
        ),
    }
    rng = make_rng(83)
    shared = 0
    for name, (space, candidates) in cases.items():
        for _ in range(8):
            mu, nu = _shared_measures(rng, space, candidates)
            shared += len(set(mu.support) & set(nu.support))
            result = solve_wasserstein(mu, nu, p=1)
            assert result.arithmetic == "exact", name
            witness = _kr_witness(mu, nu, result)
            points, values, value = _c_transform(mu, nu, result.dual_potentials[0])
            assert [z for z, _ in witness.assignments] == points
            assert [f for _, f in witness.assignments] == values, name
            assert all(isinstance(f, (int, Fraction)) for f in values)
            assert witness.value == value == result.powered_cost, name
            assert kr_dual(mu, nu).value == value
    assert shared > 0


def _list_scan_union(mu, nu):
    """supp(mu), then each point of supp(nu) that an ``==`` scan does not find yet."""
    points = list(mu.support)
    for z in nu.support:
        if z not in points:
            points.append(z)
    return points


def _list_scan_witness_value(mu, nu, u):
    """The dual value of the c-transform of ``u``, summed over the list-scan union."""
    space = mu.space
    mu_masses, nu_masses = mu.as_dict(), nu.as_dict()
    value = 0
    for z in _list_scan_union(mu, nu):
        f = min(space.distance(z, y) - uj for y, uj in zip(mu.support, u))
        value = value + f * (nu_masses.get(z, 0) - mu_masses.get(z, 0))
    return value


def test_union_support_matches_the_list_scan():
    city = Product(1, 1, Interval(1))
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    exact = DiscreteMeasure(city, (
        (ProductPoint(0, IntervalPoint(quarter)), quarter),
        (ProductPoint(half, IntervalPoint(quarter)), quarter),
        (ProductPoint(half, IntervalPoint(1)), quarter),
        (ProductPoint(1, IntervalPoint(0)), quarter),
    ))
    # the first two points equal points of ``exact``, given as floats
    floats = DiscreteMeasure(city, (
        (ProductPoint(0.5, IntervalPoint(0.25)), 0.5),
        (ProductPoint(1.0, IntervalPoint(0.0)), 0.25),
        (ProductPoint(0.75, IntervalPoint(0.5)), 0.25),
    ))
    # shares two points with ``exact``, one spelled Fraction(2, 2) for the int 1
    shared = DiscreteMeasure(city, (
        (ProductPoint(half, IntervalPoint(Fraction(2, 2))), half),
        (ProductPoint(0, IntervalPoint(quarter)), Fraction(1, 3)),
        (ProductPoint(quarter, IntervalPoint(0)), Fraction(1, 6)),
    ))
    # no point of ``apart`` is in ``exact``: its part of the union is nu's alone
    apart = DiscreteMeasure(city, (
        (ProductPoint(Fraction(3, 4), IntervalPoint(Fraction(3, 4))), Fraction(2, 3)),
        (ProductPoint(1, IntervalPoint(1)), Fraction(1, 3)),
    ))
    cases = (
        (exact, floats), (floats, exact), (exact, shared), (shared, exact), (exact, exact),
        (exact, apart),
    )
    for mu, nu in cases:
        union = _union_support(mu, nu)
        # the same points in the same order, each in the form its first measure gives
        assert [repr(z) for z in union] == [repr(z) for z in _list_scan_union(mu, nu)]
        result = solve_wasserstein(mu, nu, p=1)
        witness = _kr_witness(mu, nu, result)
        assert [repr(z) for z, _ in witness.assignments] == [repr(z) for z in union]
        assert witness.value == _list_scan_witness_value(mu, nu, result.dual_potentials[0])
        fresh = kr_dual(mu, nu, independent=True)
        assert [repr(z) for z, _ in fresh.assignments] == [repr(z) for z in union]
        assert float(fresh.value) == pytest.approx(float(witness.value), abs=1e-9)
    assert len(_union_support(exact, floats)) == 5


def _tree_hung_potentials(mu, nu, p):
    """The exact potentials as ``powered_distance`` on the final tree cells, hung from row 0.

    The kernel runs again on the same integer units, so it ends on the same
    tree; the potentials are then rebuilt in Fraction arithmetic, each cell's
    cost minus the potential of its parent node.
    """
    from otlab.solver import _joint_units, _transport_simplex

    space, rows, cols = mu.space, mu.support, nu.support
    m, n = len(rows), len(cols)
    cost_units, Lc = space._unit_costs(rows, cols, p)
    a, b, L = _joint_units(mu._mass_units, nu._mass_units)
    flows, _pivots, _u, _v, adj = _transport_simplex(a, b, cost_units, m, n, L * Lc, 10 * m * n)
    tree = {(i, j): space.powered_distance(rows[i], cols[j], p) for i, j in flows}
    u, v = [None] * m, [None] * n
    u[0] = 0
    stack = [0]
    while stack:
        node = stack.pop()
        for nb in adj[node]:
            if nb < m and u[nb] is None:
                u[nb] = tree[(nb, node - m)] - v[node - m]
                stack.append(nb)
            elif nb >= m and v[nb - m] is None:
                v[nb - m] = tree[(node, nb - m)] - u[node]
                stack.append(nb)
    return tuple(u), tuple(v)


def _mixed_line_finite():
    """A line metric whose integral entries are spelled int, True or Fraction(k, 1) in turn."""
    line = [0, 1, Fraction(3, 2), 3, Fraction(10, 3), 5]

    def entry(i, j):
        d = abs(Fraction(line[i]) - Fraction(line[j]))
        if d.denominator != 1:
            return d
        spell = (i + j) % 3
        if spell == 0 and d == 1:
            return True
        return Fraction(d) if spell == 1 else int(d)

    return Finite(tuple(tuple(entry(i, j) for j in range(6)) for i in range(6)))


_SPELLINGS = [False, True, 0, 1, Fraction(2, 2), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4)]
_SIGNED = [False, True, -2, 3, Fraction(2, 2), Fraction(-1, 3), Fraction(5, 2)]
_FINITE = _mixed_line_finite()
_EXACT_POTENTIAL_CASES = {
    "interval": (Interval(1), (1, 2, 3), [IntervalPoint(t) for t in _SPELLINGS]),
    "interval-half": (Interval(Fraction(1, 2)), (2, 4), [IntervalPoint(t) for t in _SPELLINGS]),
    "E1": (Euclidean(1), (1, 2, 3), [EuclideanPoint((x,)) for x in _SIGNED]),
    "E2": (
        Euclidean(2),
        (2, 4),
        [
            EuclideanPoint((x, y))
            for x in _SIGNED[::2]
            for y in (True, 0, Fraction(2, 2), Fraction(-2, 3))
        ],
    ),
    "finite": (_FINITE, (1, 2), [FinitePoint(k) for k in range(6)]),
    "product-interval": (
        Product(1, 1, Interval(1)),
        (1, 2),
        [ProductPoint(t, IntervalPoint(x)) for t in _SPELLINGS[::3] for x in _SPELLINGS[1::2]],
    ),
    "product-E2": (
        Product(Fraction(1, 2), 2, Euclidean(2)),
        (2,),
        [
            ProductPoint(t, EuclideanPoint((x, y)))
            for t in (0, True, Fraction(1, 3))
            for x in (-2, Fraction(2, 2))
            for y in (False, Fraction(1, 2))
        ],
    ),
    "product-finite": (
        Product(1, 1, _FINITE),
        (1, 2),
        [
            ProductPoint(t, FinitePoint(k))
            for t in (False, 1, Fraction(2, 2), Fraction(1, 2))
            for k in range(0, 6, 2)
        ],
    ),
}


@pytest.mark.parametrize("kind", sorted(_EXACT_POTENTIAL_CASES))
def test_exact_potentials_match_the_fraction_hang_of_the_final_tree(kind):
    # the potentials are the kernel's integer ones over the cost unit, each an
    # int or a Fraction just as Fraction arithmetic on powered_distance makes it
    space, orders, candidates = _EXACT_POTENTIAL_CASES[kind]
    rng = make_rng((91, sorted(_EXACT_POTENTIAL_CASES).index(kind)))
    types = set()
    for _ in range(15):
        mu, nu = _shared_measures(rng, space, candidates)
        for p in orders:
            result = solve_wasserstein(mu, nu, p=p)
            assert result.arithmetic == "exact"
            want = _tree_hung_potentials(mu, nu, p)
            assert repr(result.dual_potentials) == repr(want), (kind, p)
            u, v = result.dual_potentials
            types.update(type(x) for x in u[1:] + v)
    assert types == {int, Fraction}, kind


def _full_c_transform(mu, nu, u):
    """f(z) = min_j (d(z, y_j) - u_j) as a Fraction at every union point, costing every point."""
    space = mu.space
    points = _list_scan_union(mu, nu)
    values = [
        Fraction(min(space.powered_distance(z, y, 1) - uj for y, uj in zip(mu.support, u)))
        for z in points
    ]
    value = sum((f * (nu.mass_of(z) - mu.mass_of(z)) for z, f in zip(points, values)), Fraction(0))
    return tuple(zip(points, values)), value


@pytest.mark.parametrize("kind", ("interval", "E1", "finite", "product-interval", "product-finite"))
def test_exact_witness_costs_supp_mu_only_and_matches_the_full_c_transform(kind, monkeypatch):
    # on a certified exact solve f at a point of nu alone is its column's
    # potential, so only supp(mu) x supp(mu) is costed; the values and the
    # dual value are the full c-transform's, byte for byte
    space, _orders, candidates = _EXACT_POTENTIAL_CASES[kind]
    costed = []
    unit_costs = type(space)._unit_costs

    def counted(self, rows, cols, p):
        costed.append((len(rows), len(cols), p))
        return unit_costs(self, rows, cols, p)

    rng = make_rng((97, sorted(_EXACT_POTENTIAL_CASES).index(kind)))
    nu_alone = 0
    for _ in range(15):
        mu, nu = _shared_measures(rng, space, candidates)
        result = solve_wasserstein(mu, nu, p=1)
        assert result.arithmetic == "exact" and result.certified
        with monkeypatch.context() as patch:
            patch.setattr(type(space), "_unit_costs", counted)
            costed.clear()
            witness = _kr_witness(mu, nu, result)
        m = len(mu.support)
        assert costed == [(m, m, 1)]
        assignments, value = _full_c_transform(mu, nu, result.dual_potentials[0])
        assert repr(witness.assignments) == repr(assignments)
        assert repr(witness.value) == repr(value)
        assert witness.value == result.powered_cost
        # an uncertified result costs every union point, as before
        with monkeypatch.context() as patch:
            patch.setattr(type(space), "_unit_costs", counted)
            costed.clear()
            unchecked = _kr_witness(mu, nu, dataclasses.replace(result, certified=False))
        assert costed == [(len(assignments), m, 1)]
        assert repr(unchecked) == repr(witness)
        nu_alone += len(assignments) - m
    assert nu_alone > 0
