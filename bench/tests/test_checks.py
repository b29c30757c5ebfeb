"""The benchmark's own checks accept real program output and reject corrupted output.

Run from the root of the checkout: ``python3 -m pytest bench/tests -q``.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import types
from fractions import Fraction

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import otlab  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def mutable(weights):
    return [list(row) for row in weights]


# ---------------------------------------------------------------------------
# small-exact: enumeration and exact certificate


def test_tree_table_and_enumeration_by_hand():
    table = checks.tree_distance_table()
    assert table[0][4] == 7 and table[2][4] == 6 and table[3][3] == 0
    # two units at node 0 and one at node 2 against three units at node 1:
    # every plan ships everything to node 1
    assert checks.min_cost_by_enumeration((2, 1), (3,), [[2], [1]]) == 5
    # crossing is never cheaper than going straight
    assert checks.min_cost_by_enumeration((1, 1), (1, 1), [[0, 5], [5, 0]]) == 0


def small_exact_case():
    wl = workloads.SmallExact(seed=0)
    i = next(k for k, p in enumerate(wl.profiles) if p == {0: 4, 4: 4})
    j = next(k for k, p in enumerate(wl.profiles) if p == {1: 4, 3: 4})
    res = otlab.solve_wasserstein(wl.measures[i], wl.measures[j], p=1)
    rows = [(p.index, wl.profiles[i][p.index]) for p in res.coupling.row_points]
    cols = [(q.index, wl.profiles[j][q.index]) for q in res.coupling.col_points]
    return wl, res, rows, cols


def test_small_exact_check_accepts_the_program():
    wl, res, rows, cols = small_exact_case()
    u, v = res.dual_potentials
    verdict = checks.check_exact_tree(rows, cols, wl.table, res.coupling.weights, u, v, res.powered_cost, True)
    assert verdict.ok, verdict.problems


def test_small_exact_check_rejects_a_corrupted_plan_entry():
    wl, res, rows, cols = small_exact_case()
    plan = mutable(res.coupling.weights)
    plan[0][0] += Fraction(1, 8)
    u, v = res.dual_potentials
    verdict = checks.check_exact_tree(rows, cols, wl.table, plan, u, v, res.powered_cost, True)
    assert not verdict.ok and not verdict.optimal


def test_small_exact_check_rejects_a_corrupted_potential():
    wl, res, rows, cols = small_exact_case()
    u, v = res.dual_potentials
    u = (u[0] + 1,) + tuple(u[1:])
    verdict = checks.check_exact_tree(rows, cols, wl.table, res.coupling.weights, u, v, res.powered_cost, True)
    assert not verdict.ok
    assert any("dual" in p for p in verdict.problems)


def test_small_exact_check_rejects_a_feasible_but_costlier_plan():
    wl, _res, rows, cols = small_exact_case()
    # swapping the two lanes keeps the marginals and raises the cost from 4 * 2/8 * 2 to 4 * 5/8 * 2
    plan = [[Fraction(0), Fraction(1, 2)], [Fraction(1, 2), Fraction(0)]]
    verdict = checks.check_exact_tree(rows, cols, wl.table, plan, None, None, None, False)
    assert not verdict.optimal


# ---------------------------------------------------------------------------
# large-float: HiGHS on the rescaled cost


def float_case(space, window, seed=3, n=8):
    rng = np.random.default_rng(seed)
    mu, mu_m = workloads.float_measure(rng, space, n, window)
    nu, nu_m = workloads.float_measure(rng, space, n, window)
    res = otlab.solve_wasserstein(mu, nu, p=2)
    rows = [workloads._point_key(p) for p in res.coupling.row_points]
    cols = [workloads._point_key(q) for q in res.coupling.col_points]
    return res, [mu_m[k] for k in rows], [nu_m[k] for k in cols], workloads.float_cost(rows, cols)


PRODUCT = otlab.Product(0.5, 2, otlab.Euclidean(2))


def test_float_check_accepts_the_program():
    res, a, b, cost = float_case(PRODUCT, 10.0)
    u, v = res.dual_potentials
    verdict = checks.check_float(a, b, cost, res.coupling.weights, u, v, res.powered_cost, True)
    assert verdict.ok, verdict.problems


def test_float_check_rejects_a_corrupted_plan_entry():
    res, a, b, cost = float_case(PRODUCT, 10.0)
    plan = mutable(res.coupling.weights)
    plan[0][0] += 0.01
    u, v = res.dual_potentials
    verdict = checks.check_float(a, b, cost, plan, u, v, res.powered_cost, True)
    assert not verdict.ok and not verdict.optimal


def test_float_check_rejects_a_corrupted_potential():
    res, a, b, cost = float_case(PRODUCT, 10.0)
    u, v = res.dual_potentials
    u = (u[0] + 0.01 * float(np.abs(cost).max()),) + tuple(u[1:])
    verdict = checks.check_float(a, b, cost, res.coupling.weights, u, v, res.powered_cost, True)
    assert not verdict.ok
    assert any("dual" in p for p in verdict.problems)


def test_float_check_holds_its_tolerance_at_tiny_scale():
    # at window 1e-7 the program certifies the northwest-corner plan as
    # optimal after 0 pivots; the rescaled reference sees that it is not
    res, a, b, cost = float_case(otlab.Euclidean(2), 1e-7, seed=12, n=12)
    assert res.pivots == 0 and res.certified
    verdict = checks.check_float(a, b, cost, res.coupling.weights, *res.dual_potentials, res.powered_cost, True)
    assert not verdict.optimal


# ---------------------------------------------------------------------------
# dist-rational: parsed stdout and the exact certificate


@pytest.fixture
def dist_case(tmp_path):
    rng = np.random.default_rng(5)
    mu_atoms = workloads.exact_grid_atoms(rng, 6)
    nu_atoms = workloads.exact_grid_atoms(rng, 6)
    mu_path, nu_path = str(tmp_path / "mu.txt"), str(tmp_path / "nu.txt")
    workloads.write_measure_file(mu_path, mu_atoms)
    workloads.write_measure_file(nu_path, nu_atoms)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = otlab.cli.entry(["dist", mu_path, nu_path, *workloads.DIST_ARGS])
    return code, out.getvalue(), mu_atoms, nu_atoms


def test_dist_check_accepts_the_program(dist_case):
    code, stdout, mu_atoms, nu_atoms = dist_case
    verdict = checks.check_dist_output(code, stdout, mu_atoms, nu_atoms)
    assert code == 0 and verdict.ok, verdict.problems


def test_dist_check_rejects_a_corrupted_plan_entry(dist_case):
    code, stdout, mu_atoms, nu_atoms = dist_case
    lines = stdout.splitlines()
    k = lines.index("coupling:") + 1
    weight, rest = lines[k].strip().split(" : ", 1)
    lines[k] = f"  {Fraction(weight) + Fraction(1, 64)} : {rest}"
    verdict = checks.check_dist_output(code, "\n".join(lines) + "\n", mu_atoms, nu_atoms)
    assert not verdict.ok and not verdict.optimal


def test_dist_check_rejects_a_corrupted_potential(dist_case):
    code, stdout, mu_atoms, nu_atoms = dist_case
    lines = stdout.splitlines()
    k = lines.index("potentials:") + 1
    head, value = lines[k].rsplit(" = ", 1)
    lines[k] = f"{head} = {Fraction(value) + Fraction(1, 3)}"
    verdict = checks.check_dist_output(code, "\n".join(lines) + "\n", mu_atoms, nu_atoms)
    assert not verdict.ok


def test_dist_check_rejects_a_wrong_dual_value_and_a_failed_exit(dist_case):
    code, stdout, mu_atoms, nu_atoms = dist_case
    bad = "".join(
        "dual_value = 7/3\n" if line.startswith("dual_value") else line + "\n" for line in stdout.splitlines()
    )
    assert not checks.check_dist_output(code, bad, mu_atoms, nu_atoms).ok
    assert not checks.check_dist_output(1, stdout, mu_atoms, nu_atoms).ok


# ---------------------------------------------------------------------------
# tracer


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def fake_package(clock):
    pkg = types.ModuleType("fakepkg")
    inner_mod = types.ModuleType("fakepkg.inner")
    outer_mod = types.ModuleType("fakepkg.outer")

    def leaf():
        clock.now += 2.0
        return 1

    leaf.__module__ = "fakepkg.inner"
    inner_mod.leaf = leaf
    inner_mod.__all__ = ["leaf"]

    def top():
        clock.now += 1.0
        out = outer_mod.leaf() + outer_mod.leaf()
        clock.now += 0.5
        return out

    top.__module__ = "fakepkg.outer"
    outer_mod.top = top
    outer_mod.leaf = leaf  # bound in a second module, as `from .inner import leaf` does
    outer_mod.__all__ = ["top"]
    return {"fakepkg": pkg, "fakepkg.inner": inner_mod, "fakepkg.outer": outer_mod}


def test_tracer_self_time_subtracts_child_spans(monkeypatch):
    clock = Clock()
    mods = fake_package(clock)
    for name, mod in mods.items():
        monkeypatch.setitem(sys.modules, name, mod)
    tr = Tracer(package="fakepkg", modules=("inner", "outer", "gone"), clock=clock)
    found = tr.install()
    assert sorted(found) == ["inner.leaf", "outer.top"]
    tr.on = True
    assert mods["fakepkg.outer"].top() == 2
    tr.on = False
    assert tr.calls == {"inner.leaf": 2, "outer.top": 1}
    assert tr.self_s == {"inner.leaf": 4.0, "outer.top": 1.5}
    tr.uninstall()
    assert mods["fakepkg.outer"].leaf is mods["fakepkg.inner"].leaf
    assert not hasattr(mods["fakepkg.outer"].leaf, "__wrapped__")


def test_tracer_finds_every_reported_layer_and_restores_the_package():
    original = otlab.solver.solve_wasserstein
    post_init = otlab.DiscreteMeasure.__dict__["__post_init__"]
    tr = Tracer()
    found = set(tr.install())
    try:
        assert set(run.SELF_LAYERS) <= found
        assert otlab.solve_wasserstein is not original
        assert otlab.solver.solve_wasserstein is otlab.solve_wasserstein
    finally:
        tr.uninstall()
    assert otlab.solve_wasserstein is original and otlab.solver.solve_wasserstein is original
    assert otlab.DiscreteMeasure.__dict__["__post_init__"] is post_init


def test_traced_pivots_repeat_exactly():
    def pivots():
        wl = workloads.SmallExact(seed=4)
        tr = Tracer()
        tr.install()
        try:
            tr.on = True
            for op in wl.ops(0) + wl.ops(1):
                op.call()
        finally:
            tr.uninstall()
        return tr.counters["pivots"], tr.calls["solver.solve_wasserstein"]

    first = pivots()
    assert first[1] == 200 and first[0] > 0
    assert pivots() == first


# ---------------------------------------------------------------------------
# the command itself


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "small-exact", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_run_prints_checked_metrics_as_its_last_line():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "small-exact", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] % 100 == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
