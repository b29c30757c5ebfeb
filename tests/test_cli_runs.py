"""Whole ``otlab dist`` runs on exact-token and far product files, and the package import.

An import of the package loads no scipy: only ``kr_dual(independent=True)``
imports it. The other tests load scipy in-process, so the import runs in a
fresh interpreter.
"""

import os
import subprocess
import sys

import numpy as np

import otlab
from otlab.cli import EXIT_PASS, EXIT_USAGE, entry

FLOAT_NOTE = "otlab: note: this solve ran in float arithmetic (costs d**p are not exact here)\n"


def dist(capsys, *argv):
    """The exit code, stdout lines and stderr of one ``otlab dist`` run."""
    code = entry(["dist", *map(str, argv)])
    out, err = capsys.readouterr()
    return code, out.splitlines(), err


def distance(lines):
    return float(next(line[11:] for line in lines if line.startswith("distance = ")))


def test_importing_the_package_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(otlab.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    probe = (
        "import sys, otlab; print(otlab.__file__); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    run = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    assert run.stdout.splitlines() == [otlab.__file__, "[]"]


def test_thirty_atom_exact_token_files_agree_across_modes(tmp_path, capsys):
    # coordinates k/32 and masses k/64 summing to 1: at order 1 the costs are
    # irrational, so the rational run solves in float on the array rebuilt
    # from its 900 per-cell costs and says so; the float run broadcasts
    rng = np.random.default_rng(30)
    paths = []
    for name in ("mu", "nu"):
        masses = np.diff([0, *sorted(rng.choice(63, 29, replace=False) + 1), 64])
        cells = rng.choice(33 * 65, 30, replace=False)
        atoms = zip(masses.tolist(), cells.tolist())
        lines = "".join(f"{w}/64 {c // 65}/32 {c % 65 - 32}/32\n" for w, c in atoms)
        path = tmp_path / f"{name}30.txt"
        path.write_text("space product\n" + lines)
        paths.append(path)
    runs = {
        mode: dist(capsys, *paths, "--space", "product", "--order", "1", "--mode", mode)
        for mode in ("rational", "float")
    }
    assert runs["rational"][2] == FLOAT_NOTE
    assert runs["float"][2] == ""
    for code, out, _ in runs.values():
        assert code == EXIT_PASS
        assert "certified = True" in out
    r, f = (distance(runs[mode][1]) for mode in ("rational", "float"))
    assert abs(r - f) <= 1e-12 * f


FAR = ("--space", "product", "--q", "3", "--dim", "2")


def far_pair(tmp_path):
    """Two 1e200 apart at q = 3: the base power of each far cell is beyond the float range."""
    mu, nu = tmp_path / "far-mu.txt", tmp_path / "far-nu.txt"
    mu.write_text("space product\n1/2 0.25 1e200 0\n1/2 0.5 0 0\n")
    nu.write_text("space product\n1 0.75 -1e200 0\n")
    return mu, nu


def test_a_two_by_one_far_pair_is_certified_at_order_one(tmp_path, capsys):
    # 2 x 1 cells: the per-cell code rescales each far cell
    code, out, err = dist(capsys, *far_pair(tmp_path), *FAR, "--order", "1")
    assert (code, err) == (EXIT_PASS, "")
    assert "certified = True" in out and "distance = 1.5e+200" in out


def test_a_two_by_one_far_pair_at_order_three_is_refused(tmp_path, capsys):
    # the cost d**3 itself is beyond the float range
    code, out, err = dist(capsys, *far_pair(tmp_path), *FAR, "--order", "3")
    assert (code, out) == (EXIT_USAGE, [])
    assert err == "otlab: a cost d**p at p=3 is beyond the float range\n"


def test_a_nine_by_nine_far_pair_is_rescued_in_the_broadcast(tmp_path, capsys):
    # past the per-cell code's 25 cells: 3/4 at each far atom, and 1/32 on
    # each of eight atoms 1 apart next to mu's far atom, in both measures;
    # the broadcast builds the matrix, rescues the far cells, and
    # W1 = 3/4 * 2e200
    near = "".join(f"1/32 0.25 1e200 {k}\n" for k in range(1, 9))
    mu, nu = tmp_path / "split-mu.txt", tmp_path / "split-nu.txt"
    mu.write_text("space product\n3/4 0.25 1e200 0\n" + near)
    nu.write_text("space product\n3/4 0.75 -1e200 0\n" + near)
    code, out, err = dist(capsys, mu, nu, *FAR, "--order", "1")
    assert (code, err) == (EXIT_PASS, "")
    assert "certified = True" in out and "distance = 1.5e+200" in out
