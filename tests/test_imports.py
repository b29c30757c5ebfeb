"""Every module-level import in the package and test modules is used, and so is
every module-level private name of the package."""

import ast
import pathlib

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "otlab"
# __init__.py imports only to re-export; no test file shares a package module's name
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py") + sorted(
    TESTS.glob("*.py")
)


def unused_imports(source):
    """Names bound by top-level imports that the module never reads or lists in __all__."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in read)


def test_scan_flags_an_unused_import():
    source = "from __future__ import annotations\nimport json\nimport os.path\nfrom math import gcd, lcm\nlcm(os.sep)\n"
    assert unused_imports(source) == ["gcd (line 4)", "json (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


ROOT = TESTS.parent
USERS = sorted(
    p for d in ("src", "tests", "bench", "demos") for p in (ROOT / d).rglob("*.py")
)


def private_definitions(tree):
    """Module-level ``_name`` definitions (not dunders) with their line spans."""
    spans = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                spans[name] = (node.lineno, node.end_lineno)
    return spans


def name_uses(tree):
    """(name, line) of every name read, attribute, imported name and string constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def orphaned_private_names(definitions, users):
    """Names defined in ``definitions`` (path -> source) used nowhere in ``users`` but there."""
    spans = {}
    for path, source in definitions.items():
        for name, span in private_definitions(ast.parse(source)).items():
            spans.setdefault(name, {})[path] = span
    orphans = {(path, name) for name, paths in spans.items() for path in paths}
    for user, source in users.items():
        for name, line in name_uses(ast.parse(source)):
            for path, (first, last) in spans.get(name, {}).items():
                if not (user == path and first <= line <= last):
                    orphans.discard((path, name))
    return sorted(f"{path}: {name}" for path, name in orphans)


def test_scan_flags_an_orphaned_private_name():
    lib = "def _live():\n    return 1\n\ndef _dead():\n    return _dead()\n\n_TABLE = {}\n"
    user = "import lib\nlib._live()\nlookup = '_TABLE'\n"
    found = orphaned_private_names({"lib": lib}, {"lib": lib, "user": user})
    assert found == ["lib: _dead"]


def test_package_private_names_are_used():
    users = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in USERS}
    definitions = {k: v for k, v in users.items() if k.startswith("src/otlab/")}
    assert orphaned_private_names(definitions, users) == []


def package_imports(source, package="otlab"):
    """(line, name) of every import of ``package`` or its modules, at any depth.

    Counts ``import`` and ``from ... import`` statements anywhere in the tree,
    and calls such as ``importlib.import_module`` or ``__import__`` whose first
    argument is a string naming the package.
    """

    def names_package(name):
        return name == package or name.startswith(package + ".")

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names if names_package(a.name)]
        elif isinstance(node, ast.ImportFrom) and names_package(node.module or ""):
            found.append((node.lineno, node.module))
        elif (
            isinstance(node, ast.Call)
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
            and names_package(node.args[0].value)
        ):
            found.append((node.lineno, node.args[0].value))
    return sorted(found)


def test_scan_flags_a_package_import_at_any_depth():
    source = (
        "import importlib\n"
        "import otlabx, numpy\n"
        "class Oracle:\n"
        "    def solve(self):\n"
        "        from otlab.metric import Finite\n"
        "        if True:\n"
        "            import otlab.solver as s\n"
        "        return importlib.import_module('otlab')\n"
        "def late():\n"
        "    from otlab import solve_wasserstein\n"
        "    return __import__('otlab._numbers'), 'otlab'\n"
    )
    assert package_imports(source) == [
        (5, "otlab.metric"),
        (7, "otlab.solver"),
        (8, "otlab"),
        (10, "otlab"),
        (11, "otlab._numbers"),
    ]


def test_oracles_import_nothing_from_the_package():
    assert package_imports((TESTS / "oracles.py").read_text(encoding="utf-8")) == []
