"""Every defaulted parameter of a package function is passed by some call.

A parameter that no call sets has one value in use, and is a constant in
all but name: tests and benchmarks must still reason about it. A static
scan lists every module-level function in ``src/otlab`` with a defaulted
parameter, and every call in ``src/``, ``tests/``, ``demos/`` and
``bench/``. A call counts for every function of its name, whether it names
the function directly or as an attribute. A parameter is passed when a call
gives it by keyword, or fills its position; a ``*args`` splat fills every
position and a ``**kwargs`` splat gives every keyword.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "otlab"
CALLERS = ("src", "tests", "demos", "bench")


def defaulted_parameters(source):
    """``{function: [(parameter, position or None)]}`` of the module-level defs of ``source``.

    The position is None for a keyword-only parameter.
    """
    found = {}
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        params = [(a.arg, i) for i, a in enumerate(positional) if i >= first]
        params += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
        if params:
            found[node.name] = params
    return found


def passed_parameters(source, names):
    """``{(function, parameter or position)}`` that the calls in ``source`` pass to ``names``.

    ``"*"`` stands for every position and ``"**"`` for every keyword.
    """
    passed = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name not in names:
            continue
        for pos, arg in enumerate(node.args):
            passed.add((name, "*" if isinstance(arg, ast.Starred) else pos))
        for kw in node.keywords:
            passed.add((name, "**" if kw.arg is None else kw.arg))
    return passed


def unused(definitions, passed):
    """The ``function(parameter)`` entries of ``definitions`` that no call in ``passed`` sets."""
    missing = []
    for func, params in definitions.items():
        for param, pos in params:
            by_position = pos is not None and ((func, pos) in passed or (func, "*") in passed)
            by_keyword = (func, param) in passed or (func, "**") in passed
            if not (by_position or by_keyword):
                missing.append(f"{func}({param})")
    return sorted(missing)


def test_scan_finds_a_parameter_no_call_passes():
    definitions = defaulted_parameters(
        "def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n"
        "def g(a, b=1):\n    pass\n"
        "def h(a):\n    pass\n"
        "class K:\n    def f(self, z=0):\n        pass\n"
    )
    assert definitions == {"f": [("b", 1), ("c", 2), ("d", None), ("e", None)], "g": [("b", 1)]}
    calls = "f(0, 1)\nx.f(0, d=5)\ng(*args)\nh(0)\n"
    assert unused(definitions, passed_parameters(calls, set(definitions))) == ["f(c)", "f(e)"]
    assert unused(definitions, passed_parameters("f(0, **kw)\n", {"f"})) == ["g(b)"]


def test_every_defaulted_parameter_is_passed_somewhere():
    definitions = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for func, params in defaulted_parameters(path.read_text(encoding="utf-8")).items():
            definitions.setdefault(func, []).extend(params)
    passed = set()
    for folder in CALLERS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            passed |= passed_parameters(path.read_text(encoding="utf-8"), set(definitions))
    assert unused(definitions, passed) == []
