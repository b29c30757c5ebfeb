"""The package's public names are its modules' own ``__all__`` lists, re-exported whole."""

import otlab
from otlab import _numbers, errors, isometry, measure, metric, rigidity, sampling, solver

MODULES = (errors, metric, measure, solver, isometry, rigidity, sampling)
NUMBERS = ("DEFAULT_TOL", "parse_number", "format_number")


def test_package_all_is_the_modules_lists_and_nothing_else():
    expected = {"__version__", *NUMBERS}.union(*(m.__all__ for m in MODULES))
    assert set(otlab.__all__) == expected
    assert len(otlab.__all__) == len(set(otlab.__all__))


def test_each_name_is_the_defining_modules_object():
    for name in NUMBERS:
        assert getattr(otlab, name) is getattr(_numbers, name)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(otlab, name) is getattr(module, name), (module.__name__, name)


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from otlab import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(otlab.__all__)
