"""Per-layer spans recorded from outside the program.

:class:`Tracer` wraps every public function of the traced otlab modules in
every otlab module that binds it, and every dataclass ``__post_init__`` (one
span per construction). A span's self time is its duration minus the time of
the spans it caused. Spans are folded into per-name totals as they close, so
memory stays flat however many calls a run makes. ``solve_wasserstein``
results also feed solver counters: pivots, the arithmetic used and the
certificate verdict.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from fractions import Fraction

TRACED_MODULES = ("metric", "measure", "solver", "isometry", "rigidity", "sampling", "campaign", "cli")


def public_names(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return [n for n in names if getattr(getattr(module, n, None), "__module__", None) == module.__name__]


class Tracer:
    def __init__(self, package="otlab", modules=TRACED_MODULES, clock=time.perf_counter):
        self.package = package
        self.modules = modules
        self.clock = clock
        self.calls = {}
        self.self_s = {}
        self.counters = {"pivots": 0, "solves.exact": 0, "solves.float": 0, "uncertified": 0}
        self._stack = []  # child time accumulated by each open span
        self._undo = []
        self.on = False

    # -- spans ---------------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        if not self.on:
            return fn(*args, **kwargs)
        self._stack.append(0.0)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            took = self.clock() - start
            children = self._stack.pop()
            if self._stack:
                self._stack[-1] += took
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + (took - children)

    def observe_solve(self, result):
        if not self.on:
            return
        c = self.counters
        c["pivots"] += result.pivots
        exact = isinstance(result.powered_cost, (int, Fraction))
        c["solves.exact" if exact else "solves.float"] += 1
        if not result.certified:
            c["uncertified"] += 1

    # -- patching ------------------------------------------------------------

    def _wrap_function(self, name, fn):
        observe = name.endswith(".solve_wasserstein")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if observe:
                self.observe_solve(result)
            return result

        return wrapper

    def _wrap_post_init(self, name, fn):
        @functools.wraps(fn)
        def wrapper(obj):
            return self.span(name, fn, obj)

        return wrapper

    def install(self):
        """Patch the package; returns the layer names found."""
        loaded = [m for k, m in sorted(sys.modules.items()) if k == self.package or k.startswith(self.package + ".")]
        found = []
        for short in self.modules:
            module = sys.modules.get(f"{self.package}.{short}")
            if module is None:
                continue
            for attr in public_names(module):
                obj = getattr(module, attr)
                name = f"{short}.{attr}"
                if isinstance(obj, type):
                    post = obj.__dict__.get("__post_init__")
                    if dataclasses.is_dataclass(obj) and post is not None:
                        self._set(obj, "__post_init__", self._wrap_post_init(name, post))
                        found.append(name)
                elif callable(obj):
                    wrapper = self._wrap_function(name, obj)
                    for mod in loaded:
                        for key, value in list(vars(mod).items()):
                            if value is obj:
                                self._set(mod, key, wrapper)
                    found.append(name)
        return found

    def _set(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)
