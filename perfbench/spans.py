"""Spans around genuslab's public functions, recorded from outside.

Tracer.installed() replaces every module attribute of genuslab that is
bound to one of the traced functions by a wrapper, so a call is seen
whichever module its caller looks the function up in (genuslab.census
calls two_core through genuslab.census.two_core, for instance).  Each call
appends a span [name, start, end, parent, count]: count is read from the
return value where one is defined.  On leaving the block the original
attributes are restored, so untraced trials run the program untouched.
"""

from __future__ import annotations

import contextlib
import importlib
from time import perf_counter

MODULES = ("graphs", "random_models", "embeddings", "census", "fragile")

# (module, function) -> count taken from its return value
TRACED = {
    ("random_models", "gnm"): None,
    ("random_models", "add_uniform_edges"): None,
    ("graphs", "giant_component"): None,
    ("graphs", "two_core"): None,
    ("graphs", "enumerate_cycles"): len,
    ("census", "supercritical_report"): None,
    ("census", "count_census_cycles"): lambda out: out[0],
    ("census", "classify_cycle_neighborhood"): None,
    ("embeddings", "exact_genus"): lambda out: out.nodes_explored,
    ("embeddings", "genus_lower_bound_short_cycles"): None,
    ("fragile", "fragile_experiment"): None,
    ("fragile", "decompose_into_pieces"): None,
    ("fragile", "select_cores"): None,
    ("fragile", "count_good_edges"): None,
    ("fragile", "build_quotient"): lambda out: out.m,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                span[4] = count(out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        modules = [importlib.import_module(f"genuslab.{m}") for m in MODULES]
        wrappers = {}
        for (mod, fname), count in TRACED.items():
            fn = getattr(importlib.import_module(f"genuslab.{mod}"), fname)
            wrappers[id(fn)] = self._wrap(f"{mod}.{fname}", fn, count)
        patched = []
        for module in modules:
            for attr, value in vars(module).items():
                if id(value) in wrappers and callable(value):
                    patched.append((module, attr, value))
        try:
            for module, attr, value in patched:
                setattr(module, attr, wrappers[id(value)])
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a new list."""
        out = self.spans[:]
        self.spans.clear()
        return out


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per name: calls, self seconds and summed counts.

    A span's self time is its duration minus the durations of its direct
    children, which are nested inside it and do not overlap.
    """
    self_s = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            self_s[s[3]] -= s[2] - s[1]
    out: dict[str, dict] = {}
    for s, own in zip(spans, self_s):
        rec = out.setdefault(s[0], {"calls": 0, "self_s": 0.0, "count": 0})
        rec["calls"] += 1
        rec["self_s"] += own
        if s[4] is not None:
            rec["count"] += s[4]
    return out
