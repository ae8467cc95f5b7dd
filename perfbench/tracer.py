"""Per-module timing of an in-process session, from outside the package.

The tracer replaces each public function of the package modules, wherever a
module binds it, with a timing wrapper, and puts the originals back after.
Sweep-level functions get one span per call.  Per-set functions (those
called once per enumerated fuzzy set) get aggregate counters and timers
instead, so that tracing does not cost more than the work it measures.
Either way a call's self time is its duration minus the calls it made into
other wrapped functions, and is charged to the module that defines it.

Spans mark layer boundaries: a call from a module into itself is counted
but not timed apart, so its time stays with the calling function (lattice
validation counts toward `lattice.build`).  The HOT functions are the
exception and always get their own span, wherever they are called from.
Spans are kept in memory and written out once, at the end.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

MODULES = ("cli", "document", "lattice", "fuzzyset", "partition",
           "ftransform", "relation", "closure", "morphism", "algebra")

HOT = ("lattice.build", "lattice.law_suite", "document.load_document",
       "closure.operator_from_system", "closure.check_system",
       "closure.system_from_partition", "ftransform.transform_law_suite",
       "relation.relation_from_system", "morphism.fcss_witness",
       "morphism.fcs_witness", "algebra.check_coa_hom")

PER_SET = frozenset({
    "fuzzyset.set_at", "fuzzyset.set_index", "fuzzyset.forward_image",
    "fuzzyset.backward_image", "ftransform.ft_transform",
    "ftransform.ft_field", "ftransform.ft_component", "relation.upper_approx",
})


class Tracer:
    def __init__(self):
        self.spans: list = []        # [name, start, end, parent, request]
        self.self_s: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.request = 0
        self._stack: list = []       # [module, span index or None, child s]
        self._patched: list = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, self_s, calls = (self.spans, self._stack, self.self_s,
                                       self.calls)
        module = name.split(".", 1)[0]
        hot = name in HOT

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == module and not hot:
                calls[name] += 1
                return fn(*args, **kwargs)
            index = len(spans)
            parent = next((f[1] for f in reversed(stack) if f[1] is not None),
                          None)
            record = [name, 0.0, 0.0, parent, self.request]
            spans.append(record)
            frame = [module, index, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                record[1], record[2] = start, end
                self_s[name] += duration - frame[2]
                calls[name] += 1
                if stack:
                    stack[-1][2] += duration

        return functools.wraps(fn)(wrapper)

    def _aggregate(self, name, fn):
        stack, self_s, calls = self._stack, self.self_s, self.calls
        module = name.split(".", 1)[0]

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if stack and stack[-1][0] == module:
                return fn(*args, **kwargs)
            frame = [module, None, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                self_s[name] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration

        return functools.wraps(fn)(wrapper)

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the package modules in place."""
        wrappers = {}
        for short in MODULES:
            module = sys.modules[f"latfuzz.{short}"]
            for attr, fn in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                name = f"{short}.{attr}"
                make = self._aggregate if name in PER_SET else self._span
                wrappers[id(fn)] = (fn, make(name, fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "latfuzz" and not mod_name.startswith("latfuzz."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results ----------------------------------------------------------

    def module_self_s(self) -> dict:
        out = {m: 0.0 for m in MODULES}
        for name, seconds in self.self_s.items():
            out[name.split(".", 1)[0]] += seconds
        return out

    def write(self, path: Path) -> None:
        """Write the spans and aggregate counters, once, at the end."""
        path.write_text(json.dumps({
            "spans": self.spans,
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
        }))

