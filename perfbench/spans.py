"""Spans recorded around calls into the library's layer functions.

``Tracer.install`` replaces each traced function, wherever a ``lietriple``
module binds it (the defining module, importers, aliases such as the
CLI's ``classify_op``), by a wrapper that records a span: name, start,
end, parent span and request id.  ``uninstall`` puts the originals back,
so untraced runs execute the library unchanged.  Spans stay in memory
until the run writes them out.

The witness kernel's ``stage_search`` returns ``(tested, digits)``; its
wrapper keeps ``tested``, which gives exact candidate counts from outside.
"""

from __future__ import annotations

import contextlib
import sys
import time

# (module, function) pairs traced, grouped by layer; the span name is
# "<layer>.<function>".  Missing functions are skipped, so a later version
# of the library that folds one away still runs.
TRACED = {
    "cli": [("cli", "main")],
    "formats": [("formats", "parse_lts"), ("formats", "serialize_lie"), ("formats", "parse_lie")],
    "core": [
        ("core", "check_axioms"),
        ("core", "transform"),
        ("core", "derived_series"),
        ("core", "lts_center"),
    ],
    "embed": [("embed", "standard_embedding"), ("embed", "decompose"), ("embed", "is_canonical")],
    "lie": [
        ("lie", "lie_derived_series"),
        ("lie", "lower_central_series"),
        ("lie", "killing_signature"),
        ("lie", "lie_center"),
        ("lie", "lie_to_lts"),
    ],
    "classify": [("classify", "fingerprint"), ("classify", "isomorphic"), ("classify", "classify")],
    "catalog": [("catalog", "all_entries")],
    "witness": [("witness", "search_witness"), ("_witness_py", "stage_search"), ("_speedups", "stage_search")],
}

NAME, START, END, PARENT, REQUEST, INFO = range(6)


class Tracer:
    def __init__(self, package: str = "lietriple"):
        self.spans: list[list] = []
        self.request = None
        self._stack: list[int] = []
        self._patches = []  # (namespace, attribute, original, wrapper)
        prefix = package + "."
        modules = [m for name, m in sys.modules.items() if m is not None and (name == package or name.startswith(prefix))]
        for layer, targets in TRACED.items():
            for mod_name, fn_name in targets:
                module = sys.modules.get(prefix + mod_name)
                func = getattr(module, fn_name, None) if module is not None else None
                if func is None:
                    continue
                span_name = f"{layer}.{fn_name}"
                if mod_name.startswith("_"):
                    span_name = f"{layer}.kernel"
                wrapper = self._wrap(span_name, func)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is func:
                            self._patches.append((m, attr, func, wrapper))

    def _wrap(self, name, func):
        spans, stack = self.spans, self._stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self.request, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf()
            try:
                result = func(*args, **kwargs)
            finally:
                rec[END] = perf()
                stack.pop()
            if name == "witness.kernel":
                rec[INFO] = result[0] if isinstance(result, tuple) else None
            elif name == "witness.search_witness":
                rec[INFO] = result is not None
            return result

        return wrapper

    def install(self):
        for m, attr, _, wrapper in self._patches:
            setattr(m, attr, wrapper)

    def uninstall(self):
        for m, attr, original, _ in self._patches:
            setattr(m, attr, original)

    @contextlib.contextmanager
    def span(self, name):
        """A span around a block of the benchmark's own code."""
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.request, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] is not None:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def as_json(self):
        return [
            {"name": s[NAME], "start": s[START], "end": s[END], "parent": s[PARENT], "request": s[REQUEST], "info": s[INFO]}
            for s in self.spans
        ]
