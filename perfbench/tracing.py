"""Span tracing of the slitgrid modules, installed from outside the package.

The tracer wraps each module's public functions (plus ``AmplitudeTable.build``
and the verify suite's per-check functions) and rebinds every name in the
package that refers to an original, so calls between sibling modules are
traced too.  ``install`` patches and ``uninstall`` restores; nothing is
patched outside a traced run, and wrappers pass straight through while
``active`` is false (the benchmark's own output checks run that way).

A span is ``(span_id, parent_id, request_id, name, start, end)``.  Spans are
kept in memory (up to ``max_spans``; beyond that only the aggregates are
updated) and written out once, at the end of the run.  Self time is a span's
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import tracemalloc
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("geometry", "grating", "scattering", "complementarity", "verify", "cli")


class Tracer:
    def __init__(self, max_spans: int = 200_000) -> None:
        self.max_spans = max_spans
        self.spans: list[tuple] = []
        self.dropped = 0
        self.stats: dict[str, list[float]] = {}  # span name -> [calls, total_s, self_s]
        self.counters: dict[str, float] = {}
        self.request_id = -1
        self.active = False
        self._stack: list[list] = []  # open spans: [span_id, child_s]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def wrap(self, name: str, fn, on_result=None, measure_alloc: bool = False):
        """``fn`` recorded as span ``name``; ``on_result(args, kwargs, result, seconds)``."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            alloc = measure_alloc and not tracemalloc.is_tracing()
            if alloc:
                tracemalloc.start()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                if alloc:
                    peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    key = f"{name}.peak_alloc_mb"
                    self.counters[key] = max(self.counters.get(key, 0.0), peak_mb)
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if len(self.spans) < self.max_spans:
                    self.spans.append((span_id, parent, self.request_id, name, start, end))
                else:
                    self.dropped += 1
            if on_result is not None:
                on_result(args, kwargs, result, duration)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap the traced functions of ``package`` and rebind every alias."""
        replacements: dict[int, object] = {}
        for layer in LAYERS:
            module = getattr(package, layer)
            for attr in _traced_names(module):
                original = getattr(module, attr)
                span = f"{layer}.{attr}"
                replacements[id(original)] = self.wrap(
                    span, original, self._hook(span), span == "grating.grid_function"
                )
        for module in [package] + [getattr(package, layer) for layer in LAYERS]:
            for attr, value in list(vars(module).items()):
                wrapped = replacements.get(id(value))
                if wrapped is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapped)
        table = package.grating.AmplitudeTable
        original = table.__dict__["build"]
        self._patches.append((table, "build", original))
        build = self.wrap("grating.amplitude_table", original.__func__, self._count_elements)
        table.build = classmethod(build)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _hook(self, span: str):
        if span == "grating.grid_function":
            return self._count_grid_terms
        if span == "scattering.synthesize_field":
            return lambda args, kwargs, result, seconds: self.count(
                "scattering.synthesize_field.points", np.size(args[0])
            )
        if span == "complementarity.complementarity_sweep":
            return lambda args, kwargs, result, seconds: self.count(
                "complementarity.sweep.points", len(result)
            )
        if span.startswith("verify._check_"):
            return self._time_check
        return None

    def _count_elements(self, args, kwargs, result, seconds) -> None:
        self.count("grating.amplitude_table.elements", result.r.size + result.t.size)

    def _count_grid_terms(self, args, kwargs, result, seconds) -> None:
        spec = args[1] if len(args) > 1 else kwargs["spec"]
        terms = np.size(args[0]) * spec.truncation
        self.count("grating.grid_function.terms", terms)
        key = "grating.grid_function.max_terms"
        self.counters[key] = max(self.counters.get(key, 0), terms)

    def _time_check(self, args, kwargs, result, seconds) -> None:
        # a check function may return several results (the duality pass
        # returns bound and endpoints); its time goes to the first one
        first = result[0] if isinstance(result, tuple) else result
        self.count(f"verify.check.{first.name}.ms", seconds * 1e3)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"kept": len(self.spans), "dropped": self.dropped}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _traced_names(module) -> list[str]:
    names = [
        attr
        for attr in getattr(module, "__all__", ())
        if inspect.isfunction(getattr(module, attr, None))
        and getattr(module, attr).__module__ == module.__name__
    ]
    if module.__name__.endswith(".verify"):
        names += [attr for attr in vars(module) if attr.startswith("_check_")]
    return names
