"""In-memory spans recorded around calls into tvgsr's layers.

A span is (id, name, start, end, parent, root). Wrappers replace a function
on the module its caller reads it from, so a call made inside tvgsr is
recorded where it crosses a module boundary. Spans stay in memory until
``dump`` writes them out at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self.last_args = {}
        self._stack = []
        self._patches = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        record = {"id": len(self.spans), "name": name, "parent": parent,
                  "root": self._stack[0] if self._stack else len(self.spans),
                  "start": time.perf_counter() - self._t0, "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self._t0
            self._stack.pop()

    def wrap(self, module_name, attr, name, on_result=None):
        """Record a span named ``name`` around every call of ``module.attr``.

        ``on_result(args, kwargs, result)`` may return extra fields for the
        span; it runs after the span has ended, so its cost is not counted.
        """
        module = importlib.import_module(module_name)
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = original(*args, **kwargs)
            self.last_args[name] = (args, kwargs)
            if on_result is not None:
                record.update(on_result(args, kwargs, result))
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def unwrap_all(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def roots(self, name):
        return [s for s in self.spans if s["parent"] is None and s["name"] == name]

    def under(self, root, name):
        """Spans called ``name`` inside the tree of ``root``."""
        return [s for s in self.spans if s["root"] == root["id"] and s["name"] == name]

    def self_time(self, span):
        children = [s for s in self.spans if s["parent"] == span["id"]]
        return (span["end"] - span["start"]) - sum(c["end"] - c["start"] for c in children)

    def dump(self, path, extra):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(extra, spans=self.spans), fh, indent=1)


def duration(span):
    return span["end"] - span["start"]
