"""Span recorder shared by the traced run and the traced CLI wrapper.

A span records a name, a column, start and end (seconds from the
recorder's origin), its parent span and sizes.  Spans stay in memory and
are written out once, when the run ends.  A self time is a span's
duration minus the part its child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name, column=None, **sizes):
        rec = {"id": len(self.spans), "name": name, "column": column,
               "parent": self._stack[-1] if self._stack else None, "sizes": sizes}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter() - self.origin
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self.origin
            self._stack.pop()

    def call(self, name, fn, *args, column=None, sizes=None, **kwargs):
        with self.span(name, column, **(sizes or {})):
            return fn(*args, **kwargs)

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def total(self, name) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def dump(self, path: Path):
        write_json(path, self.spans)


def write_json(path: Path, obj):
    path.write_text(json.dumps(obj, indent=1) + "\n", encoding="utf-8")


def self_time(spans: list[dict], span: dict) -> float:
    children = sum(s["end"] - s["start"] for s in spans if s["parent"] == span["id"])
    return span["end"] - span["start"] - children
