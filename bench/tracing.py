"""In-memory spans around the benchmark's own calls into each layer.

A span is (id, name, start, end, parent).  Spans stay in memory while the
run measures and are written out once, at the end.  The untraced runs use
``NullTracer``, whose ``span`` costs one attribute lookup and one context
manager, so the end-to-end figures carry no bookkeeping.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time


class NullTracer:
    def span(self, name):
        return contextlib.nullcontext({})


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        """Record one span; the caller may rename it through the yielded
        record once the call returns (verify rows learn their name late)."""
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None}
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def durations(self, name):
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def median(self, name, scale):
        values = self.durations(name)
        if not values:
            raise KeyError(f"no span named {name!r}")
        return statistics.median(values) * scale

    def total(self, name, scale):
        return sum(self.durations(name)) * scale

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")
