"""In-memory spans recorded by the benchmark around its calls into ``golomb``.

A span is ``{"id", "parent", "trace", "name", "start", "end", "attrs"}`` with
times in seconds from ``time.perf_counter``.  Spans of one operation share a
``trace`` id.  They stay in memory until ``write`` is called at the end.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self._stack = []
        self._next_trace = 0

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Record ``name`` around the block; yields the span's attribute dict."""
        if not self.enabled:
            yield attrs
            return
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            trace = self._next_trace
            self._next_trace += 1
        else:
            trace = parent["trace"]
        span = {"id": len(self.spans), "parent": None if parent is None else parent["id"],
                "trace": trace, "name": name, "start": time.perf_counter(), "end": None,
                "attrs": attrs}
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield attrs
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def durations_ms(self, name: str, **match) -> list:
        """Durations of every span called ``name`` whose attributes match."""
        return [
            (s["end"] - s["start"]) * 1000.0
            for s in self.spans
            if s["name"] == name and all(s["attrs"].get(k) == v for k, v in match.items())
        ]

    def p50_ms(self, name: str, **match) -> float:
        durations = self.durations_ms(name, **match)
        return statistics.median(durations) if durations else 0.0

    def write(self, path: str, info: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"info": info, "spans": self.spans}, fh)
