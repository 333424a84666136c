"""Benchmark-side spans: name, start, end, parent, and the goal they serve.

Spans stay in memory while the benchmark runs and are written out once at
the end, so recording one costs a tuple append.
"""

from __future__ import annotations

import json
from collections import defaultdict


class SpanLog:
    """Span store; a disabled log records nothing, for untraced runs."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[tuple] = []     # (id, parent, goal, name, start, end)
        self._next = 0

    def new_id(self) -> int:
        self._next += 1
        return self._next

    def record(self, name: str, start: float, end: float, parent: int = 0,
               goal: int = 0, span_id: int = 0) -> int:
        span_id = span_id or self.new_id()
        if self.enabled:
            self.spans.append((span_id, parent, goal, name, start, end))
        return span_id

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus what children cover.

        The benchmark is single-threaded, so a span's children never overlap
        one another and their durations simply add up.
        """
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for span_id, _, _, name, start, end in self.spans:
            totals[name] += (end - start) - child_time.get(span_id, 0.0)
        return dict(totals)

    def write(self, path, log: str) -> None:
        """Append every span to ``path`` as one JSON line, tagged with ``log``."""
        with open(path, "a") as fh:
            for span_id, parent, goal, name, start, end in self.spans:
                fh.write(json.dumps({"log": log, "id": span_id, "parent": parent,
                                     "goal": goal, "name": name, "start": start,
                                     "end": end}) + "\n")
